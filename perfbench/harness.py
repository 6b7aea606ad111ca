"""Shared machinery: tracing, statistics, checks, imports and subprocesses."""

import bisect
import collections
import contextlib
import importlib
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

clock = time.perf_counter_ns


class Tracer:
    """Spans kept in memory: (name, start_ns, end_ns, parent index, id).

    span() opens a parent span for one request (a pair, an invocation, a
    closure phase); call() records a child of the innermost open span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, ident):
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, clock(), 0, parent, ident])
        self._stack.append((idx, ident))
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = clock()

    def call(self, name, fn, *args):
        parent, ident = self._stack[-1] if self._stack else (None, None)
        t0 = clock()
        out = fn(*args)
        self.spans.append([name, t0, clock(), parent, ident])
        return out

    def children_by_request(self):
        """{id: {name: total ns}} over the child spans."""
        out = {}
        for name, t0, t1, parent, ident in self.spans:
            if parent is not None:
                d = out.setdefault(ident, {})
                d[name] = d.get(name, 0) + (t1 - t0)
        return out

    def durations(self, name):
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def records(self):
        return [{"name": n, "start_ns": t0, "end_ns": t1, "parent": p, "id": i}
                for n, t0, t1, p, i in self.spans]


class NullTracer:
    """The untraced run: no spans, calls go straight through."""

    _null = contextlib.nullcontext()

    def span(self, name, ident):
        return self._null

    def call(self, name, fn, *args):
        return fn(*args)


class Checks:
    """Counts timed operations and the ones whose output was wrong."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.messages = []

    def op(self, ok, what):
        self.ops += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def nearest_rank(sorted_values, q):
    """The q-th percentile (0 < q <= 100) by nearest rank."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(q / 100.0 * n) - 1)]


def summary(values):
    """Median, p90, p99 and the highest whole percentile that still has at
    least ten samples beyond it (None below 11 samples), with the count."""
    s = sorted(values)
    n = len(s)
    top = math.floor(100 * (n - 10) / n) if n > 10 else None
    return {"n": n, "p50": statistics.median(s), "p90": nearest_rank(s, 90),
            "p99": nearest_rank(s, 99), "top_p": top,
            "top_value": nearest_rank(s, top) if top else None}


def fresh_import(*names):
    """Import the checkout's cycred from scratch, discarding earlier copies,
    so that each set-up repetition pays the import again."""
    for k in [k for k in sys.modules if k == "cycred" or k.startswith("cycred.")]:
        del sys.modules[k]
    importlib.invalidate_caches()
    mods = [importlib.import_module(n) for n in names]
    where = os.path.dirname(os.path.abspath(mods[0].__file__))
    if where != os.path.join(SRC, "cycred"):
        raise RuntimeError("imported cycred from %s, not from this checkout" % where)
    return mods


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def wall_ms(argv, env, cwd=ROOT):
    """Run one process to completion; wall time in ms, exit code, stdout."""
    t0 = clock()
    p = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=60)
    return (clock() - t0) / 1e6, p.returncode, p.stdout


def median_wall_ms(argv, env, reps):
    return statistics.median(wall_ms(argv, env)[0] for _ in range(reps))


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def rss_mb():
    """The current RSS (Linux)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
    except OSError:
        return None
    return p.stdout.strip() or None


_Pt = collections.namedtuple("_Pt", "g s")


def _arith():
    s = 0
    for i in range(20000):
        s += i & 7


def _alloc():
    d = {}
    for i in range(1000):
        p = _Pt(i & 3, 1 if i & 1 else -1)
        d[p] = (p, _Pt(p.g, -p.s))


def _pack(x, y):
    return x, y, x + y


def _calls():
    acc = []
    for i in range(5000):
        t = _pack(i, i & 7)
        if t[2] & 1:
            acc.append(t)
    sorted(acc[:500], key=lambda t: (t[1], t[0]))


class HostSpeed:
    """How fast the host ran, measured by timing fixed pure-Python loops
    that contain nothing of cycred: integer arithmetic, small named tuples
    in a dict, and calls building tuples.

    A shared host can slow down by up to half for tens of seconds at a
    time, whatever runs on it.  A sample is the mean, over the three loops,
    of the loop's time over its time at reference speed (REF_NS: the fast
    state of a 2-vCPU shared VM with Python 3.11.7); scaling a measured time
    by the samples around it (see scale) gives the time at reference speed,
    which repeats far better than the raw time (see README.md).  While
    started, SIGALRM samples every `every_ms` between bytecodes of whatever
    runs; `spent_ns` totals the sampling time so that it can be taken out of
    measured spans.  sample() takes one sample by hand, for spans spent
    waiting on a child process.
    """

    LOOPS = (_arith, _alloc, _calls)
    REF_NS = (800000, 810000, 560000)
    NEAREST = 5

    def __init__(self, every_ms=100):
        self.every = every_ms / 1000.0
        self.starts = []
        self.samples = []
        self.spent_ns = 0

    def sample(self, *_):
        start = t = clock()
        slow = 0.0
        for loop, ref in zip(self.LOOPS, self.REF_NS):
            loop()
            now = clock()
            slow += (now - t) / ref
            t = now
        self.starts.append(start)
        self.samples.append(slow / len(self.LOOPS))
        self.spent_ns += t - start

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """The median sample of the run: 1 at reference speed."""
        return statistics.median(self.samples) if self.samples else None

    def scale(self, t0, t1):
        """Reference time per wall time over [t0, t1): the mean of 1/sample
        over the samples taken inside (the samples are evenly spaced in
        wall time, so this integrates the host's speed over a span that
        moved between fast and slow), or, when fewer than three were taken
        inside, 1 over the median of the NEAREST samples before t1."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if hi - lo >= 3:
            return statistics.fmean(1.0 / x for x in self.samples[lo:hi])
        lo = max(0, hi - self.NEAREST)
        if hi == lo:
            hi = lo + self.NEAREST
        return 1.0 / statistics.median(self.samples[lo:hi])

    def scaled(self, ops):
        """(t0, t1, ns) spans to their times at reference speed."""
        return [ns * self.scale(t0, t1) for t0, t1, ns in ops]
