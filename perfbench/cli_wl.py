"""The `cli` workload: a closed loop with one client running
`python -m cycred.cli` over a seeded mix of subcommands.

Each invocation's expected stdout comes from the same argv run in-process
through cycred.cli.main; the child must exit 0 and print exactly that, and a
`closure` child must write exactly the file the in-process run wrote.  That
file is removed before each `closure` child, so a child that writes nothing
fails.
"""

import contextlib
import hashlib
import io
import os
import random
import statistics
import sys

from harness import clock, wall_ms
import inputs

INVOCATIONS = 400      # pre-generated; a run stops early when time runs out
SUBCOMMANDS = ("cprod", "puzo", "classify", "latin", "reduce", "closure-query", "closure")
INPROC_REPS = 5


def _argv(sub, rng, files, pair):
    names = "xyzt"
    if sub in ("cprod", "puzo", "classify"):
        u, v = (inputs.compact(w, names) for w in pair)
        head = ["--json"] if sub == "puzo" else []
        return head + [sub, u, v]
    if sub == "latin":
        u = inputs.compact(inputs.rand_reduced(rng, rng.randint(2, 8), 4), names)
        w = inputs.compact(inputs.rand_reduced(rng, rng.randint(2, 8), 4), names)
        return ["latin", u, w, "--count", str(rng.randint(1, 4))]
    if sub == "reduce":
        return ["reduce", inputs.compact(inputs.rand_word(rng, rng.randint(8, 24), 4), names)]
    if sub == "closure-query":
        word = inputs.compact(inputs.rand_word(rng, rng.randint(1, 8), 2), "xy")
        return ["closure-query", "--set", files["set"], word]
    return ["closure", "--relators", files["relators"], "--maxlen", "3",
            "--rounds", "10", "--out", files["out"]]


def inproc(cli, argv):
    """stdout and exit code of cycred.cli.main(argv) run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return buf.getvalue(), code


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _remove(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def setup(cy, cli, seed, workdir, count=INVOCATIONS):
    files = {"relators": os.path.join(workdir, "relators.txt"),
             "set": os.path.join(workdir, "xy_y_maxlen4.txt"),
             "out": os.path.join(workdir, "closure_out.txt")}
    with open(files["relators"], "w", encoding="ascii") as f:
        f.write("xy\ny\n")
    ab = cy.Alphabet("x", "y")
    rels = [cy.parse_compact("xy", ab), cy.parse_compact("y", ab)]
    cy.closure.save(cy.closure.run(cy.closure.seed(rels, cy.closure.ClosureConfig(4, 10))),
                    files["set"])
    rng = random.Random("cli-%d" % seed)
    pairs = inputs.make_pairs(cy, rng, "short", count)
    mix = []
    while len(mix) < count:     # each block of seven has every subcommand once
        block = list(SUBCOMMANDS)
        rng.shuffle(block)
        mix.extend(block)
    runs, expected = [], {}
    for sub, p in zip(mix, pairs):
        argv = _argv(sub, rng, files, (_letters(p.u), _letters(p.v)))
        key = tuple(argv)
        if key not in expected:
            out, code = inproc(cli, argv)
            digest = _digest(files["out"]) if sub == "closure" else None
            expected[key] = (out, code, digest)
        runs.append((sub, argv))
    _remove(files["out"])
    return {"files": files, "runs": runs, "expected": expected}


def _letters(w):
    return tuple((l.generator, l.sign) for l in w.letters)


def run(data, tr, checks, env, budget_s, host, limit=None):
    """Closed loop over the invocation list: (subcommand, start, end, wall
    ns) per invocation.  `host` is sampled by hand between invocations,
    never while a child runs."""
    lat = []
    stop = clock() + int(budget_s * 1e9)
    todo = data["runs"] if limit is None else data["runs"][:limit]
    for i, (sub, argv) in enumerate(todo):
        if limit is None and i >= len(SUBCOMMANDS) and clock() > stop:
            break
        want, want_code, want_file = data["expected"][tuple(argv)]
        out_path = data["files"]["out"]
        if want_file is not None:
            _remove(out_path)
        host.sample()
        with tr.span("cli.invocation", i):
            t0 = clock()
            _, code, out = tr.call("cli." + sub, wall_ms,
                                   [sys.executable, "-m", "cycred.cli"] + argv, env)
            t1 = clock()
        ok = code == want_code == 0 and out == want
        if ok and want_file is not None:
            ok = os.path.exists(out_path) and _digest(out_path) == want_file
        checks.op(ok, "cli %d %s: exit %d" % (i, " ".join(argv), code))
        lat.append((sub, t0, t1, t1 - t0))
    return lat


def inproc_us(cli, data):
    """cycred.cli.main in-process with stdout captured, per subcommand: the
    first argv of each kind, median of INPROC_REPS runs."""
    first = {}
    for sub, argv in data["runs"]:
        first.setdefault(sub, argv)
    out = {}
    for sub, argv in first.items():
        times = []
        for _ in range(INPROC_REPS):
            t0 = clock()
            inproc(cli, argv)
            times.append((clock() - t0) / 1e3)
        out["cli.main_inproc_us.%s" % sub] = statistics.median(times)
    return out
