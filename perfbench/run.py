"""Layered benchmark for cycred.

    python3 perfbench/run.py --workload {closure,pairs,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  The
report lines name every metric with its unit; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) of BENCHMARK.json.
A full record, with the environment, is written under perfbench/out/.
The exit code is 1 when any output was wrong, 2 when the checkout has no
library to measure.  See perfbench/README.md for the metrics and why each
workload exists.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

from harness import (OUT, ROOT, SRC, Checks, HostSpeed, NullTracer, Tracer, child_env,
                     clock, fresh_import, git_commit, loadavg, median_wall_ms, peak_rss_mb,
                     rss_mb, summary)
import cli_wl
import closure_wl
import pairs

SETUP_REPS = 3
START_REPS = 5
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")


class Run:
    """What one run measured, checked and counted."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.checks = Checks()
        self.host = HostSpeed()
        self.report = {}       # name -> (value, unit), in report order
        self.slots = {}        # the end-to-end metrics, at reference host speed
        self.counts = {}
        self.tracer = None
        self.sweep_cli = None   # (cli module, cli inputs) of a traced cli run
        with open(EXPECTED) as f:
            self.expected = json.load(f)

    def put(self, name, value, unit):
        self.report[name] = (value, unit)

    def timed_setup(self, make):
        """SETUP_REPS set-ups, each importing cycred afresh and generating
        the inputs and fixture files; the last one's result is used."""
        raw, scaled = [], []
        for _ in range(SETUP_REPS):
            s0, t0 = self.host.spent_ns, clock()
            got = make()
            t1 = clock()
            dt = (t1 - t0 - (self.host.spent_ns - s0)) / 1e9
            raw.append(dt)
            scaled.append(dt * self.host.scale(t0, t1))
        self.put("setup_wall_s", statistics.median(raw), "s")
        self.slots["setup_s"] = statistics.median(scaled)
        # The inputs live until the end; keep the collector from rescanning
        # them inside measured calls.
        gc.collect()
        gc.freeze()
        return got

    def put_overhead(self, plain, traced):
        """The untraced and traced passes over the same work, each as a list
        of (start, end, ns) spans: their ratio and difference at reference
        host speed, so that the host drifting between the passes does not
        show."""
        a, b = (sum(self.host.scaled(spans)) for spans in (plain, traced))
        self.put("trace.overhead_ratio", b / a, "ratio")
        self.put("trace.overhead_ms", (b - a) / 1e6, "ms")


# closure ---------------------------------------------------------------------

def enumerate6(r, cy, rels, path, tr):
    """The maxlen 6 enumeration, checked against the pinned file and counts."""
    exp = r.expected["closure"]
    t0 = clock()
    ns, s6, seen = closure_wl.enumerate_set(cy, rels, closure_wl.MAXLEN, path, tr, r.host,
                                            keep_round=4)
    r.checks.op(closure_wl.sha256_file(path) == exp["maxlen6_sha256"]
                and (s6.rounds_done, len(s6.members)) == (exp["rounds"], exp["members"]),
                "maxlen 6 closure: saved file or counts differ from the pinned ones")
    return {"ns6": ns, "s6": s6, "seen6": seen, "span6": (t0, clock(), ns)}


def closure_body(r, cy, data, p6, tr):
    """Provenance and query on the saved maxlen 6 set, each checked; what
    each phase took."""
    exp, host = r.expected["closure"], r.host
    p4 = os.path.join(r.workdir, "xy_y_maxlen4.txt")
    got = {}
    t_body, s_body = clock(), host.spent_ns
    got["ns4"], s4, got["seen4"] = closure_wl.enumerate_set(
        cy, data["relators"], closure_wl.PROV_MAXLEN, p4, tr, host, provenance=True)
    r.checks.op(closure_wl.sha256_file(p4) == exp["maxlen4_sha256"]
                and closure_wl.provenance_ok(cy, s4),
                "maxlen 4 closure with provenance: saved file or psi(h) == member fails")
    with tr.span("closure.query", "query"):
        t0, s0 = clock(), host.spent_ns
        state = tr.call("closure.load", cy.closure.load, p6)
        got["load_ns"] = clock() - t0 - (host.spent_ns - s0)
        got["lat"], passes = [], []
        for _ in range(closure_wl.QUERY_PASSES):
            lat, answers = closure_wl.query(cy, state, data["queries"], tr, host)
            got["lat"] += lat
            passes.append(answers)
    got["answers"] = passes[0]
    t_end = clock()
    got["pass"] = (t_body, t_end, t_end - t_body - (host.spent_ns - s_body))
    members = closure_wl.members_from_file(p6)
    r.checks.op(closure_wl.member_keys(state) == members,
                "load: members differ from the saved file")
    r.checks.op(all(a == passes[0] for a in passes), "query passes answered differently")
    for w, ans in zip(data["queries"], got["answers"]):
        want = closure_wl.oracle_answer(members, [(l.generator, l.sign) for l in w.letters],
                                        closure_wl.MAXLEN)
        r.checks.op(ans == want, "contains(%r) answered %s, oracle %s" % (w, ans, want))
    ref = closure_wl.query(cy, state, data["reference"], NullTracer(), host)[1]
    r.checks.op(closure_wl.answers_digest(ref) == exp["reference_answers_sha256"],
                "reference query answers differ from the pinned digest")
    return got


def run_closure(r):
    # The enumeration runs first, before the set-up builds the query words,
    # so that the growth of the peak RSS over it is the library's alone.
    cy, = fresh_import("cycred")
    p6 = os.path.join(r.workdir, "xy_y_maxlen6.txt")
    rss0 = rss_mb()
    enum = enumerate6(r, cy, closure_wl.relators(cy)[1], p6, NullTracer())
    r.put("peak_rss_mb", peak_rss_mb() - rss0, "MB")

    def make():
        cy, = fresh_import("cycred")
        return cy, closure_wl.setup(cy, r.args.seed)

    cy, data = r.timed_setup(make)
    got = closure_body(r, cy, data, p6, NullTracer())
    q = summary([ns for _, _, ns in got["lat"]])
    qs = summary(r.host.scaled(got["lat"]))
    r.put("closure_s", enum["ns6"] / 1e9, "s")
    r.put("closure_prov_s", got["ns4"] / 1e9, "s")
    r.put("query_p50_us", q["p50"] / 1e3, "us")
    r.put("query_p99_us", q["p99"] / 1e3, "us")
    r.put("query_n", q["n"], "count")
    r.put("query_inside", sum(a[0] == "1" for a in got["answers"]), "count")
    r.put("closure.load_ms", got["load_ns"] / 1e6, "ms")
    r.counts.update({"closure.rounds": enum["s6"].rounds_done,
                     "closure.members": len(enum["s6"].members)})
    r.put("query_p99_scaled_us", qs["p99"] / 1e3, "us")
    r.slots.update(p50_ms=qs["p50"] / 1e6, heavy_s=r.host.scaled([enum["span6"]])[0] / 1e9)
    if r.args.trace:
        r.tracer = Tracer()
        tenum = enumerate6(r, cy, data["relators"], p6, r.tracer)
        tgot = closure_body(r, cy, data, p6, r.tracer)
        r.put_overhead([enum["span6"], got["pass"]], [tenum["span6"], tgot["pass"]])
        closure_layers(r, cy, dict(tgot, **tenum))


def closure_layers(r, cy, got):
    exp = r.expected["closure"]
    tr = r.tracer
    rounds6, rounds4 = got["seen6"]["rounds"], got["seen4"]["rounds"]
    step_ns = sum(t for t, _, _ in rounds6)
    fp6 = got["seen6"]["frontier_pairs"]
    members = len(got["s6"].members)
    new = sum(fresh for _, _, fresh in rounds6)
    r.put("closure.seed_ms", tr.durations("closure.seed")[0] / 1e6, "ms")
    r.put("closure.step_s", step_ns / 1e9, "s")
    r.put("closure.step_max_s", max(t for t, _, _ in rounds6) / 1e9, "s")
    r.put("closure.save_ms", tr.durations("closure.save")[0] / 1e6, "ms")
    r.put("closure.load_ms", tr.durations("closure.load")[0] / 1e6, "ms")
    r.put("closure.rounds", len(rounds6), "count")
    r.put("closure.members", members, "count")
    r.put("closure.frontier_pairs", fp6, "count")
    r.put("closure.us_per_frontier_pair", step_ns / 1e3 / fp6, "us")
    r.put("closure.new_per_frontier_pair", new / fp6, "ratio")
    prov_ns = sum(t for t, _, _ in rounds4)
    r.put("closure_prov.step_s", prov_ns / 1e9, "s")
    r.put("closure_prov.us_per_frontier_pair", prov_ns / 1e3 / got["seen4"]["frontier_pairs"], "us")
    r.checks.op(fp6 == exp["frontier_pairs"], "frontier pairs differ from the pinned count")
    r.counts["closure.frontier_pairs"] = fp6
    fixture = cy.closure.load(closure_wl.ROUND4_FIXTURE)
    kept = got["seen6"]["kept"]
    r.checks.op(kept is not None
                and (kept.members, kept.frontier) == (fixture.members, fixture.frontier),
                "round 4 state differs from the probe fixture")


# pairs -----------------------------------------------------------------------

def run_pairs(r):
    # The reference batch runs first, before the set-up builds the pairs, so
    # that the growth of the peak RSS over it is the library's alone.
    cy, = fresh_import("cycred")
    grew, ref = pairs.reference(cy, r.checks)
    r.put("peak_rss_mb", grew, "MB")
    r.checks.op(ref == r.expected["pairs"],
                "reference batch counts %r differ from the pinned ones" % (ref,))

    def make():
        cy, = fresh_import("cycred")
        return cy, pairs.setup(cy, r.args.seed)

    cy, data = r.timed_setup(make)
    budget = r.args.seconds / 2 if r.args.trace else r.args.seconds
    t0, s0 = clock(), r.host.spent_ns
    lat, kept, done = pairs.run(cy, data, NullTracer(), r.checks, budget, r.host)
    t1 = clock()
    plain = (t0, t1, t1 - t0 - (r.host.spent_ns - s0))
    short, long_ = (summary([ns for _, _, ns in lat[b]]) for b in ("short", "long"))
    r.put("pair_short_p50_ms", short["p50"] / 1e6, "ms")
    r.put("pair_short_p99_ms", short["p99"] / 1e6, "ms")
    r.put("pair_short_n", short["n"], "count")
    r.put("pair_long_p50_ms", long_["p50"] / 1e6, "ms")
    r.put("pair_long_n", long_["n"], "count")
    if long_["top_p"] is not None:
        r.put("pair_long_p%d_ms" % long_["top_p"], long_["top_value"] / 1e6, "ms")
    counts = pairs.counts(kept)
    r.counts.update(counts)
    short_s, long_s = summary(r.host.scaled(lat["short"])), summary(r.host.scaled(lat["long"]))
    r.put("pair_short_p99_scaled_ms", short_s["p99"] / 1e6, "ms")
    r.slots.update(p50_ms=short_s["p50"] / 1e6, heavy_s=long_s["p50"] / 1e9)
    if r.args.trace:
        r.tracer = Tracer()
        t0, s0 = clock(), r.host.spent_ns
        _, tkept, _ = pairs.run(cy, data, r.tracer, r.checks, budget, r.host, limits=done)
        t1 = clock()
        r.put_overhead([plain], [(t0, t1, t1 - t0 - (r.host.spent_ns - s0))])
        r.checks.op(pairs.counts(tkept) == counts, "traced pass counted differently")
        for k, v in pairs.layer_metrics(r.tracer).items():
            r.put(k, v, "us")


# cli -------------------------------------------------------------------------

def run_cli(r):
    def make():
        cy, cli = fresh_import("cycred", "cycred.cli")
        return cli, cli_wl.setup(cy, cli, r.args.seed, r.workdir)

    cli, data = r.timed_setup(make)
    r.host.stop()      # from here on the host is sampled between children
    env = child_env()
    budget = r.args.seconds / 2 if r.args.trace else r.args.seconds
    t0 = clock()
    lat = cli_wl.run(data, NullTracer(), r.checks, env, budget, r.host)
    t1 = clock()
    plain = (t0, t1, t1 - t0)
    r.put("peak_rss_mb", peak_rss_mb(children=True), "MB")
    allms = summary([ns / 1e6 for _, _, _, ns in lat])
    r.put("cli_p50_ms", allms["p50"], "ms")
    r.put("cli_p90_ms", allms["p90"], "ms")
    r.put("cli_n", allms["n"], "count")
    for sub in cli_wl.SUBCOMMANDS:
        r.put("cli.%s_ms" % sub, statistics.median(ns / 1e6 for s, _, _, ns in lat if s == sub), "ms")
    scaled = r.host.scaled([op[1:] for op in lat])
    alls = summary(scaled)
    r.put("cli_p90_scaled_ms", alls["p90"] / 1e6, "ms")
    r.slots.update(p50_ms=alls["p50"] / 1e6,
                   heavy_s=statistics.median(ns for op, ns in zip(lat, scaled)
                                             if op[0] == "closure") / 1e9)
    if r.args.trace:
        r.tracer = Tracer()
        t0 = clock()
        cli_wl.run(data, r.tracer, r.checks, env, budget, r.host, limit=len(lat))
        t1 = clock()
        r.put_overhead([plain], [(t0, t1, t1 - t0)])
        r.sweep_cli = (cli, data)


# The layer sweep.  Every traced run reports every per-layer metric of
# BENCHMARK.json: what the workload's own traced body did not measure is
# measured here, on small inputs from the same seed.

SWEEP_SHORT, SWEEP_LONG = 30, 2


def sweep(r):
    seed, host = r.args.seed, r.host
    cy = sys.modules["cycred"]
    if "words.canonical_rotation.long_us" not in r.report:
        data = pairs.setup(cy, seed, SWEEP_SHORT, SWEEP_LONG)
        tr = Tracer()
        pairs.run(cy, data, tr, r.checks, 0, host, limits={"short": SWEEP_SHORT, "long": SWEEP_LONG})
        for k, v in pairs.layer_metrics(tr).items():
            r.put(k, v, "us")
    if "closure_prov.step_s" not in r.report:
        _, rels = closure_wl.relators(cy)
        path = os.path.join(r.workdir, "sweep_maxlen4.txt")
        _, s4, seen = closure_wl.enumerate_set(cy, rels, closure_wl.PROV_MAXLEN, path, Tracer(),
                                               host, provenance=True)
        r.checks.op(closure_wl.provenance_ok(cy, s4), "sweep: psi(h) == member fails")
        ns = sum(t for t, _, _ in seen["rounds"])
        r.put("closure_prov.step_s", ns / 1e9, "s")
        r.put("closure_prov.us_per_frontier_pair", ns / 1e3 / seen["frontier_pairs"], "us")
    if "closure.load_ms" not in r.report:
        r.put("closure.load_ms", closure_wl.load_ms(cy, closure_wl.ROUND4_FIXTURE)[0], "ms")
    fixture = cy.closure.load(closure_wl.ROUND4_FIXTURE)
    for k, v in closure_wl.probes(cy, fixture, seed).items():
        r.put(k, v, "ns")
    r.put("syntax.roundtrip_us", closure_wl.syntax_roundtrip_us(cy, fixture), "us")
    r.put("cli.import_ms", median_wall_ms([sys.executable, "-c", "import cycred.cli"],
                                          child_env(), START_REPS), "ms")
    if r.sweep_cli is not None:
        cli, data = r.sweep_cli
    else:
        cy, cli = fresh_import("cycred", "cycred.cli")
        data = cli_wl.setup(cy, cli, seed, r.workdir, count=len(cli_wl.SUBCOMMANDS))
    for k, v in cli_wl.inproc_us(cli, data).items():
        r.put(k, v, "us")


# -----------------------------------------------------------------------------

RUNNERS = {"closure": run_closure, "pairs": run_pairs, "cli": run_cli}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of the pairs and cli loops")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cycred", "__init__.py")):
        print("error: no cycred package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    load_start = loadavg()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    r = Run(args, workdir)
    try:
        r.host.start()
        RUNNERS[args.workload](r)
        r.host.stop()
        if args.trace:
            sweep(r)
        r.put("host.slowdown", r.host.slowdown(), "ratio")
        r.put("cli.python_start_ms", median_wall_ms([sys.executable, "-c", "pass"],
                                                    child_env(), START_REPS), "ms")
    finally:
        r.host.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    r.put("ops", r.checks.ops, "count")
    r.put("ops_failed", r.checks.failed, "count")
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": git_commit(), "loadavg_start": load_start, "loadavg_end": loadavg()}

    values = {k: v for k, (v, _) in r.report.items()}
    values.update(r.slots)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for m in wanted:
        if m["name"] not in values:
            r.checks.fail("metric %s was not measured" % m["name"])
    correct = r.checks.failed == 0

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "failures": r.checks.messages, "counts": r.counts,
              "report": {k: {"value": v, "unit": u} for k, (v, u) in r.report.items()},
              "metrics": metrics}
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if r.tracer is not None:
        with open(os.path.join(OUT, stem + ".spans.json"), "w") as f:
            json.dump(r.tracer.records(), f)

    print("workload %s  seed %d  trace %d  python %s  nproc %s  commit %s"
          % (args.workload, args.seed, args.trace, env["python"], env["nproc"], env["commit"]))
    print("loadavg %s -> %s" % (" ".join(load_start or ()), " ".join(env["loadavg_end"] or ())))
    for name, (value, unit) in r.report.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in r.slots.items():
        print("%-40s %14.6g %s  (at reference host speed)" % (name, value, units[name]))
    for msg in r.checks.messages:
        print("FAILED: %s" % msg)
    print(json.dumps({"correct": correct, "attempted": r.checks.ops,
                      "failed": r.checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
