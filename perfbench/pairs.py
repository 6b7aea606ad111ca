"""The `pairs` workload: the witness pipeline of a library user, per pair.

Every library call of the pipeline goes through tr.call, so the traced run
gets one span per call under a span per pair; the untraced run passes a
NullTracer whose call adds one Python call per library call.
"""

import random
import statistics

from harness import NullTracer, clock, peak_rss_mb, rss_mb
import inputs

SHORT_PAIRS = 2400      # pre-generated; a run stops early when time runs out
LONG_PAIRS = 20
COUNTED = {"short": 300, "long": 4}   # exact counts cover these first pairs
SHORT_SHARE = 0.3       # of --seconds; the long band gets the rest
REFERENCE = {"long": 3, "short": 90}   # the fixed reference batch

SPAN_GROUPS = {
    "words.canonical_rotation": ("words.canonical_rotation",),
    "words.cyclic_shift_between": ("words.cyclic_shift_between",),
    "reduction.cyc_product": ("reduction.cyc_product",),
    "reduction.cancel_any_order": ("reduction.cancel_any_order",),
    "reduction.trace_transport": ("reduction.rotate_trace", "reduction.replay_trace"),
    "structure.classify_shirv": ("structure.classify_shirv",),
    "structure.shirv4_decompose": ("structure.shirv4_decompose",),
    "structure.puzo_witness": ("structure.puzo_witness",),
    "identities.collapse_schedule": ("identities.collapse_schedule",),
    "identities.execute": ("identities.collapse_element", "identities.execute"),
    "identities.psi": ("identities.psi",),
    "latin.latin_pairs": ("latin.latin_pairs",),
}


def setup(cy, seed, short=SHORT_PAIRS, long=LONG_PAIRS):
    rng = random.Random("pairs-%d" % seed)
    return {"short": inputs.make_pairs(cy, rng, "short", short),
            "long": inputs.make_pairs(cy, rng, "long", long)}


def pipeline(cy, p, tr):
    c = tr.call
    uv = c("reduction.cyc_product", cy.cyc_product, p.u, p.v)
    vu = c("reduction.cyc_product", cy.cyc_product, p.v, p.u)
    shift = c("words.cyclic_shift_between", cy.cyclic_shift_between, uv, vu)
    case = c("structure.classify_shirv", cy.classify_shirv, p.u, p.v)
    wit = c("structure.shirv4_decompose", cy.shirv4_decompose, p.u, p.v, p.d)
    rep = c("structure.puzo_witness", cy.puzo_witness, p.u, p.v)
    sched = c("identities.collapse_schedule", cy.collapse_schedule, rep.collapse_input)
    elem = c("identities.collapse_element", cy.collapse_element, rep.collapse_input)
    final = c("identities.execute", cy.execute, elem, sched)
    ident = c("identities.psi", cy.psi, rep.identity)
    moved = c("reduction.rotate_trace", cy.rotate_trace, rep.uv_trace, len(p.v))
    residual = c("reduction.replay_trace", cy.replay_trace, p.vu, moved)
    anyorder = c("reduction.cancel_any_order", cy.cancel_any_order, p.uv, p.chooser)
    canon = c("words.canonical_rotation", cy.canonical_rotation, p.m)
    latin = c("latin.latin_pairs", cy.latin_pairs, p.u, p.m, 4)
    return (uv, vu, shift, case, wit, rep, sched, final, ident, residual,
            anyorder, canon, latin)


def _rotation_witness_ok(cy, u, v, d, wit):
    # the equations of the rotation-pair decomposition acceptance test
    cat, inv, shift = cy.concat, cy.inverse, cy.cyclic_shift_between
    m = cy.cyc_product(u, v)
    covers = ((shift(u, wit.p), shift(v, wit.q)), (shift(v, wit.p), shift(u, wit.q)))
    if not any(None not in c for c in covers):
        return False
    if isinstance(wit, cy.Shirv4CaseA):
        return (wit.q == cat(inv(wit.p), cat(wit.r, cat(wit.c1, cat(wit.c2, inv(wit.r)))))
                and m == cat(wit.c1, wit.c2) and cy.cyc_product(wit.p, wit.q) == m
                and d == cat(wit.c2, wit.c1))
    if wit.mirrored:
        ok = wit.p == cat(wit.b, wit.e2) and wit.q == cat(wit.e3, cat(wit.e1, inv(wit.b)))
    else:
        ok = wit.p == cat(wit.e2, wit.b) and wit.q == cat(inv(wit.b), cat(wit.e3, wit.e1))
    got = cy.cyc_product(wit.p, wit.q) if wit.order == "pq" else cy.cyc_product(wit.q, wit.p)
    return (ok and d == cat(wit.e1, cat(wit.e2, wit.e3)) and len(wit.e2) > 0
            and len(wit.e3) + len(wit.e1) > 0 and got == m)


def naive_least_rotation(cy, w):
    keys = [cy.letter_key(l) for l in w.letters]
    best = min(range(len(keys)), key=lambda k: keys[k:] + keys[:k])
    return cy.Word(w.alphabet, w.letters[best:] + w.letters[:best]), best


def check(cy, p, out):
    """The failed equations of one pipeline result, by name."""
    (uv, vu, shift, case, wit, rep, sched, final, ident, residual,
     anyorder, canon, latin) = out
    cat, inv, rot = cy.concat, cy.inverse, cy.rotate
    bad = []
    if uv != p.m or cy.rotate(uv, shift) != vu or rep.shift != shift:
        bad.append("product rotation")
    if case.case != p.case:
        bad.append("case")
    elif case.case == 1:
        if p.u != cat(case.u1, case.a) or p.v != cat(inv(case.a), cat(
                case.s, cat(p.m, cat(inv(case.s), inv(case.u1))))):
            bad.append("case 1 fields")
    elif case.case == 2:
        if (p.m != cat(case.c1, case.c2) or p.u != cat(case.t, cat(case.c1, case.a))
                or p.v != cat(inv(case.a), cat(case.c2, inv(case.t)))):
            bad.append("case 2 fields")
    elif (p.v != cat(inv(case.a), case.v1)
          or p.u != cat(inv(case.v1), cat(case.s, cat(p.m, cat(inv(case.s), case.a))))):
        bad.append("case 3 fields")
    if not _rotation_witness_ok(cy, p.u, p.v, p.d, wit):
        bad.append("shirv4 witness")
    if ident != p.u.alphabet.empty() or rep.perm_terms not in (frozenset((1, 3)), frozenset((2, 4))):
        bad.append("identity")
    elif not all(cy.is_cyclic_perm_term(*rep.identity.terms[i - 1]) for i in rep.perm_terms):
        bad.append("perm terms")
    if len(sched) != 2 * rep.collapse_input.n + 3 or not final.is_trivial:
        bad.append("collapse")
    if cy.cyclic_shift_between(vu, residual) is None:
        bad.append("trace transport")
    if cy.cyclic_shift_between(anyorder[0], p.m) is None:
        bad.append("cancel_any_order")
    if tuple(canon) != naive_least_rotation(cy, p.m):
        bad.append("canonical_rotation")
    if (len(latin) != 4 or len({lp.v for lp in latin}) != 4 or not all(
            cy.is_cyclically_reduced(lp.v) and lp.v_prime == rot(lp.v, len(p.u))
            and cy.cyc_product(p.u, lp.v) == p.m and cy.cyc_product(lp.v_prime, p.u) == p.m
            for lp in latin)):
        bad.append("latin pairs")
    return bad


def counts(outs_by_band):
    """Exact counts over the first COUNTED pairs of each band."""
    letters = events = ops = 0
    cases = {"1": 0, "2": 0, "3": 0}
    for band, items in outs_by_band.items():
        for p, out in items[:COUNTED[band]]:
            letters += 2 * (len(p.u) + len(p.v))
            events += len(out[10][1].events)
            cases[str(out[3].case)] += 1
            ops += len(out[6])
    return {"reduction.letters": letters, "reduction.cancel_events": events,
            "structure.cases": cases, "identities.ops": ops}


def reference(cy, checks):
    """The fixed reference batch, the same on every run, every output
    checked: the growth of the peak RSS, in MB, while the witnesses of its
    long pairs (one per case) are computed and held, and the exact counts
    of the whole batch."""
    rng = random.Random("pairs-reference")
    batch = {b: inputs.make_pairs(cy, rng, b, n) for b, n in REFERENCE.items()}
    rss0 = rss_mb()
    outs = {"long": [(p, pipeline(cy, p, NullTracer())) for p in batch["long"]]}
    grew = peak_rss_mb() - rss0
    outs["short"] = [(p, pipeline(cy, p, NullTracer())) for p in batch["short"]]
    for band, items in outs.items():
        for i, (p, out) in enumerate(items):
            bad = check(cy, p, out)
            checks.op(not bad, "reference %s pair %d: %s" % (band, i, ", ".join(bad)))
    return grew, counts(outs)


def run(cy, pairs, tr, checks, budget_s, host, limits=None):
    """Time the pipeline on both bands, interleaved so that each band keeps
    its share of the elapsed time all through the run; a slow spell of the
    host then touches both bands alike.  Stops when the budget is spent and
    each band has run its COUNTED pairs, or, given `limits`, after exactly
    that many pairs per band.  Returns per band the (start, end, ns) of
    each pair, ns leaving out the time `host` spent sampling, the outputs
    kept for counting, and how many pairs each band ran."""
    shares = {"short": SHORT_SHARE, "long": 1 - SHORT_SHARE}
    todo = {b: pairs[b] if limits is None else pairs[b][:limits[b]] for b in shares}
    lat = {b: [] for b in shares}
    kept = {b: [] for b in shares}
    used = dict.fromkeys(shares, 0)
    nxt = dict.fromkeys(shares, 0)
    stop = clock() + int(budget_s * 1e9)
    while True:
        now = clock()
        bands = [b for b in shares if nxt[b] < len(todo[b])
                 and (limits is not None or nxt[b] < COUNTED[b] or now < stop)]
        if not bands:
            break
        band = min(bands, key=lambda b: used[b] / shares[b])
        i = nxt[band]
        nxt[band] += 1
        p = todo[band][i]
        with tr.span("pair", "%s-%d" % (band, i)):
            t0, s0 = clock(), host.spent_ns
            try:
                out = pipeline(cy, p, tr)
            except Exception as exc:   # a failed pair counts, the run goes on
                checks.op(False, "%s pair %d raised %r" % (band, i, exc))
                continue
            t1 = clock()
            lat[band].append((t0, t1, t1 - t0 - (host.spent_ns - s0)))
        bad = check(cy, p, out)
        checks.op(not bad, "%s pair %d: %s" % (band, i, ", ".join(bad)))
        if i < COUNTED[band]:
            kept[band].append((p, out))
        used[band] += clock() - now
    return lat, kept, {b: len(lat[b]) for b in shares}


def layer_metrics(tracer):
    """Median over pairs of each call group's time per pair, by band."""
    per_req = tracer.children_by_request()
    out = {}
    for group, names in SPAN_GROUPS.items():
        for band in ("short", "long"):
            vals = [sum(d.get(n, 0) for n in names) / 1e3
                    for ident, d in per_req.items() if ident.startswith(band + "-")]
            if vals:
                out["%s.%s_us" % (group, band)] = statistics.median(vals)
    return out
