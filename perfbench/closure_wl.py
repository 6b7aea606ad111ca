"""The `closure` workload: enumerate, enumerate with provenance, query.

Enumerate: relators xy and y over {x, y}, maxlen 6, canonical dedup, run to
saturation, save.  Provenance: the same relators at maxlen 4 with
track_provenance.  Query: load the saved set and time single `contains`
calls on seeded words of 1-12 letters, QUERY_PASSES times over, so that
the latencies come from a few seconds of the host rather than half of one.
"""

import hashlib
import os
import random
import statistics

from harness import ROOT, NullTracer, clock
import inputs

MAXLEN, PROV_MAXLEN, MAX_ROUNDS = 6, 4, 64
QUERIES, QUERY_PASSES, REFERENCE_QUERIES = 20000, 10, 2000
ROUND4_FIXTURE = os.path.join(ROOT, "perfbench", "data", "xy_y_maxlen6_round4.txt")
PROBE_PAIRS, PROBE_REPS = 20000, 3


def relators(cy):
    ab = cy.Alphabet("x", "y")
    return ab, [cy.parse_compact("xy", ab), cy.parse_compact("y", ab)]


def setup(cy, seed):
    ab, rels = relators(cy)
    queries = [ab.word(q) for q in inputs.query_letters(random.Random("query-%d" % seed), QUERIES)]
    reference = [ab.word(q) for q in inputs.query_letters(random.Random("query-reference"),
                                                          REFERENCE_QUERIES)]
    return {"relators": rels, "queries": queries, "reference": reference}


def word_key(cy, w):
    return len(w), [cy.letter_key(l) for l in w.letters]


def frontier_pairs(s):
    m, f = len(s.members), len(s.frontier)
    return m * m - (m - f) * (m - f)


def enumerate_set(cy, rels, maxlen, path, tr, host, provenance=False, keep_round=None):
    """seed, rounds to saturation, save; wall ns (less the time `host`
    spent sampling) and what the trace saw.

    Untraced it calls closure.run as a user would; traced it calls
    closure.step round by round, which is what run does, to time each round.
    """
    cl = cy.closure
    cfg = cl.ClosureConfig(maxlen, MAX_ROUNDS)
    seen = {"rounds": [], "frontier_pairs": 0, "kept": None}
    t0, s0 = clock(), host.spent_ns
    with tr.span("closure.enumerate", "maxlen%d" % maxlen):
        s = tr.call("closure.seed", lambda: cl.seed(rels, cfg, track_provenance=provenance))
        if isinstance(tr, NullTracer):
            s = cl.run(s)
        else:
            while not s.saturated and s.rounds_done < MAX_ROUNDS:
                fp = frontier_pairs(s)
                t, st = clock(), host.spent_ns
                s = tr.call("closure.step", cl.step, s)
                seen["rounds"].append((clock() - t - (host.spent_ns - st), fp, len(s.frontier)))
                seen["frontier_pairs"] += fp
                if s.rounds_done == keep_round:
                    seen["kept"] = s
        tr.call("closure.save", cl.save, s, path)
    return clock() - t0 - (host.spent_ns - s0), s, seen


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def query(cy, state, words, tr, host):
    """(start, end, ns) of each `contains` call, and the answers."""
    contains, call = cy.closure.contains, tr.call
    lat, answers = [], []
    for w in words:
        t0, s0 = clock(), host.spent_ns
        r = call("closure.contains", contains, state, w)
        t1 = clock()
        lat.append((t0, t1, t1 - t0 - (host.spent_ns - s0)))
        answers.append("%d%d" % (r.found, r.over_cap))
    return lat, answers


def answers_digest(answers):
    return hashlib.sha256("".join(answers).encode()).hexdigest()


# An oracle for `contains` that shares no code with the library: free and
# cyclic reduction on plain tuples, least rotation by trying every shift, and
# the member list read straight from the saved file.

def _key(g, s):
    return 2 * g + (0 if s > 0 else 1)


def members_from_file(path):
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    names = dict(tok.partition("=")[::2] for tok in lines[0].split()[2:])["alphabet"].split(",")
    members = set()
    for ln in lines[1:lines.index("#frontier")]:
        members.add(tuple(_key(names.index(ch.lower()), 1 if ch.islower() else -1) for ch in ln))
    return members


def member_keys(state):
    """A loaded set's members in the form members_from_file gives."""
    return {tuple(_key(l.generator, l.sign) for l in w.letters) for w in state.members}


def oracle_answer(members, letters, maxlen):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    lo, hi = 0, len(stack)
    while hi - lo >= 2 and stack[lo] == (stack[hi - 1][0], -stack[hi - 1][1]):
        lo, hi = lo + 1, hi - 1
    core = [_key(g, s) for g, s in stack[lo:hi]]
    over = len(core) > maxlen
    if not core:
        return "0%d" % over
    least = min(tuple(core[k:] + core[:k]) for k in range(len(core)))
    return "%d%d" % (least in members, over)


def provenance_ok(cy, state):
    return all(cy.psi(h) == w for w, h in state.provenance.items())


# Probes: the last round's rotation pairs (one factor in the round-4
# frontier), sampled with a seeded RNG and replayed through the public
# functions in tight loops, on closure-shaped words of at most 6 letters.

def probe_inputs(cy, state, seed):
    rng = random.Random("probe-%d" % seed)
    members = sorted(state.members, key=lambda w: word_key(cy, w))
    front = [w for w in members if w in state.frontier]
    out = []
    for _ in range(PROBE_PAIRS):
        x, y = rng.choice(front), rng.choice(members)
        if rng.random() < 0.5:
            x, y = y, x
        out.append((x, rng.randrange(len(x)), y, rng.randrange(len(y))))
    return out


def _per_call_ns(fn, args_list):
    best = []
    for _ in range(PROBE_REPS):
        t0 = clock()
        for args in args_list:
            fn(*args)
        best.append((clock() - t0) / len(args_list))
    return statistics.median(best)


def probes(cy, state, seed):
    sample = probe_inputs(cy, state, seed)
    rot = [(cy.rotate(x, i), cy.rotate(y, j)) for x, i, y, j in sample]
    cats = [(cy.concat(a, b),) for a, b in rot]
    cores = [(c,) for c in (cy.cyc_reduce(w)[0].core for (w,) in cats) if 0 < len(c) <= MAXLEN]
    return {
        "words.probe.rotate_ns": _per_call_ns(cy.rotate, [(x, i) for x, i, _, _ in sample]),
        "words.probe.concat_ns": _per_call_ns(cy.concat, rot),
        "reduction.probe.cyc_reduce_ns": _per_call_ns(cy.cyc_reduce, cats),
        "words.probe.canonical_rotation_ns": _per_call_ns(cy.canonical_rotation, cores),
    }


def syntax_roundtrip_us(cy, state):
    words = sorted(state.members, key=lambda w: word_key(cy, w))
    ab = state.alphabet
    per = []
    for _ in range(20):
        t0 = clock()
        for w in words:
            cy.parse_compact(cy.format_compact(w), ab)
        per.append((clock() - t0) / 1e3 / len(words))
    return statistics.median(per)


def load_ms(cy, path):
    t0 = clock()
    s = cy.closure.load(path)
    return (clock() - t0) / 1e6, s
