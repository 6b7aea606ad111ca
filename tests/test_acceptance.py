"""Acceptance suite: one test per library-level guarantee, all exact.

Every check is symbolic word equality, never approximate.  Random sampling
uses fixed seeds so failures reproduce.  The helper samplers live here
rather than in conftest because the sampling profile (alphabet sizes 2-4,
lengths 1-10) is part of what these tests pin down.
"""

import io
import itertools
import random

import pytest

from cycred import (Alphabet, ClosureConfig, CollapsehInput, Deletion,
                    ExchangeA, ExchangeB, HElement, Shirv4CaseA, Shirv4CaseB,
                    ShirvCase1, ShirvCase2, ShirvCase3, Word,
                    cancel_any_order, canonical_rotation, classify_shirv,
                    collapse_element, collapse_schedule, concat, conjugate,
                    cyc_product, cyc_reduce, cyclic_shift_between,
                    decompose_conjugate, execute, find_stabilizing_conjugator,
                    h_for_cyc_product, inverse, is_cyclic_perm_term,
                    is_cyclically_reduced, is_reduced, latin_pairs,
                    levi_split, max_cancellation, phi, power, psi,
                    puzo_witness, reduce, reduced_product, replay_trace,
                    reverse, rotate, rotate_trace, shirv4_decompose)
from cycred.identities import apply_op, apply_phi_op
from cycred import closure as cl
from cycred import POLICIES

import oracles
from conftest import (AB2, AB3, AB4, ALPHABETS, W, F, from_tuples, run_python,
                      to_tuples)


def _rand_reduced(rng, alphabet, length):
    pool = [(g, s) for g in range(len(alphabet)) for s in (1, -1)]
    out = []
    for _ in range(length):
        options = [l for l in pool if not out or l != (out[-1][0], -out[-1][1])]
        out.append(rng.choice(options))
    return alphabet.word(out)


def _rand_cyc_reduced(rng, alphabet, length):
    while True:
        w = _rand_reduced(rng, alphabet, length)
        if is_cyclically_reduced(w):
            return w


def _rand_word(rng, alphabet, length):
    pool = [(g, s) for g in range(len(alphabet)) for s in (1, -1)]
    return alphabet.word([rng.choice(pool) for _ in range(length)])


def _rand_pair(rng):
    alphabet = ALPHABETS[rng.choice((2, 3, 4))]
    u = _rand_reduced(rng, alphabet, rng.randint(1, 10))
    v = _rand_reduced(rng, alphabet, rng.randint(1, 10))
    return u, v


def _reduced_words_up_to(alphabet, max_len):
    pool = [(g, s) for g in range(len(alphabet)) for s in (1, -1)]
    frontier = [[]]
    for n in range(max_len + 1):
        for w in frontier:
            yield alphabet.word(w)
        frontier = [w + [l] for w in frontier for l in pool
                    if not w or l != (w[-1][0], -w[-1][1])]


def test_01_product_fixtures():
    """The worked product computations, reproduced letter for letter."""
    v, w = W("txy"), W("YzT")
    assert F(reduced_product(v, w)) == "txzT"
    assert F(cyc_product(v, w)) == "xz"

    dec, _ = cyc_reduce(W("xyzxYX"))
    assert F(dec.conjugator) == "xy" and F(dec.core) == "zx"

    assert F(cyc_product(cyc_product(W("xy"), W("X")), W("x"))) == "yx"
    assert F(cyc_product(W("xy"), cyc_product(W("X"), W("x")))) == "xy"

    assert F(cyc_reduce(W("xyxX"))[0].core) == "xy"
    assert F(cyc_reduce(W("xyxX"))[0].core) != "yx"

    word = W("xXyX")
    ext, _ = cancel_any_order(word, "external-first-when-valid")
    assert F(ext) == "Xy"
    internal, _ = cancel_any_order(word, "internal-first")
    assert F(internal) == "yX"
    assert internal == cyc_reduce(word)[0].core
    assert cyclic_shift_between(ext, internal) is not None

    # left-quotient exists, two-sided chain fails
    u, target = W("xy", AB2), W("yy", AB2)
    v2 = W("yX", AB2)
    assert cyc_product(v2, u) == target
    assert F(cyc_product(u, cyc_product(inverse(u), target))) == "xyXy"
    # right-quotient exists, two-sided chain fails
    u, target = W("xy", AB2), W("xx", AB2)
    v1 = W("Yx", AB2)
    assert cyc_product(u, v1) == target
    assert F(cyc_product(cyc_product(target, inverse(u)), u)) == "xYxy"
    # equal one-sided solutions that solve neither side
    u, target = W("yxy", AB2), W("yXy", AB2)
    v = W("XX", AB2)
    assert F(cyc_product(u, v)) == "yxyXX"
    assert F(cyc_product(v, u)) == "XXyxy"
    assert cyc_product(u, v) != target
    assert cyc_product(v, u) != target
    assert cyc_product(u, v) != cyc_product(v, u)


def test_02_product_rotation_reports():
    """10,000 random product pairs: the rotation shift, trace transport,
    trivial identity, flagged terms, and the full collapse run."""
    rng = random.Random(2002)
    done = 0
    while done < 10000:
        u, v = _rand_pair(rng)
        m = cyc_product(u, v)
        if not m:
            continue
        rep = puzo_witness(u, v)
        vu = cyc_product(v, u)
        assert rotate(m, rep.shift) == vu

        rotated = rotate_trace(rep.uv_trace, len(v))
        residual = replay_trace(concat(v, u), rotated)
        assert cyclic_shift_between(vu, residual) is not None

        assert psi(rep.identity) == u.alphabet.empty()
        assert rep.perm_terms in (frozenset((1, 3)), frozenset((2, 4)))
        for i in rep.perm_terms:
            a, r = rep.identity.terms[i - 1]
            assert is_cyclic_perm_term(a, r)

        sched = collapse_schedule(rep.collapse_input)
        assert len(sched) == 2 * rep.collapse_input.n + 3
        assert execute(collapse_element(rep.collapse_input), sched).is_trivial
        done += 1


def test_03_cancellation_case_analysis():
    """10,000 random product pairs land in exactly one of the three
    configurations, with every witness equation exact."""
    rng = random.Random(2003)
    seen = set()
    done = 0
    while done < 10000:
        u, v = _rand_pair(rng)
        m = cyc_product(u, v)
        if not m:
            continue
        case = classify_shirv(u, v)
        assert case.case == oracles.product_case_number(to_tuples(u), to_tuples(v))
        seen.add(case.case)
        if isinstance(case, ShirvCase1):
            assert u == concat(case.u1, case.a)
            tail = concat(case.s, concat(m, concat(inverse(case.s), inverse(case.u1))))
            assert v == concat(inverse(case.a), tail)
            assert reduced_product(u, v) == concat(case.u1, tail)
        elif isinstance(case, ShirvCase2):
            assert case.c1 and case.c2
            assert m == concat(case.c1, case.c2)
            assert u == concat(case.t, concat(case.c1, case.a))
            assert v == concat(inverse(case.a), concat(case.c2, inverse(case.t)))
            assert reduced_product(u, v) == concat(case.t, concat(m, inverse(case.t)))
            assert cyc_product(v, u) == concat(case.c2, case.c1)
        else:
            assert v == concat(inverse(case.a), case.v1)
            tail = concat(case.s, concat(m, concat(inverse(case.s), case.a)))
            assert u == concat(inverse(case.v1), tail)
            assert reduced_product(u, v) == concat(
                inverse(case.v1), concat(case.s, concat(m, concat(inverse(case.s),
                                                                  case.v1))))
        done += 1
    assert seen == {1, 2, 3}


def test_04_conjugation_decomposition():
    """10,000 random conjugations decompose exactly; small instances agree
    with the brute-force enumeration of all valid decompositions."""
    rng = random.Random(2004)
    for _ in range(10000):
        alphabet = ALPHABETS[rng.choice((2, 3, 4))]
        b = _rand_reduced(rng, alphabet, rng.randint(0, 8))
        w = _rand_cyc_reduced(rng, alphabet, rng.randint(1, 8))
        wit = decompose_conjugate(b, w)
        assert w == concat(wit.w1, wit.w2)
        lhs = reduce(concat(concat(b, w), inverse(b)))[0]
        assert lhs == concat(concat(wit.b1, concat(wit.w2, wit.w1)),
                             inverse(wit.b1))
        rep = b[:0]
        for _ in range(wit.n):
            rep = concat(rep, inverse(w) if wit.branch == 1 else w)
        if wit.branch == 1:
            assert is_reduced(concat(w, inverse(b)))
            assert len(wit.w2) > 0
            assert b == concat(concat(wit.b1, inverse(wit.w1)), rep)
        else:
            assert is_reduced(concat(b, w))
            assert len(wit.w1) > 0
            assert b == concat(concat(wit.b1, wit.w2), rep)
        if len(b) <= 6 and len(w) <= 6:
            found = oracles.conjugation_witnesses(to_tuples(b), to_tuples(w))
            mine = (to_tuples(wit.w1), to_tuples(wit.w2), to_tuples(wit.b1),
                    wit.n, wit.branch)
            assert mine in found


def _check_rotation_witness(u, v, d, wit):
    m = cyc_product(u, v)
    covers = ((cyclic_shift_between(u, wit.p), cyclic_shift_between(v, wit.q)),
              (cyclic_shift_between(v, wit.p), cyclic_shift_between(u, wit.q)))
    assert any(None not in pair for pair in covers)
    if isinstance(wit, Shirv4CaseA):
        assert wit.q == concat(inverse(wit.p),
                               concat(wit.r, concat(wit.c1,
                                                    concat(wit.c2, inverse(wit.r)))))
        assert m == concat(wit.c1, wit.c2)
        assert cyc_product(wit.p, wit.q) == m
        assert d == concat(wit.c2, wit.c1)
        return wit.c2
    if wit.mirrored:
        assert wit.p == concat(wit.b, wit.e2)
        assert wit.q == concat(wit.e3, concat(wit.e1, inverse(wit.b)))
    else:
        assert wit.p == concat(wit.e2, wit.b)
        assert wit.q == concat(inverse(wit.b), concat(wit.e3, wit.e1))
    assert d == concat(wit.e1, concat(wit.e2, wit.e3))
    assert len(wit.e2) > 0
    assert len(wit.e3) + len(wit.e1) > 0
    got = cyc_product(wit.p, wit.q) if wit.order == "pq" \
        else cyc_product(wit.q, wit.p)
    assert got == m
    return wit.e1


def test_05_rotation_pair_decomposition():
    """Every rotation of a product is realized by a rotated pair: checked
    for every rotation of sampled pairs and exhaustively on short words."""
    rng = random.Random(2005)
    done = 0
    while done < 3000:
        alphabet = ALPHABETS[rng.choice((2, 3, 4))]
        u = _rand_reduced(rng, alphabet, rng.randint(1, 6))
        v = _rand_reduced(rng, alphabet, rng.randint(1, 6))
        m = cyc_product(u, v)
        if not m:
            continue
        for k in range(len(m)):
            d = rotate(m, k)
            wit = shirv4_decompose(u, v, d)
            leftover = _check_rotation_witness(u, v, d, wit)
            if d == m:
                assert not leftover
        done += 1
    small = list(_reduced_words_up_to(AB2, 2))
    for u, v in itertools.product(small, small):
        if not u or not v:
            continue
        m = cyc_product(u, v)
        if not m:
            continue
        for k in range(len(m)):
            d = rotate(m, k)
            wit = shirv4_decompose(u, v, d)
            leftover = _check_rotation_witness(u, v, d, wit)
            if d == m:
                assert not leftover


def test_06_stabilized_product_families():
    """Stabilizing conjugators have length at most 2 and keep every
    stabilized concatenation cyclically reduced; the generated pairs all
    solve their one-sided equations."""
    def stabilized(u, s, w, n):
        return concat(concat(u, power(s, n)), concat(w, power(inverse(s), n)))

    def check(u, w):
        s = find_stabilizing_conjugator(u, w)
        assert len(s) <= 2
        for n in range(1, 5):
            assert is_cyclically_reduced(stabilized(u, s, w, n))
        pairs = latin_pairs(u, w, 5)
        assert len(pairs) == 5
        core = cyc_reduce(w)[0].core
        seen = set()
        for pr in pairs:
            assert is_cyclically_reduced(pr.v)
            assert pr.v_prime == rotate(pr.v, len(u))
            assert cyclic_shift_between(pr.v, pr.v_prime) is not None
            assert cyc_product(u, pr.v) == core
            assert cyc_product(pr.v_prime, u) == core
            seen.add(pr.v)
        assert len(seen) == 5

    rng = random.Random(2006)
    for _ in range(2000):
        alphabet = ALPHABETS[rng.choice((2, 3))]
        u = _rand_reduced(rng, alphabet, rng.randint(1, 6))
        w = _rand_reduced(rng, alphabet, rng.randint(1, 6))
        check(u, w)
    small = list(_reduced_words_up_to(AB2, 2))
    for u, w in itertools.product(small, small):
        if u and w:
            check(u, w)


def _generic_collapse_input(n):
    p, q = W("y", AB2), W("x", AB2)
    return CollapsehInput(alpha=W("1", AB2), beta=W("1", AB2),
                          gamma=power(p, n), delta=power(p, n + 1),
                          u=concat(power(inverse(p), n), inverse(q)),
                          v=concat(q, power(p, n + 1)),
                          p=p, q=q, n=n)


def _eta_snapshot(inp, j):
    # conjugated-value table after j exchange operations, 0 <= j <= 2n
    def red(*parts):
        acc = []
        for part in parts:
            acc.extend(part.letters)
        return reduce(Word(inp.p.alphabet, acc))[0]

    p, q, u, v, n = inp.p, inp.q, inp.u, inp.v, inp.n
    k, r = divmod(j, 4)
    pw = lambda e: power(p, e)
    iu, iv, iq = inverse(u), inverse(v), inverse(q)
    a_u = (red(pw(k - n), iq, pw(-k)), u)
    b_v = (red(pw(k), q, pw(n - k + 1)), v)
    c_iu = (red(pw(n - k), q, pw(k)), iu)
    d_iv = (red(pw(-k), iq, pw(k - n - 1)), iv)
    b2_v = (red(pw(k + 1), q, pw(n - k)), v)
    d2_iv = (red(pw(-k - 1), iq, pw(k - n)), iv)
    a2_u = (red(pw(k - n + 1), iq, pw(-k - 1)), u)
    if r == 0:
        return (a_u, b_v, c_iu, d_iv)
    if r == 1:
        return (b2_v, a_u, c_iu, d_iv)
    if r == 2:
        return (b2_v, a_u, d2_iv, c_iu)
    return (a2_u, b2_v, d2_iv, c_iu)


def test_07_four_term_collapse():
    """The four-term elements collapse to the trivial element in exactly
    2n+3 operations, with the predicted conjugated-value snapshots along
    the exchange prefix."""
    # the degenerate instance with every conjugator explicit
    inst = HElement([(W("1", AB2), W("X", AB2)), (W("1", AB2), W("xy", AB2)),
                     (W("1", AB2), W("x", AB2)), (W("X", AB2), W("YX", AB2))])
    assert psi(inst) == W("1", AB2)
    inp0 = CollapsehInput(alpha=W("1", AB2), beta=W("1", AB2),
                          gamma=W("1", AB2), delta=W("X", AB2),
                          u=W("X", AB2), v=W("xy", AB2),
                          p=W("y", AB2), q=W("x", AB2), n=0)
    assert collapse_element(inp0) == inst
    sched = collapse_schedule(inp0)
    assert len(sched) == 3
    assert execute(inst, sched).is_trivial

    for n in range(5):
        inp = _generic_collapse_input(n)
        h = collapse_element(inp)
        assert psi(h) == W("1", AB2)
        sched = collapse_schedule(inp)
        assert len(sched) == 2 * n + 3
        ph = phi(h)
        assert ph.terms == _eta_snapshot(inp, 0)
        exchanges = 0
        for op in sched:
            ph = apply_phi_op(ph, op)
            h = apply_op(h, op)
            assert phi(h) == ph
            assert psi(h) == W("1", AB2)
            if isinstance(op, (ExchangeA, ExchangeB)):
                exchanges += 1
                if exchanges <= 2 * n:
                    assert ph.terms == _eta_snapshot(inp, exchanges)
        assert h.is_trivial


def test_08_algebraic_laws():
    """The reduction and product laws over 10,000 random samples each, and
    arbitrary-order cancellation under every policy and twenty seeds."""
    rng = random.Random(2008)
    for _ in range(10000):
        alphabet = ALPHABETS[rng.choice((2, 3, 4))]
        w = _rand_word(rng, alphabet, rng.randint(0, 12))
        u = _rand_word(rng, alphabet, rng.randint(0, 10))
        v = _rand_word(rng, alphabet, rng.randint(0, 10))
        t = _rand_reduced(rng, alphabet, rng.randint(0, 5))
        k = rng.randint(0, 12)
        one = alphabet.empty()

        red, trace = reduce(w)
        dec, ctrace = cyc_reduce(w)
        core = dec.core
        assert replay_trace(w, trace) == red
        assert replay_trace(w, ctrace) == core
        assert reduce(red)[0] == red
        assert cyc_reduce(red)[0].core == core
        assert cyc_reduce(core)[0].core == core
        assert is_cyclically_reduced(core)
        assert red == concat(concat(dec.conjugator, core), inverse(dec.conjugator))
        assert inverse(core) == cyc_reduce(inverse(w))[0].core
        assert reverse(red) == reduce(reverse(w))[0]
        assert reverse(core) == cyc_reduce(reverse(w))[0].core
        assert (not core) == (not red)
        assert cyc_product(w, one) == core
        assert cyc_product(one, w) == core
        if core:
            assert cyc_product(core, core) == concat(core, core)

        assert inverse(concat(u, v)) == concat(inverse(v), inverse(u))
        m = cyc_product(u, v)
        assert m == cyc_product(reduce(u)[0], reduce(v)[0])
        assert reverse(m) == cyc_product(reverse(v), reverse(u))
        assert (m == one) == (reduce(v)[0] == reduce(inverse(u))[0])

        rotated_core = cyc_reduce(rotate(w, k))[0].core
        assert cyclic_shift_between(core, rotated_core) is not None
        conj = concat(concat(t, w), inverse(t))
        conj_core = cyc_reduce(conj)[0].core
        assert cyclic_shift_between(core, conj_core) is not None
        if is_reduced(concat(concat(t, red), inverse(t))):
            assert conj_core == core
        cu, shift = canonical_rotation(w)
        assert rotate(w, shift) == cu
        assert canonical_rotation(rotate(w, k))[0] == cu
        assert canonical_rotation(cu) == (cu, 0)
        assert (cyclic_shift_between(u, v) is None) == \
            (cyclic_shift_between(reverse(u), reverse(v)) is None)
        if is_cyclically_reduced(t) and t:
            assert is_cyclically_reduced(power(t, 1 + k % 3))

    rng = random.Random(20088)
    choosers = list(POLICIES) + list(range(20))
    for _ in range(500):
        alphabet = ALPHABETS[rng.choice((2, 3, 4))]
        w = _rand_word(rng, alphabet, rng.randint(0, 12))
        core = cyc_reduce(w)[0].core
        for chooser in choosers:
            out, trace = cancel_any_order(w, chooser)
            assert cyclic_shift_between(core, out) is not None
            assert replay_trace(w, trace) == out


def test_09_reducer_oracle_equivalence():
    """Both reducers agree with the naive rewriter on every word of length
    at most 7 over two generators, and on 100,000 longer samples."""
    count = 0
    pool = [(g, s) for g in range(2) for s in (1, -1)]
    for n in range(8):
        for raw in itertools.product(pool, repeat=n):
            w = from_tuples(AB2, raw)
            assert to_tuples(reduce(w)[0]) == oracles.naive_reduce(raw)
            dec, _ = cyc_reduce(w)
            assert to_tuples(dec.core) == oracles.naive_cyc_reduce(raw)
            assert to_tuples(dec.conjugator) == oracles.naive_conjugator(raw)
            count += 1
    assert count == 21845

    rng = random.Random(2009)
    for _ in range(100000):
        raw = oracles.random_word(rng, 2, rng.randint(8, 10))
        w = from_tuples(AB2, raw)
        assert to_tuples(reduce(w)[0]) == oracles.naive_reduce(raw)
        assert to_tuples(cyc_reduce(w)[0].core) == oracles.naive_cyc_reduce(raw)


def test_10_closure_enumeration(tmp_path):
    """Closure toys, agreement with the breadth-first oracle, the same saved
    file from the CLI under different hash seeds, and bit-exact
    persistence."""
    cfg = ClosureConfig(4, 10)
    rels = [W("xy", AB2), W("y", AB2)]
    s = cl.run(cl.seed(rels, cfg))
    assert cl.contains(s, W("x", AB2)).found
    assert cl.contains(s, W("y", AB2)).found
    assert s.saturated

    only_x = cl.run(cl.seed([W("x", AB2)], ClosureConfig(4, 10)))
    assert not cl.contains(only_x, W("y", AB2)).found

    powers = cl.run(cl.seed([W("x", AB2)], ClosureConfig(3, 10)))
    assert {F(w) for w in powers.members} == \
        {"x", "X", "xx", "XX", "xxx", "XXX"}

    expect = {canonical_rotation(from_tuples(AB2, t))[0]
              for t in oracles.closure_members(
                  [to_tuples(r) for r in rels], 4)}
    assert s.members == expect

    buf = io.StringIO()
    cl.save(s, buf)
    blobs = [buf.getvalue()]
    rel_file = tmp_path / "rels.txt"
    rel_file.write_text("xy\ny\n")
    for hashseed in (0, 1):
        out = tmp_path / ("set%d.txt" % hashseed)
        run_python(["-m", "cycred.cli", "--alphabet", "x,y", "closure",
                    "--relators", str(rel_file), "--maxlen", "4",
                    "--rounds", "10", "--out", str(out)], hashseed)
        blobs.append(out.read_text(encoding="ascii"))
    assert len(set(blobs)) == 1

    loaded = cl.load(io.StringIO(blobs[0]))
    buf = io.StringIO()
    cl.save(loaded, buf)
    assert buf.getvalue() == blobs[0]
    assert loaded.members == s.members
    assert loaded.frontier == s.frontier

    tracked = cl.run(cl.seed(rels, cfg, track_provenance=True))
    assert set(tracked.provenance) == tracked.members
    for m, h in tracked.provenance.items():
        assert psi(h) == m


def test_11_psi_invariance():
    """1,000 random formal products: every exchange at every position
    preserves the conjugated product, valid deletions drop exactly their
    pair, and the value table commutes with every move."""
    rng = random.Random(2011)
    for _ in range(1000):
        alphabet = ALPHABETS[rng.choice((2, 3))]
        nterms = rng.randint(2, 5)
        pairs = [(_rand_reduced(rng, alphabet, rng.randint(0, 5)),
                  _rand_reduced(rng, alphabet, rng.randint(0, 5)))
                 for _ in range(nterms)]
        h = HElement(pairs)
        value = psi(h)
        for pos in range(1, nterms):
            for opcls in (ExchangeA, ExchangeB):
                op = opcls(pos)
                out = apply_op(h, op)
                assert psi(out) == value
                assert len(out.terms) == nterms
                assert phi(out) == apply_phi_op(phi(h), op)

        # splice in a cancelling pair, then delete it again
        a = _rand_reduced(rng, alphabet, rng.randint(0, 4))
        r = _rand_reduced(rng, alphabet, rng.randint(1, 4))
        t = _rand_reduced(rng, alphabet, rng.randint(0, 3))
        b = reduce(concat(a, t))[0]
        s = reduce(concat(inverse(t), concat(inverse(r), t)))[0]
        pos = rng.randint(0, nterms)
        spliced = HElement(pairs[:pos] + [(a, r), (b, s)] + pairs[pos:])
        assert psi(spliced) == value
        kind = "general"
        if not t:
            kind = "peiffer" if rng.random() < 0.5 else "semiPeiffer"
        back = apply_op(spliced, Deletion(pos + 1, kind))
        assert back == h
        assert psi(back) == value
