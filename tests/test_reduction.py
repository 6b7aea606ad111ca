"""Reduced forms, cyclically reduced forms, traces, and ordered cancellation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycred import (POLICIES, cancel_any_order, concat, cyc_product,
                    cyc_reduce, cyclic_shift_between, inverse,
                    is_cyclically_reduced, is_reduced, max_cancellation,
                    power, reduce, reduced_product, replay_trace, reverse,
                    rotate, rotate_trace)
from cycred.reduction import CancellationEvent, CancellationTrace

import oracles
from conftest import AB2, AB4, W, F, from_tuples, to_tuples, words, \
    reduced_words, cyc_reduced_words


def test_reduce_fixtures():
    assert F(reduce(W("xX"))[0]) == "1"
    assert F(reduce(W("xyYXz"))[0]) == "z"
    assert F(reduce(W("xyz"))[0]) == "xyz"
    assert F(reduce(W("1"))[0]) == "1"


def _nested(rng, k, depth):
    """A word that cancels in long blocks at several depths: random words
    with conjugated or adjacent inverse blocks wrapped around them."""
    w = oracles.random_word(rng, k, rng.randint(0, 12))
    for _ in range(depth):
        t = oracles.random_word(rng, k, rng.randint(1, 40))
        if rng.random() < 0.5:
            w = t + w + oracles.inverse(t)
        else:
            w = w + t + oracles.inverse(t) + oracles.random_word(rng, k, 3)
    return w


def test_traces_match_a_letter_by_letter_stack():
    """Words of up to about 500 letters with nested cancellation: reduce and
    cyc_reduce cancel the same pairs in the same order as a plain stack."""
    rng = random.Random(41)
    for i in range(400):
        k = (2, 4)[i % 2]
        raw = _nested(rng, k, rng.randint(0, 6))
        w = from_tuples(AB4, raw)
        want = oracles.stack_events(raw)
        red, trace = reduce(w)
        assert [tuple(e) for e in trace.events] == \
            [e for e in want if e[2] == "internal"]
        assert to_tuples(red) == oracles.naive_reduce(raw)
        dec, trace = cyc_reduce(w)
        assert [tuple(e) for e in trace.events] == want
        assert to_tuples(dec.core) == oracles.naive_cyc_reduce(raw)
        assert to_tuples(dec.conjugator) == oracles.naive_conjugator(raw)


def test_cyc_reduce_fixture():
    dec, trace = cyc_reduce(W("xyzxYX"))
    assert F(dec.core) == "zx"
    assert F(dec.conjugator) == "xy"
    assert [e.kind for e in trace.events] == ["external", "external"]


@given(words(AB2))
def test_reduce_matches_oracle(w):
    assert to_tuples(reduce(w)[0]) == oracles.naive_reduce(to_tuples(w))


@given(words(AB2))
def test_cyc_reduce_matches_oracle(w):
    dec, _ = cyc_reduce(w)
    raw = to_tuples(w)
    assert to_tuples(dec.core) == oracles.naive_cyc_reduce(raw)
    assert to_tuples(dec.conjugator) == oracles.naive_conjugator(raw)


@given(words(AB2))
def test_conjugation_decomposition_is_exact(w):
    dec, _ = cyc_reduce(w)
    t, core = dec.conjugator, dec.core
    assert reduce(w)[0] == concat(concat(t, core), inverse(t))
    assert is_cyclically_reduced(core)


@given(words(AB2))
def test_reduce_idempotent(w):
    red = reduce(w)[0]
    assert reduce(red)[0] == red
    core = cyc_reduce(w)[0].core
    assert cyc_reduce(red)[0].core == core
    assert cyc_reduce(core)[0].core == core


@given(words(AB2))
def test_traces_replay(w):
    red, trace = reduce(w)
    assert replay_trace(w, trace) == red
    dec, ctrace = cyc_reduce(w)
    assert replay_trace(w, ctrace) == dec.core


def test_replay_rejects_corruption():
    w = W("xyYX")
    _, trace = reduce(w)
    bad = CancellationTrace(trace.original_length,
                            tuple(CancellationEvent(e.left_pos, e.right_pos, "external")
                                  for e in trace.events))
    with pytest.raises(ValueError):
        replay_trace(w, bad)
    with pytest.raises(ValueError):
        replay_trace(W("xy"), trace)
    shifted = CancellationTrace(trace.original_length,
                                tuple(CancellationEvent(e.left_pos + 1, e.right_pos + 1, e.kind)
                                      for e in trace.events))
    with pytest.raises(ValueError):
        replay_trace(w, shifted)


def test_product_fixtures():
    assert F(reduced_product(W("txy"), W("YzT"))) == "txzT"
    assert F(cyc_product(W("txy"), W("YzT"))) == "xz"
    assert F(cyc_product(cyc_product(W("xy"), W("X")), W("x"))) == "yx"
    assert F(cyc_product(W("xy"), cyc_product(W("X"), W("x")))) == "xy"


@given(words(AB2, max_len=8), words(AB2, max_len=8))
def test_products_match_oracle(u, v):
    assert to_tuples(cyc_product(u, v)) == oracles.naive_cyc_product(
        to_tuples(u), to_tuples(v))


@given(words(AB2), words(AB2))
def test_product_laws(u, v):
    assert cyc_product(u, v) == cyc_product(reduce(u)[0], reduce(v)[0])
    assert reverse(cyc_product(u, v)) == cyc_product(reverse(v), reverse(u))
    one = u.alphabet.empty()
    assert cyc_product(u, one) == cyc_reduce(u)[0].core
    assert cyc_product(one, u) == cyc_reduce(u)[0].core
    trivial = cyc_product(u, v) == one
    assert trivial == (reduce(v)[0] == reduce(inverse(u))[0])


@given(words(AB2))
def test_unary_laws(w):
    core = cyc_reduce(w)[0].core
    assert inverse(core) == cyc_reduce(inverse(w))[0].core
    assert reverse(reduce(w)[0]) == reduce(reverse(w))[0]
    assert reverse(core) == cyc_reduce(reverse(w))[0].core
    assert (len(core) == 0) == (len(reduce(w)[0]) == 0)


@given(cyc_reduced_words(AB2, min_len=1))
def test_square_of_cyclically_reduced(w):
    assert cyc_product(w, w) == concat(w, w)


@given(words(AB2, max_len=8), st.integers(0, 7))
def test_rotation_invariance_of_core(w, k):
    a = cyc_reduce(w)[0].core
    b = cyc_reduce(rotate(w, k))[0].core
    assert cyclic_shift_between(a, b) is not None


@given(reduced_words(AB2, max_len=6), words(AB2, max_len=8))
def test_conjugation_invariance_of_core(t, w):
    conj = concat(concat(t, w), inverse(t))
    a = cyc_reduce(conj)[0].core
    b = cyc_reduce(w)[0].core
    assert cyclic_shift_between(b, a) is not None
    if is_reduced(concat(concat(reduce(t)[0], reduce(w)[0]), inverse(reduce(t)[0]))):
        assert a == b


@given(reduced_words(AB2, max_len=8), reduced_words(AB2, max_len=8))
def test_max_cancellation_matches_oracle(u, v):
    mc = max_cancellation(u, v)
    assert (to_tuples(mc.u1), to_tuples(mc.a), to_tuples(mc.v1)) == \
        oracles.naive_max_cancellation(to_tuples(u), to_tuples(v))
    assert u == concat(mc.u1, mc.a)
    assert v == concat(inverse(mc.a), mc.v1)
    assert reduced_product(u, v) == concat(mc.u1, mc.v1)


def test_max_cancellation_requires_reduced():
    with pytest.raises(ValueError):
        max_cancellation(W("xX"), W("y"))


def test_ordered_cancellation_fixture():
    w = W("xXyX")
    ext, _ = cancel_any_order(w, "external-first-when-valid")
    assert F(ext) == "Xy"
    internal, _ = cancel_any_order(w, "internal-first")
    assert F(internal) == "yX"
    assert internal == cyc_reduce(w)[0].core


@given(words(AB2, max_len=10), st.sampled_from(POLICIES + tuple(range(6))))
def test_any_order_lands_on_a_rotation(w, chooser):
    out, trace = cancel_any_order(w, chooser)
    core = cyc_reduce(w)[0].core
    assert cyclic_shift_between(core, out) is not None
    assert replay_trace(w, trace) == out


def test_any_order_rejects_bad_choosers():
    with pytest.raises(ValueError):
        cancel_any_order(W("xX"), "no-such-policy")
    with pytest.raises(ValueError):
        cancel_any_order(W("xX"), True)
    with pytest.raises(ValueError):
        cancel_any_order(W("xX"), 1.5)


def test_rotate_trace_replays_against_rotated_word():
    u, v = W("txy"), W("YzT")
    uv = concat(u, v)
    _, trace = cyc_reduce(uv)
    rotated = rotate_trace(trace, len(v))
    residual = replay_trace(rotate(uv, len(u)), rotated)
    target = cyc_product(v, u)
    assert cyclic_shift_between(target, residual) is not None


@given(reduced_words(AB2, min_len=1, max_len=7),
       reduced_words(AB2, min_len=1, max_len=7))
def test_rotate_trace_property(u, v):
    uv = concat(u, v)
    _, trace = cyc_reduce(uv)
    rotated = rotate_trace(trace, len(v))
    residual = replay_trace(concat(v, u), rotated)
    target = cyc_product(v, u)
    assert cyclic_shift_between(target, residual) is not None
