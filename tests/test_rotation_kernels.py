"""The rotation kernels against their naive oracles, output for output.

canonical_rotation, cyclic_shift_between, cancel_any_order and rotate_trace
must return exactly what the quadratic transcriptions in oracles.py return:
the least shift, the first shift found, the same trace for every policy and
seed, and the same transported trace at every shift.  The last test keeps
them linear: the quadratic versions take minutes on its inputs.
"""

import random
import time

import pytest

from cycred import (POLICIES, cancel_any_order, canonical_rotation,
                    cyc_reduce, cyclic_shift_between, reduce, replay_trace,
                    rotate, rotate_trace)
from cycred.reduction import CancellationEvent, CancellationTrace

import oracles
from conftest import AB3, from_tuples, to_tuples

x, X, y, Y, z = (0, 1), (0, -1), (1, 1), (1, -1), (2, 1)
SEEDS = range(20)


def _adversarial(k):
    """Many candidates at once, or an external candidate at every step."""
    return [(x, X) * k, (X, x) * k, (x,) * k + (X,) * k,
            (x,) + (X,) * k + (x,) * k + (X,),
            (x, y) * k + (Y, X) * k, (x, y, X) * k]


def _periodic(k):
    """Words with several least shifts, and near misses."""
    return [(x, y) * k, (x, Y) * k + (x,), (y, x) * k, (Y, x, x) * k,
            (x,) * k, (X, x) * k + (X,)]


def _random(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = rng.randint(1, 3)
        w = oracles.random_word(rng, gens, rng.randint(0, 40))
        kind = rng.randrange(3)
        if kind == 1 and w:  # a power of a short block
            w = (w[:rng.randint(1, 4)] * 40)[:len(w)]
        elif kind == 2:  # heavy cancellation, inside and around the ends
            u = oracles.random_word(rng, gens, rng.randint(0, 12))
            w = oracles.rotate(u + w[:8] + oracles.inverse(u), rng.randint(0, 30))
        out.append(w)
    return out


CORPUS = ([(), (x,), (X,), (x, X), (x, x)]
          + [w for k in (1, 2, 3, 5) for w in _adversarial(k) + _periodic(k)]
          + _random(300, 2024))


def _run(word, chooser):
    out, trace = cancel_any_order(from_tuples(AB3, word), chooser)
    assert trace.original_length == len(word)
    return (to_tuples(out),
            tuple((e.left_pos, e.right_pos, e.kind) for e in trace.events))


def test_cancel_any_order_matches_oracle():
    for word in CORPUS:
        for chooser in POLICIES + tuple(SEEDS):
            assert _run(word, chooser) == \
                oracles.naive_cancel_any_order(word, chooser), (word, chooser)


def test_cancel_any_order_external_every_step():
    for k in (1, 4, 9):
        word = (x,) + (X,) * k + (x,) * k + (X,)
        _, events = _run(word, "external-first-when-valid")
        # two survivors make an internal pair, not an external one
        assert [e[2] for e in events] == ["external"] * k + ["internal"]


def test_canonical_rotation_matches_oracle():
    exhaustive = [w for n in range(7) for w in oracles.word_strings(2, n)]
    for word in CORPUS + exhaustive + [w for w in _random(100, 7) if w]:
        rep, shift = canonical_rotation(from_tuples(AB3, word))
        assert (to_tuples(rep), shift) == oracles.naive_least_rotation(word), word


def test_cyclic_shift_between_matches_oracle():
    rng = random.Random(99)
    for u in CORPUS:
        n = len(u)
        others = [oracles.rotate(u, rng.randint(0, n)), oracles.reverse(u),
                  oracles.random_word(rng, 3, n), u + (z,), u[1:]]
        for v in others:
            got = cyclic_shift_between(from_tuples(AB3, u), from_tuples(AB3, v))
            assert got == oracles.naive_shift_between(u, v), (u, v)


def _check_transport(trace):
    n = trace.original_length
    for shift in range(n):
        pairs = [tuple(sorted(((e.left_pos + shift) % n, (e.right_pos + shift) % n)))
                 for e in trace.events]
        got = rotate_trace(trace, shift)
        assert got.original_length == n
        assert tuple(map(tuple, got.events)) == oracles.naive_schedule(n, pairs), \
            (trace, shift)


def test_rotate_trace_matches_oracle():
    for word in CORPUS:
        w = from_tuples(AB3, word)
        traces = [reduce(w)[1], cyc_reduce(w)[1]]
        traces += [cancel_any_order(w, c)[1] for c in POLICIES + (0, 1)]
        for trace in {t.events: t for t in traces}.values():
            _check_transport(trace)


def test_rotate_trace_matches_oracle_on_crossing_matchings():
    """Any partial matching, crossing pairs included, so that some pairs
    never fire and are appended."""
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 16)
        pos = rng.sample(range(n), 2 * rng.randint(0, n // 2))
        events = tuple(CancellationEvent(min(a, b), max(a, b), "internal")
                       for a, b in zip(pos[::2], pos[1::2]))
        _check_transport(CancellationTrace(n, events))


@pytest.mark.parametrize("pairs", [((0, 1), (1, 2)), ((0, 1), (0, 1)),
                                   ((1, 2), (0, 3), (0, 2))])
def test_rotate_trace_keeps_a_repeated_position(pairs):
    """A trace naming a position twice keeps every pair, and no rotation
    of it replays."""
    w = from_tuples(AB3, (x, X, x, X))
    trace = CancellationTrace(4, tuple(CancellationEvent(l, r, "internal")
                                       for l, r in pairs))
    for shift in range(4):
        rotated = rotate_trace(trace, shift)
        assert len(rotated.events) == len(pairs)
        with pytest.raises(ValueError):
            replay_trace(rotate(w, -shift), rotated)


def test_kernels_stay_linear():
    """16,384 letters, and 65,536 for trace transport: milliseconds when
    linear, minutes when quadratic."""
    rng = random.Random(5)
    n = 16384
    w = from_tuples(AB3, oracles.random_word(rng, 3, n))
    half = oracles.random_word(rng, 2, n // 2)
    uv = oracles.rotate(half, n // 5) + oracles.inverse(half)
    words = [w, from_tuples(AB3, (x, y) * (n // 2)),
             from_tuples(AB3, (x,) + (X,) * (n // 2 - 1) + (x,) * (n // 2 - 1) + (X,))]
    h = oracles.random_word(rng, 2, n)
    big = from_tuples(AB3, oracles.random_word(rng, 3, 2 * n)
                      + oracles.rotate(h + oracles.inverse(h), n // 3))
    start = time.perf_counter()
    for v in words:
        rep, shift = canonical_rotation(v)
        assert cyclic_shift_between(v, rep) == shift
    for chooser in POLICIES + (7,):
        out, trace = cancel_any_order(from_tuples(AB3, uv), chooser)
        assert len(out) + 2 * len(trace.events) == n
    out, _ = cancel_any_order(words[2], "external-first-when-valid")
    assert not out
    dec, trace = cyc_reduce(big)
    assert len(trace.events) >= 16000
    rotated = rotate_trace(trace, n)
    residual = replay_trace(rotate(big, -n), rotated)
    assert cyclic_shift_between(dec.core, residual) is not None
    assert time.perf_counter() - start < 5.0
