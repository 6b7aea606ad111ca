"""Pinned digests of witness output on a seeded corpus.

Each digest is the sha256 of the repr of every result of one layer over the
same corpus of random pairs: puzo_witness reports, reduce and cyc_reduce
traces, latin_pairs families, and the elements execute passes through on a
collapse schedule.  Part of the corpus is over a spaced alphabet of 300
generators, whose letter codes lie above 255.  The digests were computed
before words held their letters as codes, so they pin that every witness
stays byte for byte what it was.
"""

import hashlib
import random

import pytest

from cycred import (Alphabet, cancel_any_order, collapse_element,
                    collapse_schedule, concat, cyc_product, cyc_reduce,
                    execute, inverse, latin_pairs, puzo_witness, reduce,
                    rotate_trace)
from cycred.identities import apply_op

SMALL = Alphabet("x", "y", "z", "t")
WIDE = Alphabet(*["g%d" % i for i in range(300)])


def _reduced(rng, ab, n):
    k = len(ab)
    out = []
    while len(out) < n:
        g, s = rng.randrange(k), rng.choice((1, -1))
        if not out or out[-1] != (g, -s):
            out.append((g, s))
    return ab.word(out)


def _pair(rng, ab, n):
    """Reduced u, v whose product is not trivial: u ends in a block that v
    starts by cancelling, and v may end in the inverse of u's start; a
    third of the pairs are then swapped and inverted, so that all three
    cancellation shapes occur."""
    while True:
        u = _reduced(rng, ab, rng.randint(1, n))
        v = _reduced(rng, ab, rng.randint(1, n))
        k = rng.randint(0, len(u))
        v = concat(inverse(u[len(u) - k:]), v)
        if rng.random() < 0.5:
            v = concat(v, inverse(u[:rng.randint(0, len(u) - k)]))
        if reduce(v)[0] == v and cyc_product(u, v):
            return (inverse(v), inverse(u)) if rng.random() < 1 / 3 else (u, v)


def _corpus():
    rng = random.Random(20261018)
    out = [_pair(rng, SMALL, 24) for _ in range(150)]
    out += [_pair(rng, WIDE, 24) for _ in range(40)]
    out += [_pair(rng, SMALL, 300) for _ in range(6)]
    out += [_pair(rng, WIDE, 300) for _ in range(3)]
    return out


CORPUS = _corpus()


def _puzo(u, v):
    return [repr(puzo_witness(u, v))]


def _traces(u, v):
    rng = random.Random(len(u) * 7919 + len(v))
    uv = concat(u, v)
    out = [repr(reduce(uv)), repr(cyc_reduce(uv)),
           repr(cyc_reduce(concat(v, u))),
           repr(cancel_any_order(uv, rng.randrange(1 << 20)))]
    out.append(repr(rotate_trace(cyc_reduce(uv)[1], len(v))))
    return out


def _latin(u, v):
    return [repr(latin_pairs(u, cyc_product(u, v), 3))]


def _collapse(u, v):
    ci = puzo_witness(u, v).collapse_input
    ops = collapse_schedule(ci)
    h = collapse_element(ci)
    out = [repr(ops), repr(h)]
    for op in ops:
        h = apply_op(h, op)
        out.append(repr(h))
    out.append(repr(execute(collapse_element(ci), ops)))
    return out


def _digest(layer):
    text = "\n".join(line for u, v in CORPUS for line in layer(u, v))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("layer,digest", [
    (_puzo,
     "48096a218e7806158a81c64ed6eed059c38cf9c083dcf0a93f1b6fac5398acac"),
    (_traces,
     "2b62276617295f2916dc817a5602d6ee6d11f04a11dc2ce4f1d8c766ce09e61b"),
    (_latin,
     "9d06f9ed898339442522810548a0ff22ba73e9644ee457063a32dde7c7ed6a22"),
    (_collapse,
     "eaba496762e1e2e95fb1f468cee917f0283935f5af8a9df73616dcadab2c5e29"),
], ids=["puzo_witness", "traces", "latin_pairs", "collapse"])
def test_witness_digest(layer, digest):
    assert _digest(layer) == digest
