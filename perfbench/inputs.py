"""Seeded input generation.  Letters are (generator index, sign) pairs; the
library sees only the Words built from them."""

from typing import NamedTuple


def inv(ls):
    return tuple((g, -s) for g, s in reversed(ls))


def is_reduced(ls):
    return all(ls[i] != (ls[i + 1][0], -ls[i + 1][1]) for i in range(len(ls) - 1))


def rand_word(rng, n, k):
    """Any word of n letters over k generators; adjacent inverses allowed."""
    return tuple((rng.randrange(k), rng.choice((1, -1))) for _ in range(n))


def rand_reduced(rng, n, k):
    out = []
    while len(out) < n:
        let = (rng.randrange(k), rng.choice((1, -1)))
        if not out or let != (out[-1][0], -out[-1][1]):
            out.append(let)
    return tuple(out)


def rand_cyc_reduced(rng, n, k):
    while True:
        w = rand_reduced(rng, n, k)
        if n < 2 or w[-1] != (w[0][0], -w[0][1]):
            return w


def compact(ls, names):
    return "".join(names[g] if s > 0 else names[g].upper() for g, s in ls) or "1"


# Pairs: u, v built around a prescribed core m, conjugator t and cancelling
# block a, so that cyc_product(u, v) == m and classify_shirv lands in `case`.

PAIR_GENERATORS = ("x", "y", "z", "t")
LONG_CORE, LONG_BLOCK = 1024, 256   # |m|, and |t| = |a|, of the long band


class Pair(NamedTuple):
    band: str
    case: int
    u: object
    v: object
    m: object
    d: object          # a seeded rotation of m, for shirv4_decompose
    uv: object         # the plain concatenations, for cancel_any_order
    vu: object         # and trace transport
    chooser: int       # cancel_any_order seed


def pair_letters(rng, case, nm, nt, na):
    """(u, v, m) as letter tuples; u and v are reduced, and by construction
    rho(uv) = t m t^-1 with a the maximal cancelling block."""
    k = len(PAIR_GENERATORS)
    while True:
        m = rand_cyc_reduced(rng, nm, k)
        t = rand_reduced(rng, nt, k)
        a = rand_reduced(rng, na, k)
        if case == 2:
            c = rng.randint(1, nm - 1)
            u, v = t + m[:c] + a, inv(a) + m[c:] + inv(t)
        else:
            j = rng.randint(0, nt)
            s = t[j:]
            if case == 1:
                u1 = t[:j]
                u, v = u1 + a, inv(a) + s + m + inv(s) + inv(u1)
            else:
                v1 = inv(t[:j])
                u, v = inv(v1) + s + m + inv(s) + a, inv(a) + v1
        if is_reduced(u) and is_reduced(v) and is_reduced(t + m + inv(t)):
            return u, v, m


def make_pairs(cy, rng, band, count):
    """`count` pairs in equal thirds over the three cases.  A candidate that
    the library classifies differently is drawn again; that never happens
    with the construction above, and the retry keeps the thirds exact if it
    ever does."""
    ab = cy.Alphabet(*PAIR_GENERATORS)
    out = []
    for i in range(count):
        case = 1 + i % 3
        while True:
            if band == "short":
                nm = rng.randint(8, 32)
                nt = na = nm // 4
            else:
                nm, nt, na = LONG_CORE, LONG_BLOCK, LONG_BLOCK
            u, v, m = pair_letters(rng, case, nm, nt, na)
            U, V = ab.word(u), ab.word(v)
            if cy.classify_shirv(U, V).case == case:
                break
        r = rng.randrange(nm)
        out.append(Pair(band, case, U, V, ab.word(m), ab.word(m[r:] + m[:r]),
                        ab.word(u + v), ab.word(v + u), rng.randrange(1 << 30)))
    return out


# Closure queries over {x, y}: half are conjugates of short cyclically reduced
# cores (so within the cap and often members), half arbitrary words of 1-12
# letters (mostly over the cap once reduced).

def query_letters(rng, count):
    out = []
    for i in range(count):
        if i % 2 == 0:
            core = rand_cyc_reduced(rng, rng.randint(1, 6), 2)
            c = rand_word(rng, rng.randint(0, (12 - len(core)) // 2), 2)
            out.append(c + core + inv(c))
        else:
            out.append(rand_word(rng, rng.randint(1, 12), 2))
    return out
