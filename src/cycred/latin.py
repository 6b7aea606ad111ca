"""Stabilized product families: solving a*x = b inside the cyclically
reduced monoid in infinitely many ways.

find_stabilizing_conjugator produces a short word s (at most two letters)
such that u s^n w s^-n stays cyclically reduced for every n >= 1.  The
correctness conditions are purely local: the first letter of s must avoid
first(u) and last(u)^-1, the last letter must avoid first(w)^-1 and last(w),
and s itself must be cyclically reduced.  The case analysis below picks the
least admissible letter (or two-letter word) meeting them.

latin_pairs turns that into the family v_n = u^-1 s^n w s^-n: each v_n is
cyclically reduced, its rotation v'_n = s^n w s^-n u^-1 satisfies
cyc_product(u, v_n) = cyc_product(v'_n, u) = the cyclically reduced form of
w, and lengths grow strictly with n, so the pairs are pairwise distinct.
"""

from typing import List, NamedTuple

from .words import (Word, _word, concat, inverse, is_cyclically_reduced,
                    is_reduced, power, rotate)


class LatinPair(NamedTuple):
    v: Word
    v_prime: Word
    n: int


def _least_letter_avoiding(alphabet, excluded):
    # letters are coded in letter order (see cycred.words)
    for c in range(2 * len(alphabet.generators)):
        if c not in excluded:
            return c
    raise ValueError("no admissible letter exists")


def _check_inputs(u, w):
    if u.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    if len(u.alphabet.generators) < 2:
        raise ValueError("at least two generators are required")
    if not u or not w:
        raise ValueError("u and w must be non-empty")
    if not is_reduced(u) or not is_reduced(w):
        raise ValueError("u and w must be reduced")


def find_stabilizing_conjugator(u: Word, w: Word) -> Word:
    """A cyclically reduced s with |s| <= 2 such that u s^n w s^-n is
    cyclically reduced for all n >= 1."""
    _check_inputs(u, w)
    ab = u.alphabet

    def spell(*letters):  # letters as codes: the inverse of x is x ^ 1
        return _word(ab, "".join(map(chr, letters)))
    a, b, c, d = map(ord, (u.codes[0], u.codes[-1], w.codes[0], w.codes[-1]))
    if is_cyclically_reduced(u):
        if a == b:
            x = _least_letter_avoiding(ab, {a, a ^ 1})
            if x != c ^ 1 and x != d:
                return spell(x)
            if x == c ^ 1:
                if x != d ^ 1:
                    return spell(x ^ 1)
                return spell(x, a ^ 1)
            if x != c:
                return spell(x ^ 1)
            return spell(x ^ 1, a ^ 1)
        if b != c ^ 1 and b != d:
            return spell(b)
        if b == c ^ 1:
            if a != d ^ 1:
                return spell(a ^ 1)
            return spell(b, a)
        if a != c:
            return spell(a ^ 1)
        return spell(b, a)
    if is_cyclically_reduced(w):
        return inverse(find_stabilizing_conjugator(w, u))
    # neither is cyclically reduced, so b = a^-1 and d = c^-1; any letter
    # clear of a and c^-1 meets all the border conditions at once
    return spell(_least_letter_avoiding(ab, {a, c ^ 1}))


def latin_pairs(u: Word, w: Word, count: int) -> List[LatinPair]:
    """The first `count` members of the family v_n = u^-1 s^n w s^-n."""
    _check_inputs(u, w)
    if not isinstance(count, int) or count < 0:
        raise ValueError("count must be a natural number")
    s = find_stabilizing_conjugator(inverse(u), w)
    ui = inverse(u)
    out = []
    for n in range(1, count + 1):
        sn = power(s, n)
        v = concat(concat(ui, sn), concat(w, inverse(sn)))
        out.append(LatinPair(v, rotate(v, len(u)), n))
    return out
