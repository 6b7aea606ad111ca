"""Cancellation-structure classifiers with explicit witnesses.

All constructions here are driven by one picture: for reduced u and v write
u = u1 a, v = a^-1 v1 with a the maximal cancelling block, and strip the
conjugator t from u1 v1, so that rho(uv) = t m t^-1 exactly with
m = cyc_product(u, v).  How far u1 reaches into t m t^-1 sorts every pair
into one of three shapes (classify_shirv); decompose_conjugate factors a
conjugate rho(b w b^-1) down to a rotation of w; shirv4_decompose refines
the shape toward any prescribed rotation d of m; puzo_witness packages the
whole rotation story: the shift aligning u*v with v*u, both cancellation
traces, a four-term identity among u, v, u^-1, v^-1, and the data making
that identity collapse step by step.

Every equation promised by a witness holds letter for letter, not merely up
to free equality; the tests compare plain concatenations.
"""

from typing import NamedTuple, FrozenSet, Union

from .words import (Word, _INVERSE, _agree, _word, concat,
                    cyclic_shift_between, inverse, is_cyclically_reduced,
                    is_prefix, is_reduced, is_suffix)
from .reduction import (CancellationTrace, _decompose, _rho, cyc_product,
                        cyc_reduce, max_cancellation)
from .identities import (CollapsehInput, HElement, identity_from_equivalence)


class ComplicWitness(NamedTuple):
    w1: Word
    w2: Word
    b1: Word
    n: int
    branch: int


class ShirvCase1(NamedTuple):
    u1: Word
    a: Word
    s: Word
    case: int = 1


class ShirvCase2(NamedTuple):
    t: Word
    c1: Word
    c2: Word
    a: Word
    case: int = 2


class ShirvCase3(NamedTuple):
    v1: Word
    s: Word
    a: Word
    case: int = 3


ShirvCase = Union[ShirvCase1, ShirvCase2, ShirvCase3]


class Shirv4CaseA(NamedTuple):
    p: Word
    q: Word
    r: Word
    c1: Word
    c2: Word


class Shirv4CaseB(NamedTuple):
    p: Word
    q: Word
    b: Word
    e1: Word
    e2: Word
    e3: Word
    order: str       # "pq" or "qp": which product of p and q equals u*v
    mirrored: bool   # False: p = e2 b, q = b^-1 e3 e1;  True: p = b e2, q = e3 e1 b^-1


Shirv4Witness = Union[Shirv4CaseA, Shirv4CaseB]


class PuzoReport(NamedTuple):
    shift: int
    uv_trace: CancellationTrace
    vu_trace: CancellationTrace
    identity: HElement
    perm_terms: FrozenSet[int]
    case: int
    collapse_input: CollapsehInput


def _branch1(b, w):
    # longest power of w^-1 that is a literal suffix of b
    wi = inverse(w).codes
    end = len(b)
    n = 0
    while end >= len(w) and b.codes[end - len(w):end] == wi:
        n += 1
        end -= len(w)
    rest = b.codes[:end]
    # longest prefix of w whose inverse is a suffix of what remains
    k = _agree(rest[::-1].translate(_INVERSE), 0, w.codes, 0, min(len(w), end))
    return ComplicWitness(w[:k], w[k:], _word(b.alphabet, rest[:end - k]), n, 1)


def _branch2(b, w):
    # branch-2 shaped witness; requires concat(b, w) reduced
    if is_reduced(concat(concat(b, w), inverse(b))):
        return ComplicWitness(w, w[:0], b, 0, 2)
    wit = _branch1(b, inverse(w))
    return ComplicWitness(inverse(wit.w2), inverse(wit.w1), wit.b1, wit.n, 2)


def decompose_conjugate(b: Word, w: Word) -> ComplicWitness:
    """Factor rho(b w b^-1) as b1 w2 w1 b1^-1 exactly, where w = w1 w2 and
    either b = b1 w1^-1 (w^-1)^n (branch 1, w b^-1 reduced) or
    b = b1 w2 w^n (branch 2, b w reduced)."""
    if not w or not is_cyclically_reduced(w):
        raise ValueError("w must be cyclically reduced and non-empty")
    if not is_reduced(b):
        raise ValueError("b must be reduced")
    if is_reduced(concat(w, inverse(b))):
        return _branch1(b, w)
    # w cyclically reduced forces the junction dichotomy: b w is reduced here
    return _branch2(b, w)


def classify_shirv(u: Word, v: Word) -> ShirvCase:
    """Sort the pair into one of the three cancellation shapes; every field
    equation of the returned record is an exact concatenation."""
    mc = max_cancellation(u, v)
    base = concat(mc.u1, mc.v1)
    if not base:
        raise ValueError("the reduced product of u and v is trivial")
    dec = _decompose(base)
    t, m = dec.conjugator, dec.core
    if len(mc.u1) <= len(t):
        return ShirvCase1(mc.u1, mc.a, t[len(mc.u1):])
    if len(mc.u1) < len(t) + len(m):
        c1 = mc.u1[len(t):]
        return ShirvCase2(t, c1, m[len(c1):], mc.a)
    k = len(mc.u1) - len(t) - len(m)
    return ShirvCase3(mc.v1, t[len(t) - k:], mc.a)


def shirv4_decompose(u: Word, v: Word, d: Word) -> Shirv4Witness:
    """A pair p, q (one a rotation of u, the other of v) whose product
    realizes u*v while exhibiting the prescribed rotation d of it."""
    case = classify_shirv(u, v)
    m = cyc_product(u, v)
    shift = cyclic_shift_between(m, d)
    if shift is None:
        raise ValueError("d is not a rotation of the product of u and v")
    if isinstance(case, ShirvCase2):
        t, c1, c2, a = case.t, case.c1, case.c2, case.a
        if d == m:
            b = concat(a, t)
            return Shirv4CaseB(concat(c1, b), concat(inverse(b), c2), b,
                               m[:0], c1, c2, "pq", False)
        d1, d2 = m[:shift], m[shift:]
        if shift >= len(c1):
            lam = d1[len(c1):]
            b = concat(a, t)
            p = concat(c1, b)
            q = concat(inverse(b), concat(lam, d2))
            return Shirv4CaseB(p, q, b, d2, c1, lam, "pq", False)
        lam = c1[shift:]
        b = concat(inverse(t), inverse(a))
        p = concat(b, c2)
        q = concat(d1, concat(lam, inverse(b)))
        return Shirv4CaseB(p, q, b, lam, c2, d1, "qp", True)
    if d == m:
        c1, c2 = m, m[:0]
    else:
        c1, c2 = m[:shift], m[shift:]
    if isinstance(case, ShirvCase1):
        p = concat(case.a, case.u1)
    else:
        p = concat(case.v1, inverse(case.a))
    r = case.s
    q = concat(inverse(p), concat(r, concat(c1, concat(c2, inverse(r)))))
    return Shirv4CaseA(p, q, r, c1, c2)


def _case1_identity(big_u, big_v, u1, a, s, m):
    # big_u = u1 a and big_v = a^-1 s m s^-1 u1^-1 exactly; emits the
    # four-term identity together with its collapse data
    b = concat(inverse(a), s)
    wit = _branch2(b, m)
    alpha = concat(inverse(s), inverse(u1))
    c = inverse(wit.w2)
    h = HElement([(alpha, big_u), (alpha, big_v)])
    h2 = HElement([(inverse(wit.b1), big_v), (inverse(wit.b1), big_u)])
    identity = identity_from_equivalence(h, h2, c)
    q = _rho(concat(concat(alpha, wit.b1), wit.w2))
    gamma = _rho(concat(inverse(wit.w2), inverse(wit.b1)))
    cinp = CollapsehInput(alpha=alpha, beta=alpha, gamma=gamma, delta=gamma,
                          u=big_u, v=big_v, p=m, q=q, n=wit.n)
    return identity, cinp


def puzo_witness(u: Word, v: Word) -> PuzoReport:
    """The full rotation report for u*v versus v*u."""
    case = classify_shirv(u, v)
    uv_dec, uv_trace = cyc_reduce(concat(u, v))
    vu_dec, vu_trace = cyc_reduce(concat(v, u))
    m = uv_dec.core
    shift = cyclic_shift_between(m, vu_dec.core)
    if isinstance(case, ShirvCase1):
        identity, cinp = _case1_identity(u, v, case.u1, case.a, case.s, m)
        perm = frozenset((2, 4))
    elif isinstance(case, ShirvCase2):
        alpha = inverse(case.t)
        gamma = _rho(concat(case.c1, case.a))
        h = HElement([(alpha, u), (alpha, v)])
        h2 = HElement([(case.a, v), (case.a, u)])
        identity = identity_from_equivalence(h, h2, case.c1)
        q = _rho(concat(inverse(case.t), concat(inverse(case.a), inverse(case.c1))))
        cinp = CollapsehInput(alpha=alpha, beta=alpha, gamma=gamma, delta=gamma,
                              u=u, v=v, p=m, q=q, n=0)
        perm = frozenset((1, 3))
    else:
        # run the first shape's pipeline on (v^-1, u^-1): with
        # u = v1^-1 s m s^-1 a and v = a^-1 v1 exactly, the pair
        # (v^-1, u^-1) decomposes as v^-1 = v1^-1 a and
        # u^-1 = a^-1 s m^-1 s^-1 v1
        identity, cinp = _case1_identity(inverse(v), inverse(u),
                                         inverse(case.v1), case.a, case.s,
                                         inverse(m))
        perm = frozenset((2, 4))
    return PuzoReport(shift, uv_trace, vu_trace, identity, perm,
                      case.case, cinp)


def verify_common_border(u: Word, v: Word, alpha: Word, beta: Word,
                         uv_trace=None, vu_trace=None) -> bool:
    """With u = alpha u' beta and v = beta^-1 v' alpha^-1, check that the
    trace of uv matches the beta block against the beta^-1 block and the
    trace of vu the alpha^-1 block against the alpha block."""
    na, nb = len(alpha), len(beta)
    if not (is_prefix(alpha, u) and is_suffix(beta, u) and na + nb <= len(u)):
        raise ValueError("u does not factor as alpha u' beta")
    if not (is_prefix(inverse(beta), v) and is_suffix(inverse(alpha), v)
            and na + nb <= len(v)):
        raise ValueError("v does not factor as beta^-1 v' alpha^-1")
    if uv_trace is None:
        uv_trace = cyc_reduce(concat(u, v))[1]
    if vu_trace is None:
        vu_trace = cyc_reduce(concat(v, u))[1]
    uv_pairs = {(e.left_pos, e.right_pos) for e in uv_trace.events}
    vu_pairs = {(e.left_pos, e.right_pos) for e in vu_trace.events}
    if any((len(u) - 1 - j, len(u) + j) not in uv_pairs for j in range(nb)):
        return False
    if any((len(v) - 1 - j, len(v) + j) not in vu_pairs for j in range(na)):
        return False
    return True


def is_cyclic_perm_term(a: Word, r: Word) -> bool:
    """True iff rho(a) is a suffix of rho(r) or rho(a^-1) a prefix of it."""
    ra, rr = _rho(a), _rho(r)
    return is_suffix(ra, rr) or is_prefix(inverse(ra), rr)
