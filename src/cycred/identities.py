"""Sequences of conjugated relators and the moves that rewrite them.

An HElement is a formal product (a1, r1)(a2, r2)...(am, rm) standing for
a1 r1 a1^-1 a2 r2 a2^-1 ... am rm am^-1.  psi evaluates it to the reduced
form of that product; phi replaces each pair by its conjugated value
rho(a r a^-1), forgetting how the value splits into conjugator and relator.

Two families of moves rewrite such sequences while preserving psi: exchanges
swap an adjacent pair of terms (type A conjugates the left term past the
right one, type B the right term past the left one), and deletions drop an
adjacent pair whose combined value reduces to 1.  A deletion is semi-Peiffer
when additionally the relators are mutually inverse, Peiffer when on top of
that the conjugators agree.  An element with psi = 1 is an identity among
the relators it mentions.

collapse_schedule emits, for the special four-term elements described by a
CollapsehInput, an explicit list of 2n+3 operations rewriting the element to
the empty sequence; collapse_element builds the element itself.

Positions in operations are 1-based; an operation at position i acts on
terms i and i+1.
"""

from typing import NamedTuple, Optional, Tuple

from .words import Word, _word, canonical_rotation, concat, inverse, power
from .reduction import _decompose, _rho


def _rho_seq(*parts):
    return _rho(_word(parts[0].alphabet, "".join([p.codes for p in parts])))


class HElement:
    """A formal product of conjugated relators.

    Both components of every term are stored in reduced form; the element
    with no terms is the trivial element.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, terms=(), alphabet=None):
        norm = []
        for a, r in terms:
            a = _rho(a)
            r = _rho(r)
            if a.alphabet != r.alphabet:
                raise ValueError("alphabet mismatch inside a term")
            if alphabet is None:
                alphabet = a.alphabet
            elif a.alphabet != alphabet:
                raise ValueError("alphabet mismatch across terms")
            norm.append((a, r))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", tuple(norm))

    def __setattr__(self, *_):
        raise AttributeError("HElement is immutable")

    def __eq__(self, other):
        return (isinstance(other, HElement) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, self.terms))

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self):
        return "HElement(%r)" % (list(self.terms),)

    @property
    def is_trivial(self):
        return not self.terms


class PhiElement(NamedTuple):
    terms: Tuple[Tuple[Word, Word], ...]  # (conjugated value, relator)


class ExchangeA(NamedTuple):
    pos: int


class ExchangeB(NamedTuple):
    pos: int


class Deletion(NamedTuple):
    pos: int
    kind: str = "general"  # "general" | "semiPeiffer" | "peiffer"


class CollapsehInput(NamedTuple):
    alpha: Word
    beta: Word
    gamma: Word
    delta: Word
    u: Word
    v: Word
    p: Word
    q: Word
    n: int


def psi(h: HElement) -> Word:
    """The reduced form of the full conjugated product."""
    if h.alphabet is None:
        raise ValueError("element carries no alphabet")
    return _rho(_word(h.alphabet, "".join([a.codes + r.codes + inverse(a).codes
                                           for a, r in h.terms])))


def phi(h: HElement) -> PhiElement:
    return PhiElement(tuple((_rho_seq(a, r, inverse(a)), r) for a, r in h.terms))


def _check_pos(nterms, pos):
    if not isinstance(pos, int) or not 1 <= pos <= nterms - 1:
        raise ValueError("position %r does not address an adjacent pair of %d terms"
                         % (pos, nterms))


def _check_deletion(a, r, b, s, kind):
    if _rho_seq(a, r, inverse(a), b, s, inverse(b)):
        raise ValueError("deletion: combined value of the pair is not trivial")
    if kind == "general":
        return
    if kind in ("semiPeiffer", "peiffer"):
        if _rho(inverse(r)) != _rho(s):
            raise ValueError("deletion (%s): relators are not mutually inverse" % kind)
        if kind == "peiffer" and a != b:
            raise ValueError("deletion (peiffer): conjugators differ")
        return
    raise ValueError("unknown deletion kind %r" % (kind,))


def apply_op(h: HElement, op) -> HElement:
    terms = list(h.terms)
    _check_pos(len(terms), op.pos)
    i = op.pos - 1
    (a, r), (b, s) = terms[i], terms[i + 1]
    if isinstance(op, ExchangeA):
        terms[i] = (b, s)
        terms[i + 1] = (_rho_seq(b, inverse(s), inverse(b), a), r)
    elif isinstance(op, ExchangeB):
        terms[i] = (_rho_seq(a, r, inverse(a), b), s)
        terms[i + 1] = (a, r)
    elif isinstance(op, Deletion):
        _check_deletion(a, r, b, s, op.kind)
        del terms[i:i + 2]
    else:
        raise ValueError("unknown operation %r" % (op,))
    return HElement(terms, alphabet=h.alphabet)


def apply_phi_op(ph: PhiElement, op) -> PhiElement:
    """The same moves on conjugated values: exchanges conjugate one value by
    the other, a deletion drops a pair of mutually inverse values."""
    terms = list(ph.terms)
    _check_pos(len(terms), op.pos)
    i = op.pos - 1
    (va, r), (vb, s) = terms[i], terms[i + 1]
    if isinstance(op, ExchangeA):
        terms[i] = (vb, s)
        terms[i + 1] = (_rho_seq(inverse(vb), va, vb), r)
    elif isinstance(op, ExchangeB):
        terms[i] = (_rho_seq(va, vb, inverse(va)), s)
        terms[i + 1] = (va, r)
    elif isinstance(op, Deletion):
        if _rho_seq(va, vb):
            raise ValueError("deletion: combined value of the pair is not trivial")
        del terms[i:i + 2]
    else:
        raise ValueError("unknown operation %r" % (op,))
    return PhiElement(tuple(terms))


def execute(h: HElement, ops) -> HElement:
    cur = h
    for i, op in enumerate(ops):
        try:
            cur = apply_op(cur, op)
        except ValueError as exc:
            raise ValueError("op %d: %s" % (i, exc)) from exc
    return cur


def h_from_product(terms) -> HElement:
    """Ingest (conjugator, relator) pairs, reducing both components."""
    return HElement(terms)


def h_for_cyc_product(u: Word, v: Word) -> HElement:
    """The two-term element with psi equal to cyc_product(u, v): both words
    conjugated by the inverse of the conjugator of their concatenation."""
    alpha = inverse(_decompose(concat(u, v)).conjugator)
    return HElement([(alpha, u), (alpha, v)])


def conjugate(c: Word, h: HElement) -> HElement:
    """The action of c on h: every conjugator a becomes rho(c a)."""
    return HElement([(_rho_seq(c, a), r) for a, r in h.terms],
                    alphabet=h.alphabet)


def identity_from_equivalence(h: HElement, h2: HElement, c: Word) -> HElement:
    """Given psi(h) = rho(c psi(h2) c^-1), splice h with the reversed and
    inverted conjugate of h2 into a single element with psi = 1."""
    if psi(h) != _rho_seq(c, psi(h2), inverse(c)):
        raise ValueError("the two elements are not equivalent under the given conjugator")
    extra = [(_rho_seq(c, b), inverse(s)) for b, s in reversed(h2.terms)]
    return HElement(tuple(h.terms) + tuple(extra), alphabet=h.alphabet)


def collapse_element(inp: CollapsehInput) -> HElement:
    return HElement([(inp.alpha, inp.u), (inp.beta, inp.v),
                     (inp.gamma, inverse(inp.u)), (inp.delta, inverse(inp.v))])


def _check_collapse_input(inp):
    if not isinstance(inp.n, int) or inp.n < 0:
        raise ValueError("n must be a natural number")
    pn = power(inp.p, inp.n)
    hypotheses = (
        ("alpha", _rho_seq(inp.alpha, inp.u, inverse(inp.alpha)),
         _rho_seq(inverse(pn), inverse(inp.q))),
        ("beta", _rho_seq(inp.beta, inp.v, inverse(inp.beta)),
         _rho_seq(inp.q, pn, inp.p)),
        ("gamma", _rho_seq(inp.gamma, inverse(inp.u), inverse(inp.gamma)),
         _rho_seq(pn, inp.q)),
        ("delta", _rho_seq(inp.delta, inverse(inp.v), inverse(inp.delta)),
         _rho_seq(inverse(inp.q), inverse(pn), inverse(inp.p))),
    )
    for name, got, want in hypotheses:
        if got != want:
            raise ValueError("collapse input: the %s reduced-form hypothesis fails" % name)


def collapse_schedule(inp: CollapsehInput):
    """The explicit 2n+3 operation list rewriting collapse_element(inp) to
    the trivial element: n interleaved B-exchanges at positions 1 and 3, one
    A-exchange at position 2, then two semi-Peiffer deletions at position 1."""
    _check_collapse_input(inp)
    ops = []
    for _ in range(inp.n):
        ops.append(ExchangeB(1))
        ops.append(ExchangeB(3))
    ops.append(ExchangeA(2))
    ops.append(Deletion(1, "semiPeiffer"))
    ops.append(Deletion(1, "semiPeiffer"))
    return tuple(ops)


def is_proper_power(w: Word) -> bool:
    """True iff the cyclically reduced form of w is a k-th power, k >= 2."""
    core = _decompose(w).core.codes
    n = len(core)
    for d in range(1, n):
        if n % d == 0 and core == core[:d] * (n // d):
            return True
    return False


def pairwise_nonconjugate(relators) -> bool:
    """True iff no two of the words are conjugate: conjugacy is rotation
    equivalence of cyclically reduced forms."""
    seen = set()
    for r in relators:
        canon = canonical_rotation(_decompose(r).core)[0]
        if canon in seen:
            return False
        seen.add(canon)
    return True
