"""Reduced and cyclically reduced forms, their products, and position traces.

rho(w) removes adjacent mutually inverse letter pairs until none remain; the
result does not depend on removal order.  rho_hat(w) additionally strips
mutually inverse first/last letters, so rho(w) = t rho_hat(w) t^-1 holds as
an exact concatenation for a unique prefix t.  Both products normalize a
plain concatenation: reduced_product(u, v) = rho(uv) and
cyc_product(u, v) = rho_hat(uv).

Every normalization is witnessed by a CancellationTrace: an ordered list of
events pairing positions of the original word.  An event is internal when
the two positions were adjacent among surviving positions at the moment of
removal, external when they were the outermost surviving positions.  Traces
replay against the original word with full validity checking, and they
rotate: positions are shifted modulo the length and the events re-ordered,
leftmost internal pair first, by cancel_any_order's loop in linear time,
because a pair that is internal for uv may be external for vu and vice versa.

cancel_any_order removes one eligible pair at a time in an order picked by a
named policy or a seeded RNG; the residual is always a cyclic rotation of
rho_hat(w), which the arbitrary-order tests exercise heavily.
"""

import random
from itertools import compress
from typing import NamedTuple, Tuple, Union

from .words import _INVERSE, Word, _agree, _word, concat, inverse, is_reduced


class CancellationEvent(NamedTuple):
    left_pos: int
    right_pos: int
    kind: str  # "internal" or "external"


class CancellationTrace(NamedTuple):
    original_length: int
    events: Tuple[CancellationEvent, ...]


class CycRedDecomposition(NamedTuple):
    conjugator: Word
    core: Word


class MaxCancellation(NamedTuple):
    u1: Word
    a: Word
    v1: Word


def _reduce(codes, events=None):
    """The positions of codes that survive free reduction, in order: a letter
    cancels the top of a stack of positions when it is its inverse.  Given a
    list, appends one internal event per cancelled pair."""
    inv = codes.translate(_INVERSE)
    stack = []
    for pos, c in enumerate(codes):
        if stack and inv[stack[-1]] == c:
            l = stack.pop()
            if events is not None:
                events.append(CancellationEvent(l, pos, "internal"))
        else:
            stack.append(pos)
    return stack


def _join(codes, keep):
    return "".join([codes[p] for p in keep])


def _cyc(codes, events=None):
    """The conjugator and the core of codes, as codes; given a list,
    appends _reduce's events and one external event per pair of ends
    stripped."""
    keep = _reduce(codes, events)
    red = _join(codes, keep)
    n = len(red)
    # a reduced word never cancels its middle, so k < n / 2
    k = _agree(red, 0, red[::-1].translate(_INVERSE), 0, n // 2)
    if k and events is not None:
        events += [CancellationEvent(keep[i], keep[n - 1 - i], "external")
                   for i in range(k)]
    return red[:k], red[k:n - k]


def reduce(w: Word):
    """rho(w) together with the (internal-only) trace that produced it."""
    events = []
    red = _join(w.codes, _reduce(w.codes, events))
    return _word(w.alphabet, red), CancellationTrace(len(w), tuple(events))


def _rho(w):
    return _word(w.alphabet, _join(w.codes, _reduce(w.codes)))


def cyc_reduce(w: Word):
    """The decomposition rho(w) = t core t^-1 with core cyclically reduced,
    plus the trace extending reduce's by one external event per letter of t."""
    events = []
    t, core = _cyc(w.codes, events)
    return (CycRedDecomposition(_word(w.alphabet, t), _word(w.alphabet, core)),
            CancellationTrace(len(w), tuple(events)))


def _decompose(w):
    """cyc_reduce(w) without the trace."""
    t, core = _cyc(w.codes)
    return CycRedDecomposition(_word(w.alphabet, t), _word(w.alphabet, core))


def reduced_product(u: Word, v: Word) -> Word:
    return _rho(concat(u, v))


def cyc_product(u: Word, v: Word) -> Word:
    w = concat(u, v)
    return _word(w.alphabet, _cyc(w.codes)[1])


def max_cancellation(u: Word, v: Word) -> MaxCancellation:
    """u = u1 a, v = a^-1 v1 with a the longest cancelling block, so that
    rho(uv) = u1 v1 exactly."""
    if not is_reduced(u) or not is_reduced(v):
        raise ValueError("max_cancellation needs reduced inputs")
    # both inputs reduced, so cancellation is confined to the junction
    k = _agree(inverse(u).codes, 0, v.codes, 0, min(len(u), len(v)))
    return MaxCancellation(u[:len(u) - k], u[len(u) - k:], v[k:])


class _Survivors:
    """Positions 0..n-1 of a word as a doubly linked list of the positions
    not yet cancelled; shared by replay_trace and the cancellation loop,
    whose output it must accept.  The words can be long, so the flags
    are bytes and both link lists share one int object per position."""

    __slots__ = ("n", "alive", "nxt", "prv", "head", "tail")

    def __init__(self, n):
        self.n = n
        self.alive = bytearray(b"\x01") * n
        links = list(range(-1, n + 1))
        self.prv, self.nxt = links[:-2], links[2:]
        self.head, self.tail = 0, n - 1

    def ends(self):
        """The outermost surviving positions."""
        while self.head < self.n and not self.alive[self.head]:
            self.head += 1
        while self.tail >= 0 and not self.alive[self.tail]:
            self.tail -= 1
        return self.head, self.tail

    def remove(self, l, r):
        nxt, prv = self.nxt, self.prv
        for p in (r, l):
            self.alive[p] = False
            if prv[p] >= 0:
                nxt[prv[p]] = nxt[p]
            if nxt[p] < self.n:
                prv[nxt[p]] = prv[p]


def replay_trace(w: Word, trace: CancellationTrace) -> Word:
    """Apply the events in order, checking each one, and return the residual."""
    codes = w.codes
    n = len(codes)
    if trace.original_length != n:
        raise ValueError("trace expects length %d, word has length %d"
                         % (trace.original_length, n))
    live = _Survivors(n)
    alive = live.alive
    for idx, e in enumerate(trace.events):
        l, r = e.left_pos, e.right_pos
        ok = 0 <= l < r < n and alive[l] and alive[r] \
            and ord(codes[l]) ^ 1 == ord(codes[r])
        if ok and e.kind == "internal":
            ok = live.nxt[l] == r
        elif ok and e.kind == "external":
            ok = live.ends() == (l, r)
        elif ok:
            ok = False
        if not ok:
            raise ValueError("invalid event %d: (%d, %d, %s)"
                             % (idx, e.left_pos, e.right_pos, e.kind))
        live.remove(l, r)
    return _word(w.alphabet, "".join(compress(codes, alive)))


POLICIES = ("internal-first", "external-first-when-valid",
            "rightmost-internal-first", "alternating")


def cancel_any_order(w: Word, chooser: Union[str, int]):
    """Cancel one eligible pair at a time until none remain.

    chooser is either a policy name from POLICIES or an integer seed for a
    reproducible random order.  Eligible pairs are every adjacent mutually
    inverse pair among the survivors (internal) and the first/last survivor
    pair when mutually inverse and more than two letters survive (external;
    with exactly two survivors the same pair is already internal).  The
    candidates are listed internals left to right, then the external one,
    and a seed draws an index into that list."""
    if isinstance(chooser, bool) or not isinstance(chooser, (str, int)):
        raise ValueError("chooser must be a policy name or an integer seed")
    rng = None
    if isinstance(chooser, int):
        rng = random.Random(chooser)
    elif chooser not in POLICIES:
        raise ValueError("unknown policy %r" % (chooser,))
    alive, events = _cancel(list(map(ord, w.codes)), chooser, rng)
    out = _word(w.alphabet, "".join(compress(w.codes, alive)))
    return out, CancellationTrace(len(w), tuple(events))


def _cancel(code, chooser, rng):
    """cancel_any_order's loop on codes, returning (alive flags, events).
    O(n) steps (plus C-level list shifts): the survivors are a _Survivors
    linked list, the left positions of the internal candidates a sorted list
    that changes only around each removed pair, and the external candidate a
    test of the two ends."""
    n = len(code)
    live = _Survivors(n)
    nxt, prv = live.nxt, live.prv
    cands = [l for l in range(n - 1) if code[l] ^ 1 == code[l + 1]]
    # Events take fresh position ints from pos: the caller keeps the trace,
    # and ints shared with the link lists would keep all their memory in use.
    pos = range(n)
    events = []
    left = n
    step = 0
    while True:
        ext = None
        if left > 2:
            head, tail = live.ends()
            if code[head] ^ 1 == code[tail]:
                ext = (head, tail)
        k = len(cands)
        if not k and ext is None:
            break
        # i indexes the candidate list; i == k (or -1) is the external one
        if rng is not None:
            i = rng.choice(range(k + (ext is not None)))
        elif chooser == "internal-first" or (chooser == "alternating"
                                             and step % 2 == 0):
            i = 0
        elif chooser == "rightmost-internal-first":
            i = k - 1
        else:  # external-first-when-valid, and alternating on odd steps
            i = k if ext is not None else 0
        if 0 <= i < k:
            l = cands[i]
            r = nxt[l]
            p, q = prv[l], nxt[r]
            # drop the candidates at p, l and r; p and q become adjacent
            lo = i - 1 if i and cands[i - 1] == p else i
            hi = i + 2 if i + 1 < k and cands[i + 1] == r else i + 1
            del cands[lo:hi]
            if p >= 0 and q < n and code[p] ^ 1 == code[q]:
                cands.insert(lo, p)
            events.append(CancellationEvent(pos[l], pos[r], "internal"))
        else:
            l, r = ext
            if cands and cands[-1] == prv[r]:
                cands.pop()
            if cands and cands[0] == l:
                del cands[0]
            events.append(CancellationEvent(pos[l], pos[r], "external"))
        live.remove(l, r)
        left -= 2
        step += 1
    return live.alive, events


def rotate_trace(trace: CancellationTrace, shift: int) -> CancellationTrace:
    """Shift every position by shift modulo the original length and
    re-order; each event's internal/external kind is recomputed.  The
    re-ordering is _cancel under "internal-first" on labels: pair i is
    labelled 2i and 2i + 1 and every other position -1, whose partner -2 is
    no label, so only the given pairs cancel.  Pairs that never fire are
    appended as given; replay will reject them."""
    n = trace.original_length
    if n == 0:
        return trace
    label = [-1] * n
    pairs = []
    for i, e in enumerate(trace.events):
        a, b = sorted(((e.left_pos + shift) % n, (e.right_pos + shift) % n))
        label[a], label[b] = 2 * i, 2 * i + 1
        pairs.append((a, b))
    _, events = _cancel(label, "internal-first", None)
    fired = bytearray(len(pairs))
    for e in events:
        fired[label[e.left_pos] >> 1] = 1
    events += [CancellationEvent(a, b, "internal")
               for (a, b), done in zip(pairs, fired) if not done]
    return CancellationTrace(n, tuple(events))
