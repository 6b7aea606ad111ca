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
rotate: positions are shifted modulo the length and the events re-sequenced
by a fixed scheduler, because a pair that is internal for uv may be external
for vu and vice versa.

cancel_any_order removes one eligible pair at a time in an order picked by a
named policy or a seeded RNG; the residual is always a cyclic rotation of
rho_hat(w), which the arbitrary-order tests exercise heavily.
"""

import random
from typing import NamedTuple, Tuple, Union

from .words import Word, _code, concat, is_reduced


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


def _reduce_stack(w):
    stack = []  # (letter, original position)
    events = []
    for pos, letter in enumerate(w.letters):
        if stack and stack[-1][0] == letter.inverse():
            events.append(CancellationEvent(stack.pop()[1], pos, "internal"))
        else:
            stack.append((letter, pos))
    return stack, events


def reduce(w: Word):
    """rho(w) together with the (internal-only) trace that produced it."""
    stack, events = _reduce_stack(w)
    out = Word(w.alphabet, tuple(l for l, _ in stack))
    return out, CancellationTrace(len(w.letters), tuple(events))


def _rho(w):
    return reduce(w)[0]


def cyc_reduce(w: Word):
    """The decomposition rho(w) = t core t^-1 with core cyclically reduced,
    plus the trace extending reduce's by one external event per letter of t."""
    stack, events = _reduce_stack(w)
    lo, hi = 0, len(stack)
    while hi - lo >= 2 and stack[lo][0] == stack[hi - 1][0].inverse():
        events.append(CancellationEvent(stack[lo][1], stack[hi - 1][1], "external"))
        lo += 1
        hi -= 1
    conjugator = Word(w.alphabet, tuple(l for l, _ in stack[:lo]))
    core = Word(w.alphabet, tuple(l for l, _ in stack[lo:hi]))
    return (CycRedDecomposition(conjugator, core),
            CancellationTrace(len(w.letters), tuple(events)))


def reduced_product(u: Word, v: Word) -> Word:
    return reduce(concat(u, v))[0]


def cyc_product(u: Word, v: Word) -> Word:
    return cyc_reduce(concat(u, v))[0].core


def max_cancellation(u: Word, v: Word) -> MaxCancellation:
    """u = u1 a, v = a^-1 v1 with a the longest cancelling block, so that
    rho(uv) = u1 v1 exactly."""
    if not is_reduced(u) or not is_reduced(v):
        raise ValueError("max_cancellation needs reduced inputs")
    # both inputs reduced, so cancellation is confined to the junction
    k = 0
    while k < min(len(u), len(v)) and u.letters[len(u) - 1 - k] == v.letters[k].inverse():
        k += 1
    return MaxCancellation(u[:len(u) - k], u[len(u) - k:], v[k:])


class _Survivors:
    """Positions 0..n-1 of a word as a doubly linked list of the positions
    not yet cancelled; shared by replay_trace, the scheduler whose output it
    must accept, and cancel_any_order.  The words can be long, so the flags
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
    n = len(w.letters)
    if trace.original_length != n:
        raise ValueError("trace expects length %d, word has length %d"
                         % (trace.original_length, n))
    live = _Survivors(n)
    alive = live.alive
    for idx, e in enumerate(trace.events):
        l, r = e.left_pos, e.right_pos
        ok = 0 <= l < r < n and alive[l] and alive[r] \
            and w.letters[l] == w.letters[r].inverse()
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
    return Word(w.alphabet, tuple(w.letters[i] for i in range(n) if alive[i]))


def _schedule(n, pairs):
    # Re-sequence removal pairs so that each fires as a valid event:
    # innermost (adjacent-among-survivors) first with leftmost tie-break,
    # else the outermost pair as an external event.  Pairs that never become
    # fireable are appended as given; replay will reject them.
    remaining = list(pairs)
    live = _Survivors(n)
    events = []
    progress = True
    while remaining and progress:
        progress = False
        best = None
        kind = "internal"
        for (l, r) in remaining:
            if live.nxt[l] == r and (best is None or l < best[0]):
                best = (l, r)
        if best is None:
            ends = live.ends()
            if ends in remaining:
                best = ends
                kind = "external"
        if best is not None:
            remaining.remove(best)
            live.remove(*best)
            events.append(CancellationEvent(*best, kind))
            progress = True
    for (l, r) in remaining:
        events.append(CancellationEvent(l, r, "internal"))
    return tuple(events)


def rotate_trace(trace: CancellationTrace, shift: int) -> CancellationTrace:
    """Shift every position by shift modulo the original length and
    re-sequence; each event's internal/external kind is recomputed."""
    n = trace.original_length
    if n == 0:
        return trace
    pairs = []
    for e in trace.events:
        a = (e.left_pos + shift) % n
        b = (e.right_pos + shift) % n
        pairs.append((min(a, b), max(a, b)))
    return CancellationTrace(n, _schedule(n, pairs))


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
    and a seed draws an index into that list.

    O(n) steps on the letter codes (plus C-level list shifts): the survivors
    are a _Survivors linked list, the left positions of the internal
    candidates a sorted list that changes only around each removed pair, and
    the external candidate a test of the two ends.
    """
    if isinstance(chooser, bool) or not isinstance(chooser, (str, int)):
        raise ValueError("chooser must be a policy name or an integer seed")
    rng = None
    if isinstance(chooser, int):
        rng = random.Random(chooser)
    elif chooser not in POLICIES:
        raise ValueError("unknown policy %r" % (chooser,))
    code = _code(w)
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
    out = Word(w.alphabet, tuple(l for l, a in zip(w.letters, live.alive) if a))
    return out, CancellationTrace(n, tuple(events))
