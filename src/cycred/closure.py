"""Length-capped enumeration of the smallest set of cyclically reduced words
containing a seed set and closed under the cyclically reduced product and
under rotation.

The closure is infinite in general, so enumeration is truncated: words
longer than max_len are discarded at birth, and `saturated` means no further
word within the cap can be derived, never that the untruncated closure is
exhausted.  Two dedup conventions are supported: canonical_dedup stores one
canonical rotation per class, otherwise every rotation is materialized.  The
empty word is never stored.

Rounds use semi-naive evaluation: a step multiplies pairs of members with
at least one factor in the frontier (the words added by the previous round).
Under canonical dedup a class stands for all its rotations, and the product
depends on the actual rotations multiplied, not just their classes, so a
step expands each pair to all rotation pairs.

Each pair is multiplied once, as (x, y) with x <= y in length-then-letter
order.  That loses nothing: uv and vu are conjugate, by u, so rho_hat(uv)
and rho_hat(vu) are rotations of each other, and a member set closed under
rotation (materialized, or a class per canonical rep) gains the same words
from either order.  The cap check and the stored reps are therefore the
same for both orders in both dedup modes.

Members are cyclically reduced, and so is each rotation, so in a product
x_i y_j of rotations of x and y cancellation begins at the junction (the
last letters of x_i against the first of y_j) and goes on around the ends
(the first letters of x_i against the last of y_j).  The K letters of x
that cancel against y that way form a cyclic factor of x straddling the cut
point i, and their inverse is a cyclic factor of y straddling the cut point
j: a piece, in small-cancellation terms (R. C. Lyndon and P. E. Schupp,
Combinatorial Group Theory, 1977, ch. V).  If neither factor cancels
completely, rho_hat(x_i y_j) has |x| + |y| - 2K letters.  If one does, it
has at most max(|x|, |y|) - min(|x|, |y|) letters, and K = min(|x|, |y|).

So when |x| + |y| > max_len, set c = ceil((|x| + |y| - max_len) / 2).  A
product within the cap has K >= c: with no complete cancellation that is
the length count, and otherwise K = min(|x|, |y|) >= c because neither
|x| nor |y| exceeds max_len.  Then a length-c window of the piece is a
cyclic factor of x at some p whose inverse occurs in y at some q, and
(i, j) = (p + k, q + c - k) for a split k in 0..c.  Conversely, at every cut
pair such a window names, c letters of x cancel against y, or one factor
cancels completely, so the product is within the cap.  A long pair is
therefore multiplied only at cut pairs this join on pieces names, and no
over-cap product is ever computed; a pair within the cap is scanned in
full.  Of the c + 1 cut pairs one window names, only the least is
multiplied: the others give rotations of its core (see _cuts), so they
could only be duplicates.  Under materialized dedup only the cut pair
(0, 0) is multiplied, and the join reduces to the c + 1 splits straddling
it.

The inner loop works on the members' code strings (see cycred.words) and
keeps every rotation of every member, so a product is a duplicate exactly
when its core is already known.  Only an admitted product is rebuilt as a
Word, through the traceless cyclic reduction and the stored-rep rules, and
only then does it get its provenance.  Member pairs, and the cut pairs
within each, are visited in sorted order and every product is admitted as
soon as it is computed, so which derivation of a word comes first, and with
it its provenance, never depends on set iteration order.

A round stops as soon as the members fill the sphere: every cyclically
reduced word of length 1..max_len over the k generators that occur in the
members (the canonical rotation of every such word under canonical dedup).
Products and rotations add no letter, so the members always lie in that
sphere, and once their count equals its size they are all of it: every
product left is a duplicate, and stopping loses nothing, not even a
witness.  A set that is full when a step starts returns at once, with an
empty frontier and saturated.  The count is checked only after an
admission, so a set that never fills, such as that of a presentation of a
nontrivial group, pays nothing for it.  Over k generators

    c(d) = (2k - 1)^d + 1 + (k - 1)(1 + (-1)^d)

words of length d are cyclically reduced, and by Burnside's lemma the
rotation classes of length n number (1/n) sum_{t < n} c(gcd(n, t)), since a
rotation by t fixes exactly the words of period gcd(n, t).

With track_provenance, every member carries a sequence of conjugated seed
relators whose product reduces to exactly that member; it is dropped by
save/load.
"""

import os
from functools import lru_cache
from itertools import product
from math import gcd
from typing import FrozenSet, NamedTuple, Optional

from .words import (_INVERSE, Alphabet, Word, _word, canonical_rotation,
                    concat, inverse, is_cyclically_reduced, rotate)
from .reduction import _cyc, _decompose
from .identities import HElement, conjugate
from .syntax import format_compact, parse_compact


class ClosureConfig(NamedTuple):
    max_len: int
    max_rounds: int
    include_inverses: bool = True
    canonical_dedup: bool = True


class ClosureSet(NamedTuple):
    alphabet: Alphabet
    config: ClosureConfig
    members: FrozenSet[Word]
    frontier: FrozenSet[Word]
    rounds_done: int
    saturated: bool
    provenance: Optional[dict] = None


class ContainsResult(NamedTuple):
    found: bool
    over_cap: bool


def _word_key(w):
    # code order is letter_key order (see cycred.words)
    return (len(w.codes), w.codes)


def _rotation_provenance(base, shift, h):
    if h is None or shift == 0:
        return h
    return conjugate(inverse(base[:shift]), h)


def _reps(core, canonical, h):
    """Stored representatives of core's rotation class, with provenance."""
    if canonical:
        rep, shift = canonical_rotation(core)
        return [(rep, _rotation_provenance(core, shift, h))]
    return [(rotate(core, k), _rotation_provenance(core, k, h))
            for k in range(len(_rotations(core.codes)))]


def _rotations(codes):
    """The distinct rotations of a word's codes, indexed by least shift: for
    a word of period d they are the rotations by 0, ..., d - 1."""
    rots = [codes]
    for k in range(1, len(codes)):
        r = codes[k:] + codes[:k]
        if r == codes:
            break
        rots.append(r)
    return rots


@lru_cache(maxsize=None)
def _sphere_size(k, max_len, canonical):
    """The number of cyclically reduced words of length 1..max_len over k
    generators, or of their rotation classes when canonical."""
    def c(d):  # cyclically reduced words of length d
        return (2 * k - 1) ** d + 1 + (k - 1) * (1 + (-1) ** d)
    if not canonical:
        return sum(c(n) for n in range(1, max_len + 1))
    return sum(sum(c(gcd(n, t)) for t in range(n)) // n
               for n in range(1, max_len + 1))


def _cyc_core(a, b):
    """rho_hat(ab) for reduced codes a and b: cancellation starts at the
    junction, and what survives it is reduced."""
    la = len(a)
    k, m = 0, min(la, len(b))
    while k < m and ord(a[la - 1 - k]) ^ 1 == ord(b[k]):
        k += 1
    w = a[:la - k] + b[k:]
    lo, hi = 0, len(w)
    while hi - lo >= 2 and ord(w[lo]) ^ 1 == ord(w[hi - 1]):
        lo += 1
        hi -= 1
    return w[lo:hi]


def seed(relators, config: ClosureConfig, *, track_provenance=False) -> ClosureSet:
    relators = sorted(set(relators), key=_word_key)
    if not relators:
        raise ValueError("relator set is empty")
    if not isinstance(config.max_len, int) or config.max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not isinstance(config.max_rounds, int) or config.max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    alphabet = relators[0].alphabet
    for r in relators:
        if r.alphabet != alphabet:
            raise ValueError("relators use differing alphabets")
    sources = []
    for r in relators:
        sources.append(r)
        if config.include_inverses:
            sources.append(inverse(r))
    members = set()
    prov = {} if track_provenance else None
    for src in sources:
        dec = _decompose(src)
        core = dec.core
        if not core or len(core) > config.max_len:
            continue
        h = None
        if track_provenance:
            h = HElement([(inverse(dec.conjugator), src)])
        for rep, hrep in _reps(core, config.canonical_dedup, h):
            if rep not in members:
                members.add(rep)
                if track_provenance:
                    prov[rep] = hrep
    members = frozenset(members)
    return ClosureSet(alphabet, config, members, members, 0, False, prov)


def _admit(x, i, y, j, prov, canonical):
    """The stored representatives of rho_hat(rotate(x, i) rotate(y, j)),
    with provenance built from prov when it is given."""
    dec = _decompose(concat(rotate(x, i), rotate(y, j)))
    h = None
    if prov is not None:
        hx = _rotation_provenance(x, i, prov[x])
        hy = _rotation_provenance(y, j, prov[y])
        h = conjugate(inverse(dec.conjugator),
                      HElement(hx.terms + hy.terms, alphabet=x.alphabet))
    return _reps(dec.core, canonical, h)


def _cuts(x, y, c, every_shift, windows):
    """Ascending cut pairs (i, j) whose products of rotation i of x and
    rotation j of y give, up to rotation, every such product in which at
    least c letters of x cancel against y.

    x and y are step's per-member records (rotations, codes of the
    inverse doubled, codes doubled).  With every_shift, i and j run over
    the least shifts of the distinct rotations.  A length-c cyclic factor of
    x at p whose inverse occurs in y at q names, for each split k in 0..c,
    the cut pair (p + k, q + c - k): the last k letters of the factor end
    rotation i and cancel the first k letters of rotation j at the junction,
    and its first c - k letters start rotation i and cancel the last c - k of
    rotation j around the ends.  Only the least of those c + 1 cut pairs is
    returned.  Going from (i, j) to (i - 1, j + 1) moves a letter a of the
    factor from the end of rotation i to its start and a^-1 from the start
    of rotation j to its end, which conjugates the product by a.  So the
    other splits give rotations of the least one's core: trivial when it
    is, and otherwise known to the caller once it has multiplied the least.
    windows maps c to the inverted length-c factors of x; it is filled here
    and kept by the caller for as long as x stays the same.

    Without every_shift only (0, 0) is asked about, and the splits straddling
    both cut points 0 are checked letter by letter.
    """
    xrots, xinv, _ = x
    yrots, _, ys = y
    if not every_shift:
        k = 0  # letters cancelling at the junction: x^-1 and y agree
        while k < c and xinv[k] == ys[k]:
            k += 1
        e = 0  # and around the ends: x^-1 and y end alike
        while e < c - k and xinv[-1 - e] == ys[-1 - e]:
            e += 1
        return ((0, 0),) if k + e == c else ()
    dx, dy = len(xrots), len(yrots)
    factors = windows.get(c)
    if factors is None:
        # the inverse of x's factor at p = -s - c sits at s in x^-1
        factors = windows[c] = [xinv[s:s + c] for s in range(dx)]
    text = ys[:dy + c - 1]  # the factors of y starting at q < dy
    hits = set()
    for s, f in enumerate(factors):
        if f not in text:
            continue
        q = text.find(f)
        while q >= 0:
            i, j = (-s - c) % dx, (q + c) % dy  # split k = 0
            if i + c >= dx:  # the splits k = -i mod dx, ... reach shift 0
                i, j = 0, min([(j - k) % dy for k in range(-i % dx, c + 1, dx)])
            hits.add((i, j))
            q = text.find(f, q + 1)
    return sorted(hits) if hits else ()


def _new_products(records, lengths, in_frontier, cap, canonical, known):
    """(a, i, b, j) for each product of rotation i of member a and rotation
    j of member b, in visiting order, whose core is not in known; the core's
    rotations are added to known before it is yielded."""
    n = len(records)
    for a in range(n):
        fa, x, la = in_frontier[a], records[a], lengths[a]
        left, windows = x[0], {}  # windows: see _cuts
        for b in range(a, n):
            if not (fa or in_frontier[b]):
                continue
            y = records[b]
            right = y[0]
            excess = la + lengths[b] - cap
            if excess > 0:
                cuts = _cuts(x, y, (excess + 1) // 2, canonical, windows)
            else:
                cuts = product(range(len(left)), range(len(right)))
            for i, j in cuts:
                core = _cyc_core(left[i], right[j])
                if not core or core in known:
                    continue
                known.update(_rotations(core))
                yield a, i, b, j


def step(s: ClosureSet) -> ClosureSet:
    """One round of products against the frontier, ended early once the
    members fill the sphere."""
    if s.saturated:
        raise ValueError("closure set is already saturated")
    if s.rounds_done >= s.config.max_rounds:
        raise ValueError("closure set has done its max_rounds=%d rounds"
                         % s.config.max_rounds)
    cfg = s.config
    cap, canonical = cfg.max_len, cfg.canonical_dedup
    prov = s.provenance
    new_prov = dict(prov) if prov is not None else None
    ordered = sorted(s.members, key=_word_key)
    used = set().union(*[w.codes for w in ordered])
    full = _sphere_size(len({ord(c) >> 1 for c in used}), cap, canonical)
    if len(ordered) == full:
        return ClosureSet(s.alphabet, cfg, s.members, frozenset(),
                          s.rounds_done + 1, True, new_prov)
    members = set(s.members)
    fresh = set()
    in_frontier = [w in s.frontier for w in ordered]
    lengths = [len(w) for w in ordered]
    known = set()  # every rotation of every member, as codes
    records = []   # per member, see _cuts
    for codes in [w.codes for w in ordered]:
        rots = _rotations(codes)
        known.update(rots)
        inv = codes[::-1].translate(_INVERSE)
        records.append((rots if canonical else [codes], inv + inv,
                        codes + codes))
    for a, i, b, j in _new_products(records, lengths, in_frontier, cap,
                                    canonical, known):
        for rep, h in _admit(ordered[a], i, ordered[b], j, prov, canonical):
            members.add(rep)
            fresh.add(rep)
            if new_prov is not None:
                new_prov[rep] = h
        if len(members) == full:  # the rest are duplicates
            break
    return ClosureSet(s.alphabet, cfg, frozenset(members), frozenset(fresh),
                      s.rounds_done + 1, not fresh, new_prov)


def run(s: ClosureSet) -> ClosureSet:
    """Iterate step until saturation or the round cap."""
    while not s.saturated and s.rounds_done < s.config.max_rounds:
        s = step(s)
    return s


def contains(s: ClosureSet, w: Word) -> ContainsResult:
    """Membership of the cyclically reduced form of w, with a flag telling
    whether the query exceeds the enumeration cap (and so a False may be a
    truncation artifact)."""
    if w.alphabet is not s.alphabet and w.alphabet != s.alphabet:
        raise ValueError("alphabet mismatch: query over %r, closure set over %r"
                         % (w.alphabet, s.alphabet))
    core = _cyc(w.codes)[1]
    over = len(core) > s.config.max_len
    if not core:
        return ContainsResult(False, over)
    probe = _word(w.alphabet, core)
    if s.config.canonical_dedup:
        probe = canonical_rotation(probe)[0]
    return ContainsResult(probe in s.members, over)


_HEADER = "#cycred-closure v1"


def _render(s: ClosureSet) -> str:
    names = s.alphabet.generators
    lines = ["%s alphabet=%s maxlen=%d rounds=%d maxrounds=%d saturated=%d"
             " inverses=%d canonical=%d"
             % (_HEADER, ",".join(names), s.config.max_len, s.rounds_done,
                s.config.max_rounds, int(s.saturated),
                int(s.config.include_inverses), int(s.config.canonical_dedup))]
    for w in sorted(s.members, key=_word_key):
        lines.append(format_compact(w))
    lines.append("#frontier")
    for w in sorted(s.frontier, key=_word_key):
        lines.append(format_compact(w))
    return "\n".join(lines) + "\n"


def save(s: ClosureSet, sink) -> None:
    """Write the set to a path or text file object; provenance is dropped.

    A path is written atomically: the text goes to a new file beside it,
    which then replaces it, so the path holds the old file or the whole new
    one, and a save that raises leaves no temporary file behind.
    """
    if hasattr(sink, "write"):
        sink.write(_render(s))
        return
    tmp = "%s.%s.tmp" % (os.fspath(sink), os.urandom(6).hex())
    try:
        f = open(tmp, "x", encoding="ascii")
    except OSError as exc:  # report the path the caller gave, not tmp
        raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from None
    try:
        with f:
            f.write(_render(s))
        os.replace(tmp, sink)
    except BaseException:
        os.remove(tmp)
        raise


def _parse_flag(fields, key):
    val = fields.get(key)
    if val not in ("0", "1"):
        raise ValueError("closure file: bad or missing %s field" % key)
    return val == "1"


def load(source) -> ClosureSet:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as f:
            text = f.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER + " "):
        raise ValueError("closure file: missing or unsupported version header")
    fields = {}
    for token in lines[0][len(_HEADER) + 1:].split():
        key, _, val = token.partition("=")
        fields[key] = val
    try:
        alphabet = Alphabet(*fields["alphabet"].split(","))
        max_len = int(fields["maxlen"])
        rounds_done = int(fields["rounds"])
        max_rounds = int(fields.get("maxrounds", str(max(rounds_done, 1))))
    except (KeyError, ValueError) as exc:
        raise ValueError("closure file: bad header (%s)" % exc) from None
    saturated = _parse_flag(fields, "saturated")
    config = ClosureConfig(max_len, max_rounds, _parse_flag(fields, "inverses"),
                           _parse_flag(fields, "canonical"))
    if config.max_len < 1 or config.max_rounds < 1 or rounds_done < 0:
        raise ValueError("closure file: header values out of range")
    if rounds_done > config.max_rounds:
        raise ValueError("closure file: rounds=%d exceeds maxrounds=%d"
                         % (rounds_done, config.max_rounds))
    members, frontier = set(), set()
    into = members
    for ln in lines[1:]:
        if ln == "#frontier":
            if into is frontier:
                raise ValueError("closure file: duplicate #frontier marker")
            into = frontier
            continue
        w = parse_compact(ln, alphabet)
        if not w:
            raise ValueError("closure file: the empty word cannot be a member")
        if not is_cyclically_reduced(w):
            raise ValueError("closure file: member %r is not cyclically reduced" % ln)
        if len(w) > max_len:
            raise ValueError("closure file: member %r violates the length cap" % ln)
        into.add(w)
    if into is members:
        raise ValueError("closure file: missing #frontier marker")
    if not frontier <= members:
        raise ValueError("closure file: frontier is not a subset of members")
    if saturated and frontier:
        # step marks a set saturated only when its round admitted nothing
        raise ValueError("closure file: saturated=1 with a non-empty frontier")
    for w in members:
        if config.canonical_dedup:
            if canonical_rotation(w)[0] != w:
                raise ValueError("closure file: non-canonical member under canonical dedup")
        elif any(rotate(w, k) not in members for k in range(len(w))):
            raise ValueError("closure file: members are not rotation-closed")
    return ClosureSet(alphabet, config, frozenset(members), frozenset(frontier),
                      rounds_done, saturated, None)
