"""Words over a symmetrized alphabet.

A word is a finite sequence of letters, where each letter is a generator of a
fixed alphabet together with a sign.  Words are plain immutable values: the
functions in this module are total on their stated domains and never mutate
their arguments.  Free reduction and everything that depends on it live in
cycred.reduction; this module only knows about the free monoid on the
symmetrized alphabet, the cyclic rotation action, and letter bookkeeping.

Letters of the same alphabet are ordered generator by generator with the
positive sign first, so for an alphabet (x, y) the order is
x < x^-1 < y < y^-1.  That order fixes canonical_rotation and every "least
letter" tie-break used elsewhere.

A Word is its alphabet and the str `codes`, one code point per letter:
generator g with sign e is 2g + (e < 0), so code order is letter order, the
inverse of code c is c ^ 1, and inverse, concat, rotate and slicing are str
operations.  Letters are checked at the boundary (Word(...), Alphabet.word,
the codecs of cycred.syntax), not when the library builds a word from codes
it holds.  Generators from 27,648 up have surrogate codes, so encoding codes
needs "surrogatepass".
"""

import re
from typing import NamedTuple, Optional

# every letter is one code point, so an alphabet may use half the code space
_MAX_GENERATORS = 0x110000 // 2


class Letter(NamedTuple):
    generator: int
    sign: int

    def inverse(self):
        return Letter(self.generator, -self.sign)


def letter_key(letter):
    """Sort key realizing the letter order described in the module docstring."""
    return (letter.generator, 0 if letter.sign > 0 else 1)


class _Table(dict):
    """A dict that computes a missing value from its key, so str.translate
    and map read it at C speed and it holds only the keys asked for."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# code point -> code point of the inverse letter, for str.translate
_INVERSE = _Table(lambda c: c ^ 1)
# code -> its interned Letter
_LETTER = _Table(lambda ch: Letter(ord(ch) >> 1, -1 if ord(ch) & 1 else 1))


class Alphabet:
    """An ordered tuple of distinct generator names."""

    __slots__ = ("generators",)

    def __init__(self, *names):
        if len(names) > _MAX_GENERATORS:
            raise ValueError("an alphabet holds at most %d generators, got %d"
                             % (_MAX_GENERATORS, len(names)))
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        for n in names:
            if not isinstance(n, str) or not n:
                raise ValueError("generator names must be nonempty strings")
        object.__setattr__(self, "generators", names)

    def __setattr__(self, *_):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return "Alphabet(%s)" % ", ".join(repr(g) for g in self.generators)

    def letter(self, name, sign=1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1, got %r" % (sign,))
        try:
            idx = self.generators.index(name)
        except ValueError:
            raise ValueError("unknown generator %r" % (name,)) from None
        return Letter(idx, sign)

    def word(self, items=()):
        """Build a word from Letters, (generator index, sign) pairs, or
        (name, sign) pairs; the three styles can be mixed."""
        n = len(self.generators)
        codes = []
        for it in items:
            g, s = it
            if isinstance(g, str) and not isinstance(it, Letter):
                g = self.letter(g, s).generator
            if not (0 <= g < n and s in (1, -1)):
                raise ValueError("letter %r outside alphabet" % (Letter(g, s),))
            codes.append(chr(2 * g + (s < 0)))
        return _word(self, "".join(codes))

    def empty(self):
        return _word(self, "")


class Word:
    """An immutable sequence of letters over one alphabet.

    No freeness assumption is made: a Word may contain adjacent mutually
    inverse letters.  Equality is letter for letter over equal alphabets.
    The letters are held as `codes` (see above); `letters` spells them out.
    """

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet, letters):
        if not isinstance(alphabet, Alphabet):
            raise TypeError("alphabet must be an Alphabet")
        letters = tuple(letters)
        for l in letters:
            if not isinstance(l, Letter):
                raise ValueError("letter %r outside alphabet" % (l,))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", alphabet.word(letters).codes)

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    @property
    def letters(self):
        """The letters, as interned Letters; O(len) on every access."""
        return tuple(map(_LETTER.__getitem__, self.codes))

    def __eq__(self, other):
        return (isinstance(other, Word) and self.codes == other.codes
                and (self.alphabet is other.alphabet
                     or self.alphabet == other.alphabet))

    def __hash__(self):
        return hash((self.alphabet, self.codes))

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _word(self.alphabet, self.codes[i])
        return _LETTER[self.codes[i]]

    def __iter__(self):
        return map(_LETTER.__getitem__, self.codes)

    def __bool__(self):
        return bool(self.codes)

    def __repr__(self):
        return "<Word %s>" % (_spaced(self) or "1")


def _spaced(w):
    """w's letters as space-separated tokens name and name^-1."""
    names = w.alphabet.generators
    return " ".join([names[c >> 1] + "^-1" if c & 1 else names[c >> 1]
                     for c in map(ord, w.codes)])


def _word(alphabet, codes):
    """The Word over alphabet with the given codes, unchecked: the codes
    must come from words over alphabet."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "codes", codes)
    return w


def _agree(s, i, t, j, m):
    """The length of the longest common prefix of s[i:i + m] and
    t[j:j + m], by bisection on slices."""
    lo, hi = 0, m + 1  # equal on [0, lo), and unequal on [0, hi) if hi <= m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s[i + lo:i + mid] == t[j + lo:j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _same_alphabet(u, v):
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch: %r vs %r" % (u.alphabet, v.alphabet))


def concat(u: Word, v: Word) -> Word:
    _same_alphabet(u, v)
    return _word(u.alphabet, u.codes + v.codes)


def inverse(w: Word) -> Word:
    return _word(w.alphabet, w.codes[::-1].translate(_INVERSE))


def reverse(w: Word) -> Word:
    return _word(w.alphabet, w.codes[::-1])


def rotate(w: Word, k: int) -> Word:
    """Cyclic left rotation: the first k mod len(w) letters move to the end."""
    c = w.codes
    k %= len(c) or 1
    return _word(w.alphabet, c[k:] + c[:k])


def cyclic_shift_between(u: Word, v: Word) -> Optional[int]:
    """The least k >= 0 with rotate(u, k) == v, or None if no rotation works.

    One substring search of v in u u with its last letter dropped, on the
    codes; the first hit is the least k.  CPython's str.find guards long
    searches with the linear two-way algorithm, so the cost is O(n)."""
    _same_alphabet(u, v)
    if len(u) != len(v):
        return None
    if len(u) == 0:
        return 0
    k = (u.codes + u.codes[:-1]).find(v.codes)
    return k if k >= 0 else None


def canonical_rotation(w: Word):
    """The least rotation of w in letter order, with the least shift achieving
    it.  Constant on rotation classes, hence usable for deduplication.

    Two-pointer least-rotation scan (the Booth family; K. S. Booth, IPL
    1980) over the codes, O(n): i and j are the surviving candidate
    starts, and a mismatch after k equal letters rules out the k + 1 starts
    beginning at the candidate with the larger letter.  No least start is
    ever ruled out, and every start below min(i, j) is, so min(i, j) is the
    least shift."""
    n = len(w.codes)
    c = w.codes * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = c[i + k], c[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    shift = min(i, j)
    return rotate(w, shift), shift


def is_reduced(w: Word) -> bool:
    """No letter is followed by its inverse.  Inverse codes differ in their
    lowest bit alone, so the scan XORs the low bytes of the codes, as one
    integer, with themselves shifted by one, and checks each hit exactly."""
    c = w.codes
    low = c.encode("utf-32-le", "surrogatepass")[::4]
    flips = (int.from_bytes(low[1:], "little")
             ^ int.from_bytes(low[:-1], "little")).to_bytes(len(low[1:]), "little")
    return not any(ord(c[m.start()]) ^ 1 == ord(c[m.end()])
                   for m in re.finditer(b"\x01", flips))


def is_cyclically_reduced(w: Word) -> bool:
    """Reduced, and the last letter is not the inverse of the first.  Words of
    length at most 1 are cyclically reduced."""
    c = w.codes
    return is_reduced(w) and not (len(c) >= 2 and ord(c[-1]) ^ 1 == ord(c[0]))


def is_prefix(p: Word, w: Word) -> bool:
    _same_alphabet(p, w)
    return w.codes.startswith(p.codes)


def is_suffix(s: Word, w: Word) -> bool:
    _same_alphabet(s, w)
    return w.codes.endswith(s.codes)


def is_subword(v: Word, w: Word) -> bool:
    """Factor containment: w == p v q for some p, q."""
    _same_alphabet(v, w)
    return v.codes in w.codes


class LeviSplit(NamedTuple):
    side: str        # "left", "right", or "aligned"
    overlap: Word


def levi_split(u1: Word, u2: Word, v1: Word, v2: Word) -> LeviSplit:
    """Given u1 u2 == v1 v2 as plain concatenations, return which factor
    overhangs and by what.

    side "left" means u1 == v1 + overlap and v2 == overlap + u2; side "right"
    is the mirror image; "aligned" means u1 == v1 with empty overlap.
    """
    if concat(u1, u2) != concat(v1, v2):
        raise ValueError("levi_split requires concat(u1, u2) == concat(v1, v2)")
    if len(u1) > len(v1):
        return LeviSplit("left", u1[len(v1):])
    if len(u1) < len(v1):
        return LeviSplit("right", v1[len(u1):])
    return LeviSplit("aligned", u1[:0])


def power(w: Word, n: int) -> Word:
    """w concatenated with itself n times; n < 0 uses the inverse."""
    if n < 0:
        return power(inverse(w), -n)
    return _word(w.alphabet, w.codes * n)
