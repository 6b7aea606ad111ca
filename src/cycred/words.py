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
"""

from typing import NamedTuple, Optional


class Letter(NamedTuple):
    generator: int
    sign: int

    def inverse(self):
        return Letter(self.generator, -self.sign)


def letter_key(letter):
    """Sort key realizing the letter order described in the module docstring."""
    return (letter.generator, 0 if letter.sign > 0 else 1)


class Alphabet:
    """An ordered tuple of distinct generator names."""

    __slots__ = ("generators",)

    def __init__(self, *names):
        names = tuple(names)
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
        letters = []
        for it in items:
            if isinstance(it, Letter):
                l = it
            else:
                head, sign = it
                l = self.letter(head, sign) if isinstance(head, str) else Letter(head, sign)
            letters.append(l)
        return Word(self, tuple(letters))

    def empty(self):
        return Word(self, ())


class Word:
    """An immutable sequence of letters over one alphabet.

    No freeness assumption is made: a Word may contain adjacent mutually
    inverse letters.  Equality is letter for letter over equal alphabets.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters):
        if not isinstance(alphabet, Alphabet):
            raise TypeError("alphabet must be an Alphabet")
        letters = tuple(letters)
        n = len(alphabet.generators)
        for l in letters:
            if not isinstance(l, Letter) or not (0 <= l.generator < n) or l.sign not in (1, -1):
                raise ValueError("letter %r outside alphabet" % (l,))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    def __eq__(self, other):
        return (isinstance(other, Word) and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __repr__(self):
        if not self.letters:
            return "<Word 1>"
        toks = []
        for l in self.letters:
            name = self.alphabet.generators[l.generator]
            toks.append(name if l.sign > 0 else name + "^-1")
        return "<Word %s>" % " ".join(toks)


def _same_alphabet(u, v):
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch: %r vs %r" % (u.alphabet, v.alphabet))


def concat(u: Word, v: Word) -> Word:
    _same_alphabet(u, v)
    return Word(u.alphabet, u.letters + v.letters)


def inverse(w: Word) -> Word:
    return Word(w.alphabet, tuple(l.inverse() for l in reversed(w.letters)))


def reverse(w: Word) -> Word:
    return Word(w.alphabet, tuple(reversed(w.letters)))


def rotate(w: Word, k: int) -> Word:
    """Cyclic left rotation: the first k mod len(w) letters move to the end."""
    n = len(w.letters)
    if n == 0:
        return w
    k %= n
    return Word(w.alphabet, w.letters[k:] + w.letters[:k])


def _code(w):
    """w as a tuple of ints: 2*generator + (sign < 0), so integer order is
    letter_key order and the inverse of a code c is c ^ 1.  The rotation
    kernels here and in cycred.reduction, and the closure's inner loop, all
    work on these codes."""
    return tuple(2 * l.generator + (l.sign < 0) for l in w.letters)


def cyclic_shift_between(u: Word, v: Word) -> Optional[int]:
    """The least k >= 0 with rotate(u, k) == v, or None if no rotation works.

    One substring search of v in u u with its last letter dropped, on the
    letter codes spelled as a str; the first hit is the least k.  CPython's
    str.find guards long searches with the linear two-way algorithm, so the
    cost is O(n)."""
    _same_alphabet(u, v)
    if len(u) != len(v):
        return None
    if len(u) == 0:
        return 0
    su = "".join(map(chr, _code(u)))
    k = (su + su[:-1]).find("".join(map(chr, _code(v))))
    return k if k >= 0 else None


def canonical_rotation(w: Word):
    """The least rotation of w in letter order, with the least shift achieving
    it.  Constant on rotation classes, hence usable for deduplication.

    Two-pointer least-rotation scan (the Booth family; K. S. Booth, IPL
    1980) over the letter codes, O(n): i and j are the surviving candidate
    starts, and a mismatch after k equal letters rules out the k + 1 starts
    beginning at the candidate with the larger letter.  No least start is
    ever ruled out, and every start below min(i, j) is, so min(i, j) is the
    least shift."""
    c = _code(w)
    n = len(c)
    c += c
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
    ls = w.letters
    return all(ls[i] != ls[i + 1].inverse() for i in range(len(ls) - 1))


def is_cyclically_reduced(w: Word) -> bool:
    """Reduced, and the last letter is not the inverse of the first.  Words of
    length at most 1 are cyclically reduced."""
    if not is_reduced(w):
        return False
    ls = w.letters
    if len(ls) >= 2 and ls[-1] == ls[0].inverse():
        return False
    return True


def is_prefix(p: Word, w: Word) -> bool:
    _same_alphabet(p, w)
    return w.letters[:len(p.letters)] == p.letters


def is_suffix(s: Word, w: Word) -> bool:
    _same_alphabet(s, w)
    return len(s.letters) <= len(w.letters) and w.letters[len(w.letters) - len(s.letters):] == s.letters


def is_subword(v: Word, w: Word) -> bool:
    """Factor containment: w == p v q for some p, q."""
    _same_alphabet(v, w)
    n, m = len(w.letters), len(v.letters)
    return any(w.letters[i:i + m] == v.letters for i in range(n - m + 1))


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
    a = u1.alphabet
    if len(u1) > len(v1):
        return LeviSplit("left", Word(a, u1.letters[len(v1.letters):]))
    if len(u1) < len(v1):
        return LeviSplit("right", Word(a, v1.letters[len(u1.letters):]))
    return LeviSplit("aligned", Word(a, ()))


def power(w: Word, n: int) -> Word:
    """w concatenated with itself n times; n < 0 uses the inverse."""
    if n < 0:
        return power(inverse(w), -n)
    return Word(w.alphabet, w.letters * n)
