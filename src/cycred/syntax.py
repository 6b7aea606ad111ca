"""Two text encodings for words.

Compact: one character per letter, lowercase a-z for a generator, the
matching uppercase character for its inverse, no whitespace; the empty word
is the single character "1".  Only usable when every generator name is a
single letter a-z.

Spaced: whitespace-separated tokens, each a generator name or name^-1; the
empty word is the single token "1".  Works for any alphabet whose names are
ASCII identifiers.

Parse errors carry the byte offset of the offending character or token.
"""

import string

from .words import Alphabet, Letter, Word

COMPACT_ALPHABET = Alphabet(*string.ascii_lowercase)


class WordSyntaxError(ValueError):
    """A word failed to parse; .offset is the byte position of the fault."""

    def __init__(self, message, offset):
        super().__init__("byte %d: %s" % (offset, message))
        self.offset = offset


def _compact_names(alphabet):
    for name in alphabet.generators:
        if len(name) != 1 or name not in string.ascii_lowercase:
            raise ValueError(
                "compact syntax needs single-character a-z generator names, got %r"
                % (name,))
    return {name: i for i, name in enumerate(alphabet.generators)}


def parse_compact(text: str, alphabet: Alphabet = None) -> Word:
    if alphabet is None:
        alphabet = COMPACT_ALPHABET
    index = _compact_names(alphabet)
    if text == "1":
        return alphabet.empty()
    if not text:
        raise WordSyntaxError("empty input (write 1 for the empty word)", 0)
    letters = []
    for off, ch in enumerate(text):
        low = ch.lower()
        if ch not in string.ascii_letters or low not in index:
            raise WordSyntaxError("unexpected character %r" % (ch,), off)
        letters.append(Letter(index[low], 1 if ch.islower() else -1))
    return Word(alphabet, letters)


def format_compact(w: Word) -> str:
    names = w.alphabet.generators
    _compact_names(w.alphabet)
    if not w.letters:
        return "1"
    return "".join(names[l.generator] if l.sign > 0 else names[l.generator].upper()
                   for l in w.letters)


def _spaced_names(alphabet):
    # an ASCII identifier is never "1", never ends in "^-1" and holds no
    # whitespace, so every word round-trips
    for name in alphabet.generators:
        if not (name.isascii() and name.isidentifier()):
            raise ValueError(
                "spaced syntax needs ASCII identifier generator names, got %r"
                % (name,))
    return {name: i for i, name in enumerate(alphabet.generators)}


def parse_spaced(text: str, alphabet: Alphabet) -> Word:
    index = _spaced_names(alphabet)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace():
            i += 1
        tokens.append((start, text[start:i]))
    if not tokens:
        raise WordSyntaxError("empty input (write 1 for the empty word)", 0)
    if len(tokens) == 1 and tokens[0][1] == "1":
        return alphabet.empty()
    letters = []
    for off, tok in tokens:
        sign = 1
        name = tok
        if tok.endswith("^-1"):
            sign = -1
            name = tok[:-3]
        if name not in index:
            raise WordSyntaxError("unknown token %r" % (tok,), off)
        letters.append(Letter(index[name], sign))
    return Word(alphabet, letters)


def format_spaced(w: Word) -> str:
    _spaced_names(w.alphabet)
    if not w.letters:
        return "1"
    names = w.alphabet.generators
    return " ".join(names[l.generator] if l.sign > 0 else names[l.generator] + "^-1"
                    for l in w.letters)
