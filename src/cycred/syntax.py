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

from .words import Alphabet, Word, _spaced, _word

COMPACT_ALPHABET = Alphabet(*string.ascii_lowercase)


class WordSyntaxError(ValueError):
    """A word failed to parse; .offset is the byte position of the fault."""

    def __init__(self, message, offset):
        super().__init__("byte %d: %s" % (offset, message))
        self.offset = offset


def _compact_names(alphabet):
    """The character of each letter code, for str.translate."""
    spell = {}
    for i, name in enumerate(alphabet.generators):
        if len(name) != 1 or name not in string.ascii_lowercase:
            raise ValueError(
                "compact syntax needs single-character a-z generator names, got %r"
                % (name,))
        spell[2 * i], spell[2 * i + 1] = name, name.upper()
    return spell


def parse_compact(text: str, alphabet: Alphabet = None) -> Word:
    if alphabet is None:
        alphabet = COMPACT_ALPHABET
    index = {ord(ch): code for code, ch in _compact_names(alphabet).items()}
    if text == "1":
        return alphabet.empty()
    if not text:
        raise WordSyntaxError("empty input (write 1 for the empty word)", 0)
    if not index.keys() >= set(map(ord, text)):
        off = next(i for i, ch in enumerate(text) if ord(ch) not in index)
        raise WordSyntaxError("unexpected character %r" % (text[off],), off)
    return _word(alphabet, text.translate(index))


def format_compact(w: Word) -> str:
    return w.codes.translate(_compact_names(w.alphabet)) or "1"


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
    codes = []
    for off, tok in tokens:
        inv = 0
        name = tok
        if tok.endswith("^-1"):
            inv = 1
            name = tok[:-3]
        if name not in index:
            raise WordSyntaxError("unknown token %r" % (tok,), off)
        codes.append(chr(2 * index[name] + inv))
    return _word(alphabet, "".join(codes))


def format_spaced(w: Word) -> str:
    _spaced_names(w.alphabet)
    return _spaced(w) or "1"
