"""The two word codecs and their error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycred import Alphabet
from cycred.syntax import (COMPACT_ALPHABET, WordSyntaxError, format_compact,
                           format_spaced, parse_compact, parse_spaced)

from conftest import AB2, AB4, W, words


def test_compact_basics():
    assert format_compact(parse_compact("xYzT")) == "xYzT"
    assert format_compact(parse_compact("1")) == "1"
    assert len(parse_compact("1")) == 0
    assert parse_compact("xy", AB2).alphabet == AB2


def test_compact_errors():
    with pytest.raises(WordSyntaxError) as e:
        parse_compact("")
    assert e.value.offset == 0
    with pytest.raises(WordSyntaxError) as e:
        parse_compact("x y")
    assert e.value.offset == 1
    with pytest.raises(WordSyntaxError) as e:
        parse_compact("z", AB2)
    assert e.value.offset == 0
    assert isinstance(e.value, ValueError)


def test_compact_needs_single_letter_names():
    greek = Alphabet("alpha", "beta")
    w = greek.word([(0, 1), (1, -1)])
    with pytest.raises(ValueError, match="single-character"):
        format_compact(w)
    with pytest.raises(ValueError, match="single-character"):
        parse_compact("ab", greek)


def test_spaced_basics():
    greek = Alphabet("alpha", "beta")
    w = parse_spaced("alpha beta^-1  alpha", greek)
    assert format_spaced(w) == "alpha beta^-1 alpha"
    assert len(parse_spaced("1", greek)) == 0
    assert format_spaced(greek.empty()) == "1"


def test_spaced_errors():
    greek = Alphabet("alpha", "beta")
    with pytest.raises(WordSyntaxError) as e:
        parse_spaced("alpha gamma", greek)
    assert e.value.offset == 6
    with pytest.raises(WordSyntaxError):
        parse_spaced("", greek)
    with pytest.raises(WordSyntaxError):
        parse_spaced("alpha 1", greek)


@pytest.mark.parametrize("names", [("a^-1", "b"), ("1", "b"), ("a b", "c"),
                                   ("\u03b1", "b")])
def test_spaced_needs_ascii_identifier_names(names):
    ab = Alphabet(*names)
    with pytest.raises(ValueError, match="ASCII identifier"):
        parse_spaced("b", ab)
    with pytest.raises(ValueError, match="ASCII identifier"):
        format_spaced(ab.word([(1, 1)]))


@given(words(AB4, max_len=14))
def test_compact_round_trip(w):
    assert parse_compact(format_compact(w), AB4) == w


@given(words(AB4, max_len=14))
def test_spaced_round_trip(w):
    assert parse_spaced(format_spaced(w), AB4) == w


def test_default_alphabet_is_full_lowercase():
    w = parse_compact("qwerty")
    assert w.alphabet == COMPACT_ALPHABET
    assert len(COMPACT_ALPHABET) == 26


_IDENTIFIER = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _spaced_words(draw):
    """A word over an alphabet of 1-300 generators, a few of them drawn
    identifiers and the rest numbered, so codes above 255 occur."""
    size = draw(st.integers(1, 300))
    drawn = draw(st.lists(_IDENTIFIER, max_size=min(size, 6), unique=True))
    names = list(dict.fromkeys(drawn + ["g%d" % i for i in range(size)]))
    ab = Alphabet(*names[:size])
    letters = st.tuples(st.integers(0, size - 1), st.sampled_from((1, -1)))
    return ab.word(draw(st.lists(letters, max_size=30)))


@settings(max_examples=150, deadline=None)
@given(_spaced_words(), st.sampled_from([" ", "  ", "\n", " \t "]))
def test_spaced_round_trip_over_generated_alphabets(w, sep):
    text = format_spaced(w)
    assert parse_spaced(text, w.alphabet) == w
    assert parse_spaced(sep + sep.join(text.split()) + sep, w.alphabet) == w
    assert format_spaced(parse_spaced(text, w.alphabet)) == text
