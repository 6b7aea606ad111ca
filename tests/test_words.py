"""The free monoid layer: letters, alphabets, words, rotation, Levi splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycred import (Alphabet, Letter, Word, canonical_rotation, concat,
                    cyclic_shift_between, inverse, is_cyclically_reduced,
                    is_prefix, is_reduced, is_subword, is_suffix, letter_key,
                    levi_split, power, reverse, rotate)

from conftest import AB2, AB3, W, F, words, reduced_words, cyc_reduced_words


def test_letter_inverse_involution():
    l = Letter(0, 1)
    assert l.inverse() == Letter(0, -1)
    assert l.inverse().inverse() == l


def test_letter_order():
    # x < x^-1 < y < y^-1
    ls = [Letter(1, -1), Letter(0, 1), Letter(1, 1), Letter(0, -1)]
    assert sorted(ls, key=letter_key) == [Letter(0, 1), Letter(0, -1),
                                          Letter(1, 1), Letter(1, -1)]


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("x", "x")
    with pytest.raises(ValueError):
        Alphabet("x", "")
    with pytest.raises(ValueError):
        AB2.letter("q")
    with pytest.raises(ValueError):
        AB2.letter("x", 2)
    with pytest.raises(AttributeError):
        AB2.generators = ()


def test_word_equality_includes_alphabet():
    assert W("xy", AB2) != W("xy", AB3)
    assert W("xy", AB2) == W("xy", AB2)
    assert hash(W("xy", AB2)) == hash(W("xy", AB2))


def test_word_slice_and_bool():
    w = W("xyz", AB3)
    assert w[1:] == W("yz", AB3)
    assert isinstance(w[1:], Word)
    assert w[0] == Letter(0, 1)
    assert not W("1", AB3)
    assert w


def test_word_rejects_foreign_letters():
    with pytest.raises(ValueError):
        Word(AB2, (Letter(5, 1),))
    with pytest.raises(ValueError):
        AB2.word([(5, 1)])
    with pytest.raises(ValueError):
        AB2.word([Letter(0, 2)])
    with pytest.raises(ValueError):
        concat(W("x", AB2), W("x", AB3))


def test_mixed_item_styles():
    assert AB2.word([("x", 1), (1, -1), Letter(0, -1)]) == W("xYX", AB2)


@given(words(AB2), words(AB2))
def test_inverse_antihomomorphism(u, v):
    assert inverse(concat(u, v)) == concat(inverse(v), inverse(u))


@given(words(AB2))
def test_inverse_reverse_commute(w):
    assert inverse(inverse(w)) == w
    assert reverse(reverse(w)) == w
    assert reverse(inverse(w)) == inverse(reverse(w))


@given(words(AB2), st.integers(-5, 20), st.integers(-5, 20))
def test_rotate_composes(w, i, j):
    assert rotate(rotate(w, i), j) == rotate(w, i + j)
    assert rotate(w, 0) == w
    assert len(rotate(w, i)) == len(w)


def test_rotate_direction():
    assert rotate(W("xyz", AB3), 1) == W("yzx", AB3)


@given(words(AB2, max_len=8), st.integers(0, 7))
def test_cyclic_shift_between_finds_rotations(w, k):
    s = cyclic_shift_between(w, rotate(w, k))
    assert s is not None
    assert rotate(w, s) == rotate(w, k)


def test_cyclic_shift_between_negatives():
    assert cyclic_shift_between(W("xy", AB2), W("yx", AB2)) == 1
    assert cyclic_shift_between(W("xy", AB2), W("xx", AB2)) is None
    assert cyclic_shift_between(W("xy", AB2), W("x", AB2)) is None
    assert cyclic_shift_between(W("1", AB2), W("1", AB2)) == 0


@given(words(AB2, max_len=8), st.integers(0, 7))
def test_canonical_rotation_class_invariant(w, k):
    cw, shift = canonical_rotation(w)
    assert canonical_rotation(rotate(w, k))[0] == cw
    assert rotate(w, shift) == cw
    assert canonical_rotation(cw) == (cw, 0)


def test_reduced_predicates():
    assert not is_reduced(W("xX", AB2))
    assert is_reduced(W("xyX", AB2))
    assert not is_cyclically_reduced(W("xyX", AB2))
    assert is_cyclically_reduced(W("xy", AB2))
    assert is_cyclically_reduced(W("x", AB2))
    assert is_cyclically_reduced(W("1", AB2))


@given(reduced_words(AB2))
def test_inverse_and_reverse_preserve_reduced(w):
    assert is_reduced(inverse(w))
    assert is_reduced(reverse(w))


@given(cyc_reduced_words(AB2))
def test_inverse_and_reverse_preserve_cyclically_reduced(w):
    assert is_cyclically_reduced(w)
    assert is_cyclically_reduced(inverse(w))
    assert is_cyclically_reduced(reverse(w))


@given(cyc_reduced_words(AB2, min_len=1), st.integers(1, 4))
def test_powers_of_cyclically_reduced_stay_cyclically_reduced(w, n):
    assert is_cyclically_reduced(power(w, n))


@given(words(AB2), words(AB2))
def test_rotation_equivalence_respects_reverse(u, v):
    lhs = cyclic_shift_between(u, v) is not None
    rhs = cyclic_shift_between(reverse(u), reverse(v)) is not None
    assert lhs == rhs


def test_containment_predicates():
    w = W("xyzx", AB3)
    assert is_prefix(W("xy", AB3), w)
    assert not is_prefix(W("yz", AB3), w)
    assert is_suffix(W("zx", AB3), w)
    assert not is_suffix(W("xy", AB3), w)
    assert is_subword(W("yz", AB3), w)
    assert is_subword(W("1", AB3), w)
    assert not is_subword(W("zz", AB3), w)


@given(words(AB2, max_len=10), st.data())
def test_levi_split_reconstructs(w, data):
    i = data.draw(st.integers(0, len(w)))
    j = data.draw(st.integers(0, len(w)))
    u1, u2 = w[:i], w[i:]
    v1, v2 = w[:j], w[j:]
    split = levi_split(u1, u2, v1, v2)
    if split.side == "left":
        assert u1 == concat(v1, split.overlap) and v2 == concat(split.overlap, u2)
    elif split.side == "right":
        assert v1 == concat(u1, split.overlap) and u2 == concat(split.overlap, v2)
    else:
        assert u1 == v1 and not split.overlap


def test_levi_split_rejects_mismatch():
    with pytest.raises(ValueError):
        levi_split(W("x", AB2), W("y", AB2), W("y", AB2), W("x", AB2))


@given(words(AB2, max_len=6), st.integers(-3, 3))
def test_power_matches_repeated_concat(w, n):
    expect = w.alphabet.empty()
    base = w if n >= 0 else inverse(w)
    for _ in range(abs(n)):
        expect = concat(expect, base)
    assert power(w, n) == expect
