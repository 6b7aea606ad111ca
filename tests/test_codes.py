"""Words as code strings: the library never spells a word out letter by
letter, a long word stays small, and every code point an alphabet can use
works, surrogates included."""

import contextlib
import io
import json
import random
import tracemalloc

import pytest

from cycred import (Alphabet, ClosureConfig, Word, canonical_rotation,
                    collapse_element, collapse_schedule, concat, cyc_product,
                    cyc_reduce, execute, format_spaced, inverse, is_reduced,
                    latin_pairs, parse_spaced, psi, puzo_witness, reduce,
                    rotate)
from cycred import cli
from cycred import closure as cl

from conftest import AB2, AB4, W


def _forbidden(self):
    raise AssertionError("the library spelled a word out letter by letter")


@pytest.fixture
def letter_free(monkeypatch):
    """Word.letters and iteration over a Word raise for the duration."""
    monkeypatch.setattr(Word, "letters", property(_forbidden))
    monkeypatch.setattr(Word, "__iter__", _forbidden)


def _pair(rng, n):
    """Reduced u, v over AB4 with a nontrivial product, where u ends in a
    block of about n / 4 letters that v starts by cancelling."""
    while True:
        block = _reduced(rng, n // 4)
        u, v = AB4.word(_reduced(rng, n) + block), AB4.word(_reduced(rng, n))
        v = concat(inverse(AB4.word(block)), v)
        if is_reduced(u) and is_reduced(v) and cyc_product(u, v):
            return u, v


def _reduced(rng, n):
    out = []
    while len(out) < n:
        g, s = rng.randrange(4), rng.choice((1, -1))
        if not out or out[-1] != (g, -s):
            out.append((g, s))
    return out


def test_witness_pipeline_reads_no_letters(letter_free):
    rng = random.Random(13)
    for n in (6, 40, 300):
        u, v = _pair(rng, n)
        rep = puzo_witness(u, v)
        assert psi(rep.identity) == u[:0]
        ops = collapse_schedule(rep.collapse_input)
        assert execute(collapse_element(rep.collapse_input), ops).is_trivial
        assert len(latin_pairs(u, cyc_product(u, v), 3)) == 3
        reduce(concat(u, v))
        canonical_rotation(cyc_reduce(concat(v, u))[0].core)


def test_closure_reads_no_letters(letter_free, tmp_path):
    rels = [W("xy", AB2), W("y", AB2)]
    s = cl.run(cl.seed(rels, ClosureConfig(4, 10), track_provenance=True))
    assert all(psi(h) == m for m, h in s.provenance.items())
    assert cl.contains(s, W("xYXyX", AB2)).found
    cl.save(s, tmp_path / "set.txt")
    loaded = cl.load(tmp_path / "set.txt")
    assert loaded.members == s.members


def test_cli_reads_no_letters(letter_free, tmp_path):
    rel = tmp_path / "rels.txt"
    rel.write_text("xy\ny\n")
    doc = tmp_path / "collapse.json"
    doc.write_text(json.dumps({"terms": [["x", "y"], ["x", "Y"]],
                               "ops": [{"type": "deletion", "pos": 1,
                                        "kind": "semiPeiffer"}]}))
    out = tmp_path / "set.txt"
    for argv in (["reduce", "xyYz"], ["cycreduce", "zxyXZ"],
                 ["prod", "xy", "Yz"], ["cprod", "xy", "YX"],
                 ["classify", "xyz", "ZYt"], ["puzo", "xyz", "ZYt"],
                 ["anyorder", "zxXyZ", "--seed", "3"],
                 ["latin", "xy", "zt", "--count", "2"],
                 ["collapse", "--file", str(doc)],
                 ["closure", "--relators", str(rel), "--maxlen", "4",
                  "--rounds", "8", "--out", str(out)],
                 ["closure-query", "--set", str(out), "xyx"],
                 ["--syntax", "spaced", "--alphabet", "x,y", "puzo",
                  "x y", "y^-1 x"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


def test_long_word_is_small():
    """A parsed 1,024-letter word holds its 1,024 codes in about a kilobyte,
    not a tuple per letter."""
    rng = random.Random(5)
    text = " ".join(rng.choice(("x", "y^-1", "z", "t^-1")) for _ in range(1024))
    parse_spaced(text, AB4)  # fill the parser's caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = parse_spaced(text, AB4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(w) == 1024 and held <= 4096


def test_surrogate_codes():
    """Generators from 27,648 up have codes in the surrogate range."""
    names = ["g%d" % i for i in range(27700)]
    ab = Alphabet(*names)
    u = parse_spaced("g27690 g27650^-1 g1 g27699", ab)
    v = parse_spaced("g27699^-1 g1^-1 g27650 g27648 g27690^-1", ab)
    assert any(0xD800 <= ord(c) <= 0xDFFF for c in u.codes)
    assert format_spaced(cyc_product(u, v)) == "g27648"
    assert format_spaced(inverse(u)) == \
        "g27699^-1 g1^-1 g27650 g27690^-1"
    assert rotate(u, 1) == parse_spaced("g27650^-1 g1 g27699 g27690", ab)
    assert cyc_reduce(concat(u, v))[1].events[-1].kind == "external"
    rels = [parse_spaced(t, ab) for t in ("g27648 g27650", "g27650")]
    s = cl.run(cl.seed(rels, ClosureConfig(3, 5)))
    assert cl.contains(s, parse_spaced("g27648 g27650^-1 g27648", ab)).found


def test_alphabet_size_limit():
    with pytest.raises(ValueError, match="557056"):
        Alphabet(*(["x"] * (0x110000 // 2 + 1)))
