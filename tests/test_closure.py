"""The product-and-rotation closure enumerator."""

import contextlib
import io

import pytest

from cycred import (Alphabet, ClosureConfig, canonical_rotation, cyc_reduce,
                    psi, rotate)
from cycred import closure as cl

import oracles
from conftest import AB2, AB3, W, F, from_tuples, run_python, to_tuples


def _members(relator_texts, max_len, rounds=10, alphabet=AB2, **kw):
    cfg = ClosureConfig(max_len, rounds, **kw)
    rels = [W(t, alphabet) for t in relator_texts]
    return cl.run(cl.seed(rels, cfg))


def test_toy_closures():
    s = _members(["xy", "y"], 4)
    assert cl.contains(s, W("x", AB2)).found
    assert cl.contains(s, W("y", AB2)).found

    s = _members(["x"], 4)
    assert not cl.contains(s, W("y", AB2)).found

    s = _members(["x"], 3)
    got = {F(w) for w in s.members}
    assert got == {"x", "X", "xx", "XX", "xxx", "XXX"}


def test_seed_validation():
    with pytest.raises(ValueError):
        cl.seed([], ClosureConfig(3, 2))
    with pytest.raises(ValueError):
        cl.seed([W("x", AB2)], ClosureConfig(0, 2))
    with pytest.raises(ValueError):
        cl.seed([W("x", AB2)], ClosureConfig(3, 0))
    with pytest.raises(ValueError):
        cl.seed([W("x", AB2), W("x", AB3)], ClosureConfig(3, 2))


def test_empty_word_never_stored():
    s = _members(["xX"], 3)
    assert all(len(w) >= 1 for w in s.members)
    res = cl.contains(s, W("xX", AB2))
    assert res == (False, False)


def test_step_guards():
    s = _members(["x"], 2)
    assert s.saturated
    with pytest.raises(ValueError):
        cl.step(s)


def test_round_cap():
    cfg = ClosureConfig(8, 1)
    s = cl.run(cl.seed([W("x", AB2)], cfg))
    assert s.rounds_done == 1
    assert not s.saturated


def _oracle_set(relator_texts, max_len, alphabet=AB2, include_inverses=True):
    rels = [to_tuples(W(t, alphabet)) for t in relator_texts]
    return oracles.closure_members(rels, max_len, include_inverses)


@pytest.mark.parametrize("relators,max_len", [
    (["xy", "y"], 4),
    (["x"], 3),
    (["xyY", "yx"], 3),
    (["xxy"], 5),
])
def test_matches_oracle_canonical(relators, max_len):
    s = _members(relators, max_len)
    expect = {canonical_rotation(from_tuples(AB2, t))[0]
              for t in _oracle_set(relators, max_len)}
    assert s.members == expect


@pytest.mark.parametrize("relators,max_len", [
    (["xy", "y"], 4),
    (["xxy"], 5),
])
def test_matches_oracle_materialized(relators, max_len):
    s = _members(relators, max_len, canonical_dedup=False)
    expect = {from_tuples(AB2, t) for t in _oracle_set(relators, max_len)}
    assert s.members == expect


def test_no_inverses_flag():
    with_inv = _members(["xy"], 2)
    without = _members(["xy"], 2, include_inverses=False)
    assert cl.contains(with_inv, W("YX", AB2)).found
    assert not cl.contains(without, W("YX", AB2)).found


def test_contains_over_cap():
    s = _members(["x"], 3)
    res = cl.contains(s, W("xxxx", AB2))
    assert res.found is False and res.over_cap is True
    res = cl.contains(s, W("xxXx", AB2))  # core xx, inside the cap
    assert res.found is True and res.over_cap is False


_MATERIALIZED_PROVENANCE = """
import io
from cycred import Alphabet, ClosureConfig
from cycred import closure as cl
from cycred.syntax import format_compact as F, parse_compact
ab = Alphabet("x", "y")
cfg = ClosureConfig(4, 10, canonical_dedup=False)
s = cl.run(cl.seed([parse_compact(t, ab) for t in ("xy", "y")], cfg,
                   track_provenance=True))
buf = io.StringIO()
cl.save(s, buf)
print(buf.getvalue(), end="")
for m in sorted(s.provenance, key=lambda w: (len(w), F(w))):
    print(F(m), " ".join("(%s, %s)" % (F(a), F(r)) for a, r in s.provenance[m]))
"""


def test_hash_seed_determinism():
    """Materialized rotations with provenance: the saved file and every
    witness are the same in this process and under two fixed hash seeds."""
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_MATERIALIZED_PROVENANCE, {})
    dumps = [here.getvalue()] + [run_python(["-c", _MATERIALIZED_PROVENANCE], k)
                                 for k in (0, 1)]
    assert "#frontier" in dumps[0]
    assert len(set(dumps)) == 1


def test_save_load_round_trip():
    s = _members(["xy", "y"], 4)
    buf = io.StringIO()
    cl.save(s, buf)
    loaded = cl.load(io.StringIO(buf.getvalue()))
    assert loaded.members == s.members
    assert loaded.frontier == s.frontier
    assert loaded.config == s.config
    assert loaded.rounds_done == s.rounds_done
    assert loaded.saturated == s.saturated
    buf2 = io.StringIO()
    cl.save(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()


def _mutate_and_load(mutate):
    s = _members(["xy", "y"], 4)
    buf = io.StringIO()
    cl.save(s, buf)
    lines = buf.getvalue().splitlines()
    lines = mutate(lines)
    return cl.load(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("mutate,fragment", [
    (lambda ls: ["#other v9"] + ls[1:], "version header"),
    (lambda ls: [ls[0].replace("maxlen=4", "maxlen=zz")] + ls[1:], "bad header"),
    (lambda ls: [ls[0].replace("maxlen=4", "maxlen=0")] + ls[1:], "out of range"),
    (lambda ls: ls[:1] + ["xX"] + ls[1:], "not cyclically reduced"),
    (lambda ls: ls[:1] + ["xyxyx"] + ls[1:], "length cap"),
    (lambda ls: ls + ["#frontier"], "duplicate #frontier"),
    (lambda ls: [l for l in ls if l != "#frontier"], "missing #frontier"),
    (lambda ls: ls + ["yx"], "frontier is not a subset"),
    (lambda ls: ls[:1] + ["yx"] + ls[1:], "non-canonical"),
])
def test_load_rejects_corrupt_files(mutate, fragment):
    with pytest.raises(ValueError, match=fragment):
        _mutate_and_load(mutate)


def test_load_rejects_empty_member():
    with pytest.raises(ValueError, match="empty word"):
        _mutate_and_load(lambda ls: ls[:1] + ["1"] + ls[1:])


def test_provenance_witnesses_membership():
    cfg = ClosureConfig(4, 10)
    rels = [W("xy", AB2), W("y", AB2)]
    s = cl.run(cl.seed(rels, cfg, track_provenance=True))
    assert s.provenance is not None
    assert set(s.provenance) == s.members
    from cycred import inverse
    sources = set(rels) | {inverse(r) for r in rels}
    for m, h in s.provenance.items():
        assert psi(h) == m
        assert all(r in sources for _, r in h.terms)


def test_provenance_dropped_by_save():
    cfg = ClosureConfig(3, 5)
    s = cl.run(cl.seed([W("x", AB2)], cfg, track_provenance=True))
    buf = io.StringIO()
    cl.save(s, buf)
    assert cl.load(io.StringIO(buf.getvalue())).provenance is None
