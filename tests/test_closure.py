"""The product-and-rotation closure enumerator."""

import contextlib
import functools
import hashlib
import io
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycred import (COMPACT_ALPHABET, Alphabet, ClosureConfig,
                    canonical_rotation, cyc_reduce, parse_compact, psi, rotate)
from cycred import closure as cl

import oracles
from conftest import (AB2, AB3, W, F, cyc_reduced_words, from_tuples,
                      run_python, to_tuples)


def _members(relator_texts, max_len, rounds=10, alphabet=AB2, **kw):
    cfg = ClosureConfig(max_len, rounds, **kw)
    rels = [W(t, alphabet) for t in relator_texts]
    return cl.run(cl.seed(rels, cfg))


@functools.lru_cache(maxsize=None)
def _run_once(relator_texts, max_len, max_rounds, options):
    """_members over AB2, computed once for the tests that read the same
    large set; options is a tuple of (name, value) config pairs."""
    return _members(relator_texts, max_len, max_rounds, **dict(options))


AK3 = ("xyxYXY", "xxxYYYY")  # Akbulut-Kirby: a balanced presentation of 1


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
    # stepping past the round cap would save a file that load rejects
    s = cl.step(cl.seed([W("x", AB2)], ClosureConfig(8, 1)))
    assert s.rounds_done == 1 and not s.saturated
    with pytest.raises(ValueError, match="max_rounds"):
        cl.step(s)


def test_round_cap():
    cfg = ClosureConfig(8, 1)
    s = cl.run(cl.seed([W("x", AB2)], cfg))
    assert s.rounds_done == 1
    assert not s.saturated


def _oracle_set(relator_texts, max_len, alphabet=AB2, include_inverses=True,
                rounds=None):
    rels = [to_tuples(W(t, alphabet)) for t in relator_texts]
    return oracles.closure_members(rels, max_len, include_inverses, rounds)


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


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("relators,max_len,alphabet,inverses", [
    (["xy", "y"], 4, AB2, True),
    (["x"], 3, AB2, True),
    (["xyY", "yx"], 3, AB2, True),
    (["xxy"], 5, AB2, True),
    (["xyz", "Y"], 4, AB3, True),
    (["xy", "y"], 5, AB2, False),
])
def test_rounds_match_oracle(relators, max_len, alphabet, inverses, canonical):
    """The members after each round up to saturation are the oracle's after
    the same number of rounds."""
    kw = dict(include_inverses=inverses, canonical_dedup=canonical)
    last = _members(relators, max_len, 64, alphabet, **kw)
    assert last.saturated
    for r in range(1, last.rounds_done + 1):
        s = _members(relators, max_len, r, alphabet, **kw)
        expect = {from_tuples(alphabet, t) for t in
                  _oracle_set(relators, max_len, alphabet, inverses, rounds=r)}
        if canonical:
            expect = {canonical_rotation(w)[0] for w in expect}
        assert s.members == expect, r


@st.composite
def _relator_sets(draw):
    alphabet = draw(st.sampled_from((AB2, AB3)))
    rels = draw(st.lists(cyc_reduced_words(alphabet, 1, 4), min_size=1,
                         max_size=3))
    return alphabet, rels


# The oracle replays every round from the seed and multiplies all ordered
# pairs of its rotation-closed set, so rounds are compared only while that
# set is small.
_ORACLE_SET_LIMIT = 60


@settings(max_examples=150, deadline=None)
@given(_relator_sets(), st.integers(3, 6), st.booleans(), st.booleans())
@example((AB2, [W("xyxy", AB2)]), 6, True, True)      # periodic relator
@example((AB2, [W("xyxy", AB2)]), 6, False, False)
@example((AB2, [W("xy", AB2), W("YXyy", AB2)]), 4, True, False)  # xy cancels
@example((AB3, [W("x", AB3), W("XyzY", AB3)]), 4, False, True)  # x, then yY
def test_random_rounds_match_oracle(case, max_len, canonical, inverses):
    """Round by round, the members equal the oracle's, for random relator
    sets; this covers the join on pieces at every c the caps allow."""
    alphabet, rels = case
    s = cl.seed(rels, ClosureConfig(max_len, 64, inverses, canonical))
    tuples = [to_tuples(r) for r in rels]
    while True:
        raw = oracles.closure_members(tuples, max_len, inverses, s.rounds_done)
        expect = {from_tuples(alphabet, t) for t in raw}
        if canonical:
            expect = {canonical_rotation(w)[0] for w in expect}
        assert s.members == expect, s.rounds_done
        if s.saturated or len(raw) > _ORACLE_SET_LIMIT:
            break
        s = cl.step(s)


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


def test_contains_rejects_another_alphabet():
    """A word over another alphabet is an error, as in seed and concat, not a
    silent miss; an equal alphabet built apart is the same alphabet."""
    s = _members(["xy", "y"], 3)
    with pytest.raises(ValueError, match=r"Alphabet\('a', 'b'.*Alphabet\('x', 'y'\)"):
        cl.contains(s, parse_compact("xy"))
    assert cl.contains(s, W("xy", Alphabet("x", "y"))).found


_PROVENANCE_DEF = """
import io
from cycred import Alphabet, ClosureConfig
from cycred import closure as cl
from cycred.syntax import format_compact as F, parse_compact
ab = Alphabet("x", "y")
def dump(cfg):
    s = cl.run(cl.seed([parse_compact(t, ab) for t in ("xy", "y")], cfg,
                       track_provenance=True))
    buf = io.StringIO()
    cl.save(s, buf)
    print(buf.getvalue(), end="")
    for m in sorted(s.provenance, key=lambda w: (len(w), F(w))):
        print(F(m), " ".join("(%s, %s)" % (F(a), F(r)) for a, r in s.provenance[m]))
"""
_PROVENANCE_DUMP = _PROVENANCE_DEF + """
for canonical in (True, False):
    dump(ClosureConfig(4, 10, canonical_dedup=canonical))
"""


def test_hash_seed_determinism():
    """Canonical and materialized dedup with provenance: the saved files and
    every witness are the same in this process and under two fixed hash
    seeds."""
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_PROVENANCE_DUMP, {})
    dumps = [here.getvalue()] + [run_python(["-c", _PROVENANCE_DUMP], k)
                                 for k in (0, 1)]
    assert dumps[0].count("#frontier") == 2
    assert len(set(dumps)) == 1


# sha256 of the saved files of relators xy, y over {x, y}, pinned from the
# engine that multiplied ordered pairs one Word at a time; the maxlen 7
# canonical and maxlen 6 materialized files from the engine that scanned
# every rotation pair.
@pytest.mark.parametrize("max_len,max_rounds,options,count,rounds,saturated,digest", [
    (5, 64, {}, 102, 5, True,
     "9e8faea82b23a473ff7c5f0b18e6d7198d6bb1cde9007e9c1a658fe40721f776"),
    (4, 64, {"canonical_dedup": False}, 128, 4, True,
     "55839c4b9489cd049a148c98ff5666ddd69189a5bf0c98dacc000362c00bc68c"),
    (5, 2, {}, 56, 2, False,
     "4275c67f1aeced817bc6a485a20aef78cfff2194528871065588b60db4b8cd37"),
    (5, 64, {"include_inverses": False}, 13, 4, True,
     "e748374155e8c3f83ef96b070de7e3858b5ed59d3c54b27aeb6631ff57bb0049"),
    (6, 64, {}, 234, 5, True,
     "28c3a516fddfc8ae65d4f919e8a8c384245efa7fd05bc789c0335203677e169b"),
    (7, 64, {}, 550, 5, True,
     "83cfb7f9a475111f55913d2dddfc5e4432692c96ed7087fff3846d7c02dbebf2"),
    (6, 64, {"canonical_dedup": False}, 1104, 5, True,
     "1381eb111ff8f64b1455e438e4dbc7e769d1db3dad30da9b51b868c9e4735017"),
    (8, 64, {}, 1386, 5, True,
     "a88dcca301ce32f589b342371a68a3222ece799280a917deb0b08db2953f98d5"),
    (8, 64, {"relators": AK3}, 1386, 8, True,
     "8da30c859136e5a698628bdeeced03e4883002978761dbbd362b30538233f394"),
])
def test_saved_file_digests(max_len, max_rounds, options, count, rounds,
                            saturated, digest):
    """options may name other relators; the maxlen 8 rows, pinned from the
    engine that multiplied every remaining pair after the sphere was full,
    are the sets that the sphere-count tests read too."""
    options = dict(options)
    relators = options.pop("relators", ("xy", "y"))
    s = _run_once(relators, max_len, max_rounds, tuple(sorted(options.items())))
    assert (len(s.members), s.rounds_done, s.saturated) == (count, rounds, saturated)
    buf = io.StringIO()
    cl.save(s, buf)
    assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == digest


# sha256 of what _PROVENANCE_DEF's dump prints, pinned from the engine that
# scanned every rotation pair: the witnesses fix the order in which products
# are admitted, which the maxlen 4 dump above barely exercises.
@pytest.mark.parametrize("config,digest", [
    (ClosureConfig(6, 64),
     "18773aaa6948ce7089326e19994a9332f7ac1c1d2e6ae078149051903153aafd"),
    (ClosureConfig(5, 64, canonical_dedup=False),
     "4fd4695156ed831807d03b9f16d1c9459aa73c4fcc3a44e2ffe1ffa5471bc383"),
])
def test_provenance_digests(config, digest):
    scope = {}
    exec(_PROVENANCE_DEF, scope)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        scope["dump"](config)
    assert hashlib.sha256(out.getvalue().encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("max_len,canonical", [(7, True), (6, False)])
def test_no_over_cap_product(monkeypatch, max_len, canonical):
    """The join names every cut pair whose product is within the cap and no
    other, so the step never computes a product it then throws away (the
    rotation-pair scan computed 1,834,120 over-cap products at maxlen 7)."""
    kernel, lengths = cl._cyc_core, []

    def recording(a, b):
        core = kernel(a, b)
        lengths.append(len(core))
        return core
    monkeypatch.setattr(cl, "_cyc_core", recording)
    _members(["xy", "y"], max_len, 64, canonical_dedup=canonical)
    assert lengths and max(lengths) <= max_len


def _cyclically_reduced(d, k):
    """The number of cyclically reduced words of length d over k
    generators."""
    return (2 * k - 1) ** d + 1 + (k - 1) * (1 + (-1) ** d)


def _sphere(k, max_len, classes):
    """The number of cyclically reduced words of length 1..max_len over k
    generators, or with classes of their rotation classes: at length n
    those number (1/n) sum over d | n of phi(n/d) c(d)."""
    def phi(m):
        return sum(1 for i in range(1, m + 1) if gcd(i, m) == 1)
    total = 0
    for n in range(1, max_len + 1):
        if classes:
            total += sum(phi(n // d) * _cyclically_reduced(d, k)
                         for d in range(1, n + 1) if n % d == 0) // n
        else:
            total += _cyclically_reduced(n, k)
    return total


@pytest.mark.parametrize("k,max_len", [(1, 8), (2, 6), (3, 4)])
def test_sphere_formula_matches_brute_force(k, max_len):
    letters = [(g, e) for g in range(k) for e in (1, -1)]
    words, classes = 0, set()
    for n in range(1, max_len + 1):
        for w in product(letters, repeat=n):
            if all(w[t - 1] != (w[t][0], -w[t][1]) for t in range(n)):
                words += 1  # t = 0 compares the last letter with the first
                classes.add(min(w[t:] + w[:t] for t in range(n)))
        assert (words, len(classes)) == (_sphere(k, n, False),
                                         _sphere(k, n, True)), n


@pytest.mark.parametrize("max_len", range(1, 9))
def test_sphere_count_canonical(max_len):
    """Once x, y and their inverses are members, every cyclically reduced
    word within the cap becomes one, and the step stops there."""
    k = 1 if max_len == 1 else 2  # xy is over a cap of 1, so only y occurs
    s = _run_once(("xy", "y"), max_len, 64, ())
    assert s.saturated and len(s.members) == _sphere(k, max_len, True)


def test_sphere_count_materialized():
    s = _run_once(("xy", "y"), 7, 64, (("canonical_dedup", False),))
    assert len(s.members) == _sphere(2, 7, False) == 3292


def test_sphere_count_ak3():
    """AK(3) presents the trivial group and fills the sphere at maxlen 8;
    at maxlen 7 its first round admits nothing."""
    assert len(_run_once(AK3, 8, 64, ()).members) == _sphere(2, 8, True)
    s = _run_once(AK3, 7, 64, ())
    assert s.saturated and len(s.members) == 4


def _permutation(w, images):
    """The image of w under letters -> permutations (tuples), composed left
    to right."""
    out = tuple(range(len(images[0])))
    for l in w.letters:
        p = images[l.generator]
        if l.sign < 0:
            p = tuple(sorted(range(len(p)), key=p.__getitem__))
        out = tuple(p[i] for i in out)
    return out


@pytest.mark.parametrize("relators,max_len,images", [
    # Z/2 * Z/3 onto S3: x -> (0 1), y -> (0 1 2)
    (("xx", "yyy"), 10, ((1, 0, 2), (1, 2, 0))),
    # the dihedral group of order 8: x -> (0 1 2 3), y -> (1 3)
    (("xxxx", "yy", "xyxy"), 8, ((1, 2, 3, 0), (0, 3, 2, 1))),
])
def test_finite_quotient_kills_every_member(relators, max_len, images):
    """A member is conjugate to a product of conjugates of relators, so a
    homomorphism that kills the relators kills it.  x survives, so these
    sets never fill the sphere and the stop never fires."""
    identity = tuple(range(len(images[0])))
    rels = [W(t, AB2) for t in relators]
    assert all(_permutation(r, images) == identity for r in rels)
    assert _permutation(W("x", AB2), images) != identity
    s = _members(relators, max_len, 64)
    assert s.saturated and len(s.members) < _sphere(2, max_len, True)
    assert all(_permutation(m, images) == identity for m in s.members)


@pytest.mark.parametrize("alphabet", [AB2, COMPACT_ALPHABET],
                         ids=["xy", "compact"])
def test_step_stops_on_a_full_sphere(monkeypatch, alphabet):
    """The round whose admission fills the sphere ends with that product,
    and the next step multiplies nothing.  Over the 26-letter compact
    alphabet the sphere is over the two generators that occur."""
    kernel, cores = cl._cyc_core, []

    def recording(a, b):
        core = kernel(a, b)
        cores.append(core)
        return core
    monkeypatch.setattr(cl, "_cyc_core", recording)
    full = _sphere(2, 5, True)
    s = cl.seed([W(t, alphabet) for t in ("xy", "y")], ClosureConfig(5, 64))
    while len(s.members) < full:
        del cores[:]
        s = cl.step(s)
    assert s.frontier and not s.saturated
    # codes are 2 * generator + (sign < 0), see cycred.words
    last = alphabet.word([(c >> 1, -1 if c & 1 else 1) for c in map(ord, cores[-1])])
    assert canonical_rotation(last)[0] in s.frontier
    del cores[:]
    done = cl.step(s)
    assert cores == []
    assert done.saturated and not done.frontier
    assert done.members == s.members and done.rounds_done == s.rounds_done + 1


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
    (lambda ls: [ls[0].replace(" rounds=4 ", " rounds=99 ")] + ls[1:],
     "rounds=99 exceeds maxrounds=10"),
    (lambda ls: ls + ["x"], "saturated=1 with a non-empty frontier"),
])
def test_load_rejects_corrupt_files(mutate, fragment):
    with pytest.raises(ValueError, match=fragment):
        _mutate_and_load(mutate)


def test_load_accepts_unsaturated_empty_frontier():
    """A seed whose relators all exceed the cap saves no members, an empty
    frontier and saturated=0, and that state loads."""
    s = cl.seed([W("xxxx", AB2)], ClosureConfig(3, 2))
    buf = io.StringIO()
    cl.save(s, buf)
    loaded = cl.load(io.StringIO(buf.getvalue()))
    assert not loaded.frontier and not loaded.saturated


@pytest.mark.parametrize("fault", ["_render", "replace"])
def test_save_to_path_is_atomic(tmp_path, monkeypatch, fault):
    path = tmp_path / "set.txt"
    old, new = _members(["x"], 3), _members(["xy", "y"], 4)
    cl.save(old, path)
    before = path.read_bytes()

    def boom(*_):
        raise RuntimeError("injected")
    monkeypatch.setattr(cl if fault == "_render" else cl.os, fault, boom)
    with pytest.raises(RuntimeError, match="injected"):
        cl.save(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]

    monkeypatch.undo()
    cl.save(new, path)
    assert cl.load(path).members == new.members
    assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]

    missing = tmp_path / "no-such-dir" / "set.txt"
    with pytest.raises(FileNotFoundError) as exc:
        cl.save(old, missing)
    assert exc.value.filename == str(missing)


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


def test_provenance_witnesses_membership_at_scale():
    """Every one of the 550 members at maxlen 7, most of them far past what
    the naive oracle can enumerate, is exactly psi of its provenance."""
    rels = [W("xy", AB2), W("y", AB2)]
    s = cl.run(cl.seed(rels, ClosureConfig(7, 64), track_provenance=True))
    assert len(s.members) == 550 and set(s.provenance) == s.members
    assert all(psi(h) == m for m, h in s.provenance.items())


@settings(max_examples=40, deadline=None)
@given(st.lists(cyc_reduced_words(AB2, max_len=5), min_size=1, max_size=3),
       st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans(),
       st.integers(0, 4))
def test_save_load_round_trip_generated(rels, max_len, max_rounds, inverses,
                                        canonical, steps):
    s = cl.seed(rels, ClosureConfig(max_len, max_rounds, inverses, canonical))
    for _ in range(steps):
        if s.saturated or s.rounds_done >= max_rounds:
            break
        s = cl.step(s)
    buf = io.StringIO()
    cl.save(s, buf)
    loaded = cl.load(io.StringIO(buf.getvalue()))
    assert loaded == s._replace(provenance=None)
    again = io.StringIO()
    cl.save(loaded, again)
    assert again.getvalue() == buf.getvalue()


def test_provenance_dropped_by_save():
    cfg = ClosureConfig(3, 5)
    s = cl.run(cl.seed([W("x", AB2)], cfg, track_provenance=True))
    buf = io.StringIO()
    cl.save(s, buf)
    assert cl.load(io.StringIO(buf.getvalue())).provenance is None
