"""End-to-end checks of the command-line interface."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycred import cli
from cycred import closure as closure_mod
from cycred.syntax import COMPACT_ALPHABET, parse_compact
from conftest import run_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_prod_and_cprod(capsys):
    code, out, _ = run(capsys, "cprod", "txy", "YzT")
    assert code == 0 and out.strip() == "xz"
    code, doc = run_json(capsys, "prod", "txy", "YzT")
    assert doc["product"] == "txzT"


def test_cycreduce(capsys):
    code, doc = run_json(capsys, "cycreduce", "xyzxYX")
    assert code == 0
    assert doc["core"] == "zx"
    assert doc["conjugator"] == "xy"
    assert doc["trace"]["original_length"] == 6
    assert len(doc["trace"]["events"]) == 2


def test_reduce_trace_shape(capsys):
    _, doc = run_json(capsys, "reduce", "xXy")
    assert doc["reduced"] == "y"
    assert doc["trace"]["events"] == [[0, 1, "internal"]]


def test_machine_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "--json", "puzo", "txy", "YzT")
    _, out2, _ = run(capsys, "--json", "puzo", "txy", "YzT")
    assert out1 == out2


def test_classify(capsys):
    _, doc = run_json(capsys, "classify", "txy", "YzT")
    assert doc["case"] == 2
    assert doc["fields"] == {"t": "t", "c1": "x", "c2": "z", "a": "y"}


def test_puzo_document(capsys):
    _, doc = run_json(capsys, "puzo", "txy", "YzT")
    assert doc["case"] == 2
    assert doc["shift"] == 1
    assert doc["uv_product"] == "xz"
    assert doc["vu_product"] == "zx"
    assert doc["perm_terms"] == [1, 3]
    assert doc["collapse_schedule_length"] == 2 * doc["collapse_input"]["n"] + 3
    assert len(doc["identity"]) == 4


def test_anyorder(capsys):
    _, doc = run_json(capsys, "anyorder", "xXyX", "--policy",
                      "external-first-when-valid")
    assert doc["result"] == "Xy"
    assert doc["offset"] == 1
    _, doc = run_json(capsys, "anyorder", "xXyX")
    assert doc["result"] == "yX"
    _, doc = run_json(capsys, "anyorder", "xXyX", "--seed", "7")
    assert doc["offset"] is not None
    with pytest.raises(SystemExit) as e:
        cli.main(["anyorder", "xXyX", "--policy", "internal-first", "--seed", "1"])
    assert e.value.code == 2
    capsys.readouterr()


# (word, chooser option, exact `cycred --json anyorder` stdout), recorded
# with the quadratic any-order kernel that the linear one replaced
_ANYORDER_STDOUT = [
    ('xXyX', '--policy internal-first',
     '{"chooser": "internal-first", "command": "anyorder", '
     '"input": "xXyX", "offset": 0, "result": "yX", '
     '"trace": {"events": [[0, 1, "internal"]], "original_length": 4}}\n'),
    ('xXyX', '--policy external-first-when-valid',
     '{"chooser": "external-first-when-valid", "command": "anyorder", '
     '"input": "xXyX", "offset": 1, "result": "Xy", '
     '"trace": {"events": [[0, 3, "external"]], "original_length": 4}}\n'),
    ('xXyX', '--policy rightmost-internal-first',
     '{"chooser": "rightmost-internal-first", "command": "anyorder", '
     '"input": "xXyX", "offset": 0, "result": "yX", '
     '"trace": {"events": [[0, 1, "internal"]], "original_length": 4}}\n'),
    ('xXyX', '--policy alternating',
     '{"chooser": "alternating", "command": "anyorder", "input": "xXyX", '
     '"offset": 0, "result": "yX", "trace": {"events": [[0, 1, '
     '"internal"]], "original_length": 4}}\n'),
    ('xXyX', '--seed 3',
     '{"chooser": "3", "command": "anyorder", "input": "xXyX", '
     '"offset": 0, "result": "yX", "trace": {"events": [[0, 1, '
     '"internal"]], "original_length": 4}}\n'),
    ('xXyX', '--seed 11',
     '{"chooser": "11", "command": "anyorder", "input": "xXyX", '
     '"offset": 1, "result": "Xy", "trace": {"events": [[0, 3, '
     '"external"]], "original_length": 4}}\n'),
    ('xyYXxYyzZX', '--policy internal-first',
     '{"chooser": "internal-first", "command": "anyorder", '
     '"input": "xyYXxYyzZX", "offset": 0, "result": "1", '
     '"trace": {"events": [[1, 2, "internal"], [0, 3, "internal"], [5, 6, '
     '"internal"], [7, 8, "internal"], [4, 9, "internal"]], '
     '"original_length": 10}}\n'),
    ('xyYXxYyzZX', '--policy external-first-when-valid',
     '{"chooser": "external-first-when-valid", "command": "anyorder", '
     '"input": "xyYXxYyzZX", "offset": 0, "result": "1", '
     '"trace": {"events": [[0, 9, "external"], [1, 2, "internal"], [3, 4, '
     '"internal"], [5, 6, "internal"], [7, 8, "internal"]], '
     '"original_length": 10}}\n'),
    ('xyYXxYyzZX', '--policy rightmost-internal-first',
     '{"chooser": "rightmost-internal-first", "command": "anyorder", '
     '"input": "xyYXxYyzZX", "offset": 0, "result": "1", '
     '"trace": {"events": [[7, 8, "internal"], [5, 6, "internal"], [4, 9, '
     '"internal"], [1, 2, "internal"], [0, 3, "internal"]], '
     '"original_length": 10}}\n'),
    ('xyYXxYyzZX', '--policy alternating',
     '{"chooser": "alternating", "command": "anyorder", '
     '"input": "xyYXxYyzZX", "offset": 0, "result": "1", '
     '"trace": {"events": [[1, 2, "internal"], [0, 9, "external"], [3, 4, '
     '"internal"], [5, 6, "internal"], [7, 8, "internal"]], '
     '"original_length": 10}}\n'),
    ('xyYXxYyzZX', '--seed 3',
     '{"chooser": "3", "command": "anyorder", "input": "xyYXxYyzZX", '
     '"offset": 0, "result": "1", "trace": {"events": [[3, 4, '
     '"internal"], [5, 6, "internal"], [7, 8, "internal"], [0, 9, '
     '"external"], [1, 2, "internal"]], "original_length": 10}}\n'),
    ('xyYXxYyzZX', '--seed 11',
     '{"chooser": "11", "command": "anyorder", "input": "xyYXxYyzZX", '
     '"offset": 0, "result": "1", "trace": {"events": [[7, 8, '
     '"internal"], [0, 9, "external"], [3, 4, "internal"], [1, 2, '
     '"internal"], [5, 6, "internal"]], "original_length": 10}}\n'),
    ('XxxXyYzxX', '--policy internal-first',
     '{"chooser": "internal-first", "command": "anyorder", '
     '"input": "XxxXyYzxX", "offset": 0, "result": "z", '
     '"trace": {"events": [[0, 1, "internal"], [2, 3, "internal"], [4, 5, '
     '"internal"], [7, 8, "internal"]], "original_length": 9}}\n'),
    ('XxxXyYzxX', '--policy external-first-when-valid',
     '{"chooser": "external-first-when-valid", "command": "anyorder", '
     '"input": "XxxXyYzxX", "offset": 0, "result": "z", '
     '"trace": {"events": [[0, 1, "internal"], [2, 8, "external"], [3, 7, '
     '"external"], [4, 5, "internal"]], "original_length": 9}}\n'),
    ('XxxXyYzxX', '--policy rightmost-internal-first',
     '{"chooser": "rightmost-internal-first", "command": "anyorder", '
     '"input": "XxxXyYzxX", "offset": 0, "result": "z", '
     '"trace": {"events": [[7, 8, "internal"], [4, 5, "internal"], [2, 3, '
     '"internal"], [0, 1, "internal"]], "original_length": 9}}\n'),
    ('XxxXyYzxX', '--policy alternating',
     '{"chooser": "alternating", "command": "anyorder", '
     '"input": "XxxXyYzxX", "offset": 0, "result": "z", '
     '"trace": {"events": [[0, 1, "internal"], [2, 8, "external"], [4, 5, '
     '"internal"], [3, 7, "external"]], "original_length": 9}}\n'),
    ('XxxXyYzxX', '--seed 3',
     '{"chooser": "3", "command": "anyorder", "input": "XxxXyYzxX", '
     '"offset": 0, "result": "z", "trace": {"events": [[2, 3, '
     '"internal"], [7, 8, "internal"], [0, 1, "internal"], [4, 5, '
     '"internal"]], "original_length": 9}}\n'),
    ('XxxXyYzxX', '--seed 11',
     '{"chooser": "11", "command": "anyorder", "input": "XxxXyYzxX", '
     '"offset": 0, "result": "z", "trace": {"events": [[7, 8, '
     '"internal"], [4, 5, "internal"], [2, 3, "internal"], [0, 1, '
     '"internal"]], "original_length": 9}}\n'),
]


@pytest.mark.parametrize("word,option,stdout", _ANYORDER_STDOUT)
def test_anyorder_stdout_is_pinned(capsys, word, option, stdout):
    code, out, _ = run(capsys, "--json", "anyorder", word, *option.split())
    assert code == 0 and out == stdout


def test_latin(capsys):
    _, doc = run_json(capsys, "latin", "xy", "yy", "--count", "2")
    assert doc["s"] == "X"
    assert doc["pairs"] == [
        {"n": 1, "v": "YXXyyx", "v_prime": "XyyxYX"},
        {"n": 2, "v": "YXXXyyxx", "v_prime": "XXyyxxYX"},
    ]


def test_collapse(tmp_path, capsys):
    payload = {"terms": [["1", "X"], ["1", "xy"], ["1", "x"], ["X", "YX"]],
            "ops": [{"type": "exchangeA", "pos": 2},
                    {"type": "deletion", "pos": 1, "kind": "semiPeiffer"},
                    {"type": "deletion", "pos": 1, "kind": "semiPeiffer"}]}
    f = tmp_path / "h.json"
    f.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "collapse", "--file", str(f))
    assert code == 0
    assert doc["trivial"] is True
    assert doc["initial_psi"] == "1"
    assert doc["ops_applied"] == 3

    # dropping the final deletion leaves a nontrivial element: exit 1
    payload["ops"] = payload["ops"][:2]
    f.write_text(json.dumps(payload))
    code, doc = run_json(capsys, "collapse", "--file", str(f))
    assert code == 1
    assert doc["trivial"] is False

    f.write_text("{not json")
    code, _, err = run(capsys, "collapse", "--file", str(f))
    assert code == 2 and "error:" in err

    f.write_text(json.dumps({"terms": [], "ops": [{"type": "warp", "pos": 1}]}))
    code, _, err = run(capsys, "collapse", "--file", str(f))
    assert code == 2 and "error:" in err

    # a valid document whose op does not apply is a domain failure: exit 1
    f.write_text(json.dumps({"terms": [["1", "x"]],
                             "ops": [{"type": "exchangeA", "pos": 5}]}))
    code, _, err = run(capsys, "collapse", "--file", str(f))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("text", [
    json.dumps({"terms": [[1, "x"]], "ops": []}),
    json.dumps({"terms": [["1", "x"], ["1", "X"]],
                "ops": [{"type": "exchangeA", "pos": True}]}),
    json.dumps([["1", "x"]]),
    json.dumps({"terms": [["1", "x"]], "ops": [{"type": "warp", "pos": 1}]}),
    json.dumps({"terms": [["1", "x"]], "ops": [{"type": ["exchangeA"], "pos": 1}]}),
    json.dumps({"terms": 5, "ops": []}),
    json.dumps({"terms": [["1", "x"]]}),
    b'{"terms": [["1", "\xff"]], "ops": []}',
], ids=["non-string term", "boolean pos", "list document", "unknown op type",
        "unhashable op type", "terms not a list", "missing ops", "not utf-8"])
def test_malformed_collapse_document_exits_two(tmp_path, capsys, text):
    f = tmp_path / "h.json"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "collapse", "--file", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_closure_round_trip(tmp_path, capsys):
    rel = tmp_path / "rels.txt"
    rel.write_text("# comment\nxy\n\ny\n")
    out = tmp_path / "set.txt"
    code, doc = run_json(capsys, "closure", "--relators", str(rel),
                         "--maxlen", "4", "--rounds", "8", "--out", str(out))
    assert code == 0
    assert doc["saturated"] is True
    assert doc["member_count"] == 50

    code, doc = run_json(capsys, "closure-query", "--set", str(out), "x")
    assert code == 0 and doc["found"] is True
    code, doc = run_json(capsys, "closure-query", "--set", str(out), "zz")
    assert code == 0 and doc["found"] is False

    code, _, err = run(capsys, "closure-query", "--set", str(out), "x$")
    assert code == 2


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b"maxlen=4", b"maxlen=zz"),
    lambda b: b.replace(b" rounds=4 ", b" rounds=99 "),
    lambda b: b + b"x\n",
    lambda b: b.replace(b"maxlen=4", b"maxlen=\xc3\xa9"),
], ids=["bad header", "rounds over maxrounds", "saturated with frontier",
        "non-ascii"])
def test_malformed_closure_file_exits_two(tmp_path, capsys, edit):
    rel = tmp_path / "rels.txt"
    rel.write_text("xy\ny\n")
    out = tmp_path / "set.txt"
    code, _, _ = run(capsys, "closure", "--relators", str(rel), "--maxlen", "4",
                     "--rounds", "8", "--out", str(out))
    assert code == 0
    out.write_bytes(edit(out.read_bytes()))
    code, stdout, err = run(capsys, "closure-query", "--set", str(out), "x")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_import_loads_no_thread_pool():
    code = "import sys, cycred.cli; print('concurrent.futures' in sys.modules)"
    assert run_python(["-c", code]) == "False\n"


def test_closure_query_uses_saved_alphabet(tmp_path, capsys):
    rel = tmp_path / "rels.txt"
    rel.write_text("ab\n")
    out = tmp_path / "set.txt"
    run(capsys, "--alphabet", "a,b", "closure", "--relators", str(rel),
        "--maxlen", "3", "--rounds", "4", "--out", str(out))
    code, _, err = run(capsys, "closure-query", "--set", str(out), "z")
    assert code == 2 and "error:" in err


def test_spaced_syntax(capsys):
    code, out, _ = run(capsys, "--syntax", "spaced", "--alphabet", "u,v",
                       "prod", "u v^-1", "v u")
    assert code == 0 and out.strip() == "u u"
    with pytest.raises(SystemExit) as e:
        cli.main(["--syntax", "spaced", "prod", "x", "y"])
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("names,word", [("a^-1,b", "b"), ("1,b", "b"),
                                        ("a b,c", "c")])
def test_spaced_rejects_names_it_cannot_round_trip(capsys, names, word):
    with pytest.raises(SystemExit) as e:
        cli.main(["--syntax", "spaced", "--alphabet", names, "cprod", word, word])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err and "ASCII identifier" in out.err


@pytest.mark.parametrize("names,argv", [("ab,c", ["cprod", "c", "c"]),
                                        ("alpha,beta", ["reduce", "ab"])])
def test_compact_rejects_names_it_cannot_spell(capsys, names, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(["--alphabet", names] + argv)
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "single-character a-z" in out.err


def test_closure_refuses_an_alphabet_it_cannot_save(tmp_path, capsys,
                                                    monkeypatch):
    """Closure files spell members in the compact syntax, so a spaced
    alphabet of longer names exits 2 before anything is enumerated."""
    def boom(*args):
        raise AssertionError("the closure was enumerated")
    monkeypatch.setattr(closure_mod, "run", boom)
    rel = tmp_path / "rels.txt"
    rel.write_text("alpha beta\nbeta\n")
    out = tmp_path / "set.txt"
    with pytest.raises(SystemExit) as e:
        cli.main(["--syntax", "spaced", "--alphabet", "alpha,beta", "closure",
                  "--relators", str(rel), "--maxlen", "3", "--rounds", "4",
                  "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "single-character a-z" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [rel]


def test_non_utf8_relators_exit_two(tmp_path, capsys):
    rel = tmp_path / "bad.txt"
    rel.write_bytes(b"xy\n\xff\xfe\n")
    out = tmp_path / "set.txt"
    code, stdout, err = run(capsys, "closure", "--relators", str(rel),
                            "--maxlen", "3", "--rounds", "3", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_alphabet_restriction(capsys):
    code, _, err = run(capsys, "--alphabet", "x,y", "reduce", "z")
    assert code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["--alphabet", "x,x", "reduce", "x"])
    assert e.value.code == 2
    capsys.readouterr()


def test_exit_code_one_on_domain_errors(tmp_path, capsys):
    code, _, err = run(capsys, "classify", "xy", "YX")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "latin", "xy", "yy", "--count", "-2")
    assert code == 1
    rel = tmp_path / "rels.txt"
    rel.write_text("# no relators\n")
    code, _, err = run(capsys, "closure", "--relators", str(rel), "--maxlen", "4",
                       "--rounds", "8", "--out", str(tmp_path / "set.txt"))
    assert code == 1 and "relator set is empty" in err


def test_empty_word_round_trips(capsys):
    code, out, _ = run(capsys, "prod", "x", "X")
    assert code == 0 and out.strip() == "1"
    _, doc = run_json(capsys, "reduce", "1")
    assert doc["reduced"] == "1"


# Fuzz of main over the 11 subcommands and the global options.  Junk text
# holds no "h", so that no argument can spell -h or an abbreviation of
# --help, the one way argparse exits 0 without running a subcommand.
_JUNK = "xyzXYZabAB1 ^-$,\t\u00e9"
_WORD = st.one_of(
    st.text("xyzXYZabAB1", min_size=1, max_size=8),
    st.lists(st.sampled_from(["x", "x^-1", "y", "y^-1", "u", "v^-1", "1"]),
             min_size=1, max_size=6).map(" ".join),
    st.text(_JUNK, max_size=8))
_NAMES = st.one_of(
    st.none(),
    st.sampled_from(["x,y,z", "a,b", "u,v", "ab,c", "alpha,beta", "x,x",
                     "a^-1,b", ",", ""]),
    st.text(_JUNK, max_size=6))
_COLLAPSE_DOC = st.builds(
    lambda terms, ops: json.dumps({"terms": terms, "ops": ops}).encode(),
    st.lists(st.lists(_WORD, min_size=2, max_size=2), max_size=4),
    st.lists(st.fixed_dictionaries({
        "type": st.sampled_from(["exchangeA", "exchangeB", "deletion", "warp"]),
        "pos": st.integers(-1, 4),
        "kind": st.sampled_from(["general", "semiPeiffer", "bogus"])}),
        max_size=4))
_LINES = st.lists(_WORD, max_size=4).map(lambda ls: "\n".join(ls).encode())
# an input file is a head (None: a valid saved closure file) and a tail of
# random bytes
_FILE = st.tuples(st.one_of(st.binary(max_size=40), _LINES, _COLLAPSE_DOC,
                            st.none()),
                  st.binary(max_size=8))


@st.composite
def _invocations(draw):
    """(argv, the --alphabet value or None, whether the syntax is spaced,
    the input file's (head, tail))."""
    argv, names = [], draw(_NAMES)
    syntax = draw(st.sampled_from([None, "compact", "spaced"]))
    if syntax:
        argv += ["--syntax", syntax]
    if names is not None:
        argv += ["--alphabet", names]
    if draw(st.booleans()):
        argv.append("--json")
    # the three subcommands that read a file get about half the draws
    cmd = draw(st.sampled_from(sorted(cli._HANDLERS))
               | st.sampled_from(["collapse", "closure", "closure-query"]))
    argv.append(cmd)
    data = draw(_FILE)
    if cmd in ("reduce", "cycreduce"):
        argv.append(draw(_WORD))
    elif cmd in ("prod", "cprod", "classify", "puzo"):
        argv += [draw(_WORD), draw(_WORD)]
    elif cmd == "anyorder":
        argv.append(draw(_WORD))
        argv += draw(st.sampled_from([[], ["--policy", "alternating"],
                                      ["--policy", "bogus"], ["--seed", "3"],
                                      ["--seed", "x"]]))
    elif cmd == "latin":
        argv += [draw(_WORD), draw(_WORD), "--count", str(draw(st.integers(-1, 3)))]
    elif cmd == "collapse":
        argv += ["--file", "IN"]
    elif cmd == "closure":
        argv += ["--relators", "IN", "--maxlen", str(draw(st.integers(0, 5))),
                 "--rounds", str(draw(st.integers(0, 3))),
                 "--out", draw(st.sampled_from(["OUT", "DIR", "MISSING/OUT"]))]
        if draw(st.booleans()):
            argv.append("--no-inverses")
    else:
        argv += ["--set", draw(st.sampled_from(["IN", "MISSING"])), draw(_WORD)]
    return argv, names, syntax == "spaced", data


def _names_malformed(names, spaced):
    gens = [t for t in names.split(",") if t]
    if len(set(gens)) != len(gens):
        return True
    if spaced:
        return not all(g.isascii() and g.isidentifier() for g in gens)
    return not all(len(g) == 1 and "a" <= g <= "z" for g in gens)


def _utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=250, deadline=None)
@given(_invocations())
def test_main_fuzz_honors_exit_codes(inv):
    """Exit 0, 1 or 2 and never a traceback; malformed alphabet names and a
    file that is not UTF-8 exit 2."""
    argv, names, spaced, (head, tail) = inv
    reads_input = "IN" in argv
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in")
        if head is None:
            rel = [parse_compact("xy", COMPACT_ALPHABET)]
            state = closure_mod.run(closure_mod.seed(
                rel, closure_mod.ClosureConfig(3, 2)))
            closure_mod.save(state, path)
            with open(path, "rb") as f:
                head = f.read()
        data = head + tail
        with open(path, "wb") as f:
            f.write(data)
        places = {"IN": path, "OUT": os.path.join(tmp, "out"), "DIR": tmp,
                  "MISSING": os.path.join(tmp, "missing"),
                  "MISSING/OUT": os.path.join(tmp, "missing", "out")}
        argv = [places.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, (argv, err.getvalue())
                code = 2
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if not names and spaced or names and _names_malformed(names, spaced):
        assert code == 2, (argv, err.getvalue())
    if reads_input and not _utf8(data):
        assert code == 2, (argv, err.getvalue())
