"""End-to-end checks of the command-line interface."""

import json

import pytest

from cycred import cli
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
