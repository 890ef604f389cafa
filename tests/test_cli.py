import io
import json
import os
import random
import subprocess
import sys

import pytest

from dualform import Matrix, ValidationError, adjugate, cli, det, linalg
from dualform.cli import MAX_DIGITS, MAX_DIM, main, parse_problem
from helpers import FQ, record_calls

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseProblem:
    def test_paper_fixture(self):
        with open(fx("paper5.json")) as fh:
            inst = parse_problem(fh.read())
        assert inst.n == 5 and inst.m == 3
        assert inst.form.upper == {(1, 2): 2}

    def test_integer_scalars_accepted(self):
        inst = parse_problem({"field": "rational", "n": 2,
                              "S": [[1, 0]], "Q": {"diag": [3]}})
        assert inst.eval_q((1,)) == 3

    def test_missing_key(self):
        with pytest.raises(ValidationError):
            parse_problem({"field": "rational", "n": 2, "S": []})

    def test_bad_upper_entry(self):
        doc = {"field": "rational", "n": 2, "S": [["1", "0"], ["0", "1"]],
               "Q": {"diag": ["0", "0"], "upper": [[2, 1, "1"]]}}
        with pytest.raises(ValidationError):
            parse_problem(doc)

    def test_bad_scalar(self):
        doc = {"field": "rational", "n": 1, "S": [["1"]],
               "Q": {"diag": [1.5]}}
        with pytest.raises(ValidationError):
            parse_problem(doc)

    def test_dependent_rows_rejected(self):
        doc = {"field": "rational", "n": 2, "S": [["1", "0"], ["2", "0"]],
               "Q": {"diag": ["0", "0"]}}
        with pytest.raises(ValidationError):
            parse_problem(doc)

    def test_field_override(self):
        with open(fx("rad2_q.json")) as fh:
            text = fh.read()
        from dualform import make_field
        inst = parse_problem(text, field_override=make_field("prime", 2))
        assert inst.field.characteristic() == 2


class TestCommands:
    def test_radical(self, capsys):
        code, out, _ = run_cli(capsys, "radical", fx("paper5.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 1
        assert doc["radical_basis"] == [["1", "0", "0", "0", "0"]]

    def test_check_condition(self, capsys):
        code, out, _ = run_cli(capsys, "check-condition", fx("rad2_q.json"))
        assert code == 0
        assert json.loads(out) == {"condition": True}

    def test_check_condition_gf2(self, capsys):
        code, out, _ = run_cli(capsys, "check-condition", fx("rad2_gf2.json"))
        assert code == 0
        assert json.loads(out) == {"condition": False}

    def test_dualize_paper(self, capsys):
        code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["G22"] == [["1", "2"], ["2", "3"]]
        assert doc["G22_hat"] == [["-3", "2"], ["2", "-1"]]
        assert doc["dual_coefficients"]["diag"] == ["-3/2", "-1/2", "0", "0"]
        assert doc["dual_coefficients"]["upper"] == [[0, 1, "2"]]
        assert doc["index_sets"] == {"I1": [0], "I2": [1, 2],
                                     "I3": [3, 4]}
        assert doc["R_hat"] == [["0", "0", "0", "1", "0"],
                                ["0", "0", "0", "0", "1"]]

    def test_dualize_half_gram(self, capsys):
        code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"),
                               "--half-gram")
        assert code == 0
        doc = json.loads(out)
        assert doc["half_gram"] == [["0", "0", "0"],
                                    ["0", "1/2", "1"],
                                    ["0", "1", "3/2"]]
        assert "dual_half_gram" in doc

    def test_half_gram_rejected_in_char2(self, capsys):
        code, _, err = run_cli(capsys, "dualize", fx("hyp_gf2.json"),
                               "--half-gram")
        assert code == 1
        assert "characteristic" in err

    def test_dualize_condition_violated_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "dualize", fx("rad2_gf2.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_double_dual(self, capsys):
        code, out, _ = run_cli(capsys, "double-dual", fx("paper5.json"))
        assert code == 0
        assert json.loads(out) == {"double_dual_equals_original": True}

    def test_linked(self, capsys):
        code, out, _ = run_cli(capsys, "linked", fx("paper5.json"),
                               "--form", "0,1,0,0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["representative"] == ["0", "-3", "2", "0", "0"]
        assert doc["radical_basis"] == [["1", "0", "0", "0", "0"]]

    def test_linked_forms(self, capsys):
        code, out, _ = run_cli(capsys, "linked-forms", fx("paper5.json"),
                               "--vector", "0,1,0,0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["representative"] == ["0", "1", "2", "0", "0"]

    def test_linked_bad_length(self, capsys):
        code, _, err = run_cli(capsys, "linked", fx("paper5.json"),
                               "--form", "0,1")
        assert code == 1
        assert "entries" in err

    def test_normalize_rational(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", fx("paper5.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "diagonal"
        g = doc["gram"]
        assert all(g[i][j] == "0" for i in range(3) for j in range(3)
                   if i != j)

    def test_normalize_gf2(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", fx("hyp_gf2.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "minor-diagonal-char2"
        assert doc["gram"] == [["0", "1"], ["1", "0"]]

    def test_similarity_reflection(self, capsys):
        code, out, _ = run_cli(capsys, "similarity", fx("paper5.json"),
                               "--map", fx("reflection_map.json"),
                               "--ratio", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["preserves_S"] is True
        assert doc["primal_ok"] is True
        assert doc["dual_ok"] is True
        assert doc["verdicts_agree"] is True
        assert doc["zero_blocks_ok"] == {"P21": True, "P31": True,
                                         "P32": True}
        assert doc["blocks"]["P22"] == [["-1", "-4"], ["0", "1"]]

    def test_adjugate(self, capsys):
        code, out, _ = run_cli(capsys, "adjugate", fx("adjugate_sym.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["det"] == "-1"
        assert doc["adjugate"] == [["3", "-2"], ["-2", "1"]]


class TestErrorPaths:
    def test_malformed_json(self, capsys):
        code, _, err = run_cli(capsys, "radical", fx("malformed.json"))
        assert code == 1
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "radical", fx("nope.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_bad_field_flag(self, capsys):
        """--field reads 'rational' or ASCII digits only: not int()'s
        underscores, non-ASCII digits or sign."""
        for flag in ("six", "1_1", "\u0663", "+7"):
            code, _, err = run_cli(capsys, "radical", fx("paper5.json"),
                                   "--field", flag)
            assert code == 1, flag
            assert err.startswith(
                "error: --field must be 'rational' or a prime"), flag

    def test_composite_field_flag(self, capsys):
        code, _, _ = run_cli(capsys, "radical", fx("paper5.json"),
                             "--field", "6")
        assert code == 1


def _paper5_doc(**changes):
    with open(fx("paper5.json")) as fh:
        doc = json.load(fh)
    doc.update(changes)
    return doc


@pytest.mark.parametrize("argv, doc", [
    (["radical"], _paper5_doc(field={"kind": "prime", "p": "7"})),
    (["radical"], _paper5_doc(field={"kind": 5})),
    (["radical"], _paper5_doc(Q={"diag": ["0", "1/2", "3/2"], "upper": 5})),
    (["adjugate"], [[1, 2], [3, 4]]),
    (["dualize", "--half-gram"], [[1, 2], [3, 4]]),
    (["adjugate"], {"field": "rational", "M": [1, 2]}),
    (["radical"], {"field": "rational", "n": True, "S": [["1"]],
                   "Q": {"diag": ["1"]}}),
    (["dualize"], _paper5_doc(Q={"diag": ["0", "1e5000", "3/2"]})),
    (["similarity", "--map", fx("reflection_map.json"), "--ratio", "1e5000"],
     _paper5_doc()),
    (["radical"], _paper5_doc(Q={"diag": ["0", "1.5", "3/2"]})),
    (["linked-forms", "--vector=0,1e5,0,0,0"], _paper5_doc()),
    (["radical"], _paper5_doc(field={"kind": "prime", "p": 7},
                              Q={"diag": ["0", "1_0", "+3"]})),
    (["adjugate"], {"field": "rational",
                    "M": [["1" + "0" * 2500, "0"], ["0", "1" + "0" * 2500]]}),
    (["adjugate"], {"field": "rational",
                    "M": [["1" + "0" * (MAX_DIGITS - 1) if i == j else "0"
                           for j in range(5)] for i in range(5)]}),
    (["normalize"], {"field": "rational", "n": 2,
                     "S": [["1", "0"], ["0", "1"]],
                     "Q": {"diag": ["1", "-2"],
                           "upper": [[0, 1, "1"], [0, 1, "5"]]}}),
    (["radical"], _paper5_doc(S="e1")),
    (["radical"], _paper5_doc(S=[["1", "0", "0", "0", "0"], ["0", "1"]])),
    (["radical"], _paper5_doc(Q={"diag": ["0", "1/2"]})),
    (["radical"], _paper5_doc(Q={"diag": ["0", "1/2", "3/2"],
                                 "upper": [[1, 2]]})),
    (["similarity", "--map", fx("paper5.json")], _paper5_doc()),
    (["adjugate"], {"field": "rational", "M": "1"}),
], ids=["p-string", "kind-int", "upper-int", "adjugate-list",
        "half-gram-list", "M-flat", "n-bool", "exponent-scalar",
        "exponent-ratio", "decimal-scalar", "exponent-vector",
        "residue-underscore", "digits-result", "digits-result-in-limit",
        "upper-duplicate", "S-not-list", "S-row-width", "diag-count",
        "upper-shape", "map-without-P", "M-not-list"])
def test_malformed_input_is_an_error_line(capsys, tmp_path, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("upper, line", [
    ([[0, 1, "x"], [2, 1, "1"]], "error: bad scalar 'x' in Q.upper[0,1]\n"),
    ([[2, 1, "1"], [0, 1, "x"]],
     "error: Q.upper index (2, 1) out of order or range\n"),
], ids=["scalar-first", "index-first"])
def test_the_first_bad_upper_entry_is_the_error_line(capsys, tmp_path,
                                                     upper, line):
    """Q.upper's values are read as one row, yet a bad scalar before a
    bad index is the line printed, as a bad index before a bad scalar is:
    the entries are refused in order."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_paper5_doc(
        Q={"diag": ["0", "1/2", "3/2"], "upper": upper})))
    assert run_cli(capsys, "radical", str(path)) == (1, "", line)


def test_singular_map_is_an_error_line(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"P": [["1" if i == j < 4 else "0"
                                       for j in range(5)]
                                      for i in range(5)]}))
    code, out, err = run_cli(capsys, "similarity", fx("paper5.json"),
                             "--map", str(path))
    assert (code, out, err) == (1, "", "error: P is singular\n")


@pytest.mark.parametrize("source", ["file", "stdin", "map"])
def test_invalid_utf8_is_an_error_line(capsys, monkeypatch, tmp_path, source):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"field": "rational\xff"}')
    argv = {"file": ["radical", str(path)],
            "stdin": ["radical", "-"],
            "map": ["similarity", fx("paper5.json"), "--map", str(path)]}
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(path.read_bytes()), encoding="utf-8"))
    code, out, err = run_cli(capsys, *argv[source])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_deep_nesting_is_an_error_line(capsys, tmp_path):
    """100000 nested lists exhaust the JSON decoder's recursion limit."""
    path = tmp_path / "input.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "radical", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, rows, det_out", [
    ("rational", [["1/2", "2", "0"], ["3", "-1", "4"], ["0", "5", "7/3"]],
     "-151/6"),
    ({"kind": "prime", "p": 7}, [["1", "2", "0"], ["3", "6", "4"],
                                 ["0", "5", "2"]], "1"),
    ("rational", [["1", "2"], ["2", "4"]], "0"),
    ("rational", [["1", "2", "3"], ["2", "4", "6"], ["0", "0", "0"]], "0"),
    ("rational", [], "1"),
], ids=["rational", "gf7", "corank-1", "corank-2", "empty"])
def test_adjugate_command_computes_det_once(capsys, monkeypatch, tmp_path,
                                            field, rows, det_out):
    """det is read off the adjugate's first row: the command never calls
    det (the adjugate's one elimination yields all it needs at every
    rank), and prints the same bytes as det and adjugate computed
    separately."""
    dets = []

    def counting(M):
        dets.append((M.rows, M.cols))
        return det(M)

    monkeypatch.setattr(linalg, "det", counting)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"field": field, "M": rows}))
    code, out, err = run_cli(capsys, "adjugate", str(path))
    assert (code, err) == (0, "")
    F = cli._field_from_doc(field)
    M = Matrix(F, [[F.parse(x) for x in row] for row in rows],
               cols=len(rows))
    assert dets == []
    monkeypatch.undo()
    assert det(M) == F.parse(det_out)
    expected = {"det": det_out,
                "adjugate": [[F.format(x) for x in row]
                             for row in adjugate(M).data]}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_oversized_int_literal_is_an_error_line(capsys, tmp_path):
    """An int literal over Python's int/str digit limit; written as text,
    because json.dumps cannot write that int either."""
    path = tmp_path / "input.json"
    path.write_text('{"field": "rational", "n": 1' + "0" * 5000
                    + ', "S": [], "Q": {"diag": []}}')
    code, out, err = run_cli(capsys, "radical", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, doc", [
    ("dualize", {"field": "rational", "n": 10**9, "S": [],
                 "Q": {"diag": []}}),
    ("adjugate", {"field": "rational", "M": [[0]] * (MAX_DIM + 1)}),
], ids=["n", "adjugate"])
def test_runaway_size_is_refused_before_any_work(capsys, monkeypatch,
                                                 tmp_path, command, doc):
    """The computations are replaced by a trap, so that a missing limit
    fails the test instead of building a 10^9 x 10^9 identity."""
    def trap(*args):
        pytest.fail("computation started on a runaway size")

    for name in ("dualize", "adjugate", "dot"):
        monkeypatch.setattr(cli, name, trap)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"limit {MAX_DIM}" in err


LONG = "1" * (MAX_DIGITS + 1)
MAP_WITH_LONG = {"P": [[LONG if (i, j) == (4, 4) else str(int(i == j))
                        for j in range(5)] for i in range(5)]}


@pytest.mark.parametrize("argv, doc", [
    (["dualize"], _paper5_doc(S=[["1", "0", "0", "0", LONG],
                                 ["0", "1", "0", "0", "0"],
                                 ["0", "0", "1", "0", "0"]])),
    (["dualize"], _paper5_doc(Q={"diag": ["0", "-" + LONG, "3/2"]})),
    (["dualize"], _paper5_doc(Q={"diag": ["0", "1/2", "3/2"],
                                 "upper": [[1, 2, "1/" + LONG[1:]]]})),
    (["linked-forms", "--vector=0,1,0,0," + LONG], _paper5_doc()),
    (["linked", "--form=0,1,0,0," + LONG], _paper5_doc()),
    (["similarity", "--map", fx("reflection_map.json"), "--ratio", LONG],
     _paper5_doc()),
    (["similarity", "--map", "MAP"], _paper5_doc()),
    (["adjugate"], {"field": "rational", "M": [[10 ** MAX_DIGITS]]}),
], ids=["S", "Q.diag", "Q.upper", "vector", "form", "ratio", "P", "M"])
def test_scalar_over_the_digit_limit_is_refused(capsys, monkeypatch,
                                                tmp_path, argv, doc):
    """A wire scalar with MAX_DIGITS + 1 digits, as text (a rational's
    numerator and denominator counted together) or as a JSON int, is one
    error line before the command computes anything."""
    def trap(*args):
        pytest.fail("computation started on an over-long scalar")

    for name in ("dualize", "adjugate", "linked_coset", "linked_forms",
                 "LinearMap", "theorem_psi_check"):
        monkeypatch.setattr(cli, name, trap)
    path, map_path = tmp_path / "input.json", tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    map_path.write_text(json.dumps(MAP_WITH_LONG))
    argv = [str(map_path) if a == "MAP" else a for a in argv]
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"limit of {MAX_DIGITS} digits" in err


def test_scalar_at_the_digit_limit_is_accepted(capsys, tmp_path):
    at_limit = "1/" + "3" * (MAX_DIGITS - 1)
    doc = _paper5_doc(Q={"diag": [0, 10 ** MAX_DIGITS - 1, at_limit],
                         "upper": [[1, 2, "-" + "7" * MAX_DIGITS]]})
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "radical", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 1


def test_a_result_over_the_str_digit_limit_is_an_error_line(capsys,
                                                            tmp_path,
                                                            digit_limit):
    """A 7 x 7 rational input of rank 6 with entries below 4 * 10**998,
    each within MAX_DIGITS, has det 0, but its adjugate entries, 6 x 6
    minors of about 6000 digits, pass Python's int-to-text digit limit,
    pinned at its default 4300: one error line, exit 1 and no output."""
    rng = random.Random(5)
    rows = [[rng.randrange(2 * 10 ** 998) for _ in range(7)]
            for _ in range(6)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"field": {"kind": "rational"},
                                "M": [[str(x) for x in r] for r in rows]}))
    code, out, err = run_cli(capsys, "adjugate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: result scalar has too many digits to print\n"


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"),
                               "--output", str(target))
        assert code == 0
        assert out == ""
        code2, out2, _ = run_cli(capsys, "dualize", fx("paper5.json"))
        assert target.read_text() == out2

    def test_round_trip_dual_as_problem(self, capsys, tmp_path):
        # Feed the dual coefficients back in as a new problem file and
        # dualize again; the double dual reproduces the original form.
        code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"))
        doc = json.loads(out)
        problem = {
            "field": {"kind": "rational"},
            "n": 5,
            "S": doc["dual_basis"],
            "Q": {"diag": doc["dual_coefficients"]["diag"],
                  "upper": doc["dual_coefficients"]["upper"]},
        }
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "dualize", str(path))
        assert code == 0
        dd = json.loads(out)
        assert dd["dual_coefficients"]["diag"] == ["1/2", "3/2", "0"]
        assert dd["dual_coefficients"]["upper"] == [[0, 1, "2"]]


def test_one_parser_serves_every_call(capsys):
    """main reuses one parser; nothing of a call, a usage error or a flag,
    carries over into the next."""
    assert cli.build_parser() is cli.build_parser()
    for argv in (["linked", fx("paper5.json")],
                 ["no-such-command", fx("paper5.json")]):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("usage: dualform")
    code, out, err = run_cli(capsys, "linked", fx("paper5.json"),
                             "--form=0,1,0,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["representative"] == ["0", "-3", "2", "0", "0"]
    code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"),
                           "--half-gram")
    assert code == 0 and "half_gram" in json.loads(out)
    code, out, _ = run_cli(capsys, "dualize", fx("paper5.json"))
    assert code == 0 and "half_gram" not in json.loads(out)


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["dualize", fx("paper5.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "dualform.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    for _ in range(2):
        assert run_cli(capsys, *argv) == (0, proc.stdout, "")


@pytest.mark.parametrize("argv", [
    ["dualize", "--half-gram"],
    ["dualize", "--half-gram", "--field", "rational"],
    ["normalize", "--half-gram"],
    ["radical"],
], ids=["dualize-half-gram", "half-gram-override", "normalize-half-gram",
        "radical"])
def test_input_document_is_loaded_once(capsys, monkeypatch, argv):
    """The --half-gram characteristic probe and the problem parser share
    one loaded document, and the field the probe builds from it: a field
    given by --field is built from no document."""
    loads, built = [], []
    load, field_from_doc = cli._load_json, cli._field_from_doc

    def counting(text):
        loads.append(len(text))
        return load(text)

    def building(doc):
        built.append(doc)
        return field_from_doc(doc)

    monkeypatch.setattr(cli, "_load_json", counting)
    monkeypatch.setattr(cli, "_field_from_doc", building)
    code, _, err = run_cli(capsys, argv[0], fx("paper5.json"), *argv[1:])
    assert (code, err) == (0, "")
    assert len(loads) == 1
    assert len(built) == (0 if "--field" in argv else 1)


def test_half_gram_override_is_checked_before_the_input(capsys, tmp_path):
    """A characteristic-2 override rejects --half-gram before the input
    is read as JSON, as the probe always has."""
    path = tmp_path / "input.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "dualize", str(path), "--half-gram",
                           "--field", "2")
    assert code == 1
    assert "--half-gram requires characteristic != 2" in err
    code, _, err = run_cli(capsys, "dualize", str(path), "--half-gram")
    assert code == 1
    assert "invalid JSON" in err


# The eliminations (rref and _echelon calls, shape rows x cols) that each
# CLI command runs on a fixture.  A change that adds one must edit this
# table and say why in CHANGES.md.
ELIMINATIONS = {
    ("radical", "paper5.json"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5)],
    ("check-condition", "rad2_gf2.json"):
        [("rref", 2, 3), ("_echelon", 2, 2), ("_echelon", 2, 3)],
    ("dualize", "paper5.json"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5),
         ("_echelon", 2, 5), ("rref", 2, 2), ("_echelon", 1, 5)],
    ("double-dual", "paper5.json"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5),
         ("_echelon", 2, 5), ("rref", 2, 2), ("_echelon", 1, 5),
         ("rref", 2, 2), ("_echelon", 2, 5)],
    ("linked", "paper5.json", "--form", "0,1,0,0,0"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5),
         ("rref", 3, 3)],
    ("linked-forms", "paper5.json", "--vector", "0,1,0,0,0"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5),
         ("_echelon", 2, 5)],
    ("normalize", "paper5.json"):
        [("rref", 3, 5), ("_echelon", 3, 3), ("_echelon", 1, 5),
         ("_echelon", 1, 3)],
    ("normalize", "hyp_gf2.json"):
        [("rref", 2, 2), ("_echelon", 2, 2), ("_echelon", 0, 2)],
    ("similarity", "paper5.json", "--map", "reflection_map.json"):
        [("rref", 3, 5), ("_echelon", 5, 5), ("_echelon", 3, 3),
         ("_echelon", 1, 5), ("_echelon", 2, 5), ("rref", 2, 2),
         ("_echelon", 1, 5)],
    ("adjugate", "adjugate_sym.json"): [("_echelon", 2, 2)],
}


def test_each_command_runs_its_pinned_eliminations(capsys, monkeypatch):
    """Every CLI command, run on a fixture, makes exactly the eliminations
    of ELIMINATIONS, in order; normalize twice, as over GF(2) it takes
    the characteristic-2 route."""
    assert {key[0] for key in ELIMINATIONS} == set(cli._COMMANDS) | \
        {"adjugate"}
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    for (command, name, *flags), shapes in ELIMINATIONS.items():
        flags = [fx(f) if f.endswith(".json") else f for f in flags]
        del calls[:]
        code, out, err = run_cli(capsys, command, fx(name), *flags)
        assert (code, err) == (0, "") and out
        assert calls == shapes, (command, name)
