import json
import os

import pytest

from dualform import ValidationError
from dualform.cli import main, parse_problem
from helpers import FQ

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
        code, _, err = run_cli(capsys, "radical", fx("paper5.json"),
                               "--field", "six")
        assert code == 1
        assert "--field" in err

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
], ids=["p-string", "kind-int", "upper-int", "adjugate-list",
        "half-gram-list", "M-flat", "n-bool"])
def test_malformed_input_is_an_error_line(capsys, tmp_path, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
