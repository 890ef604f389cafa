"""Property tests of the CLI's wire format: the row reader reads what the
scalar reader reads, and the document writer prints what
``json.dumps(doc, indent=2)`` prints.

A row of wire scalars is read by one match of the row grammar when it
can be, and otherwise scalar by scalar (see ``dualform.cli``).  Either
way the row must come back as ``_parse_scalar`` reads each entry, value
and type, or raise that reader's first error with its message.  The rows
mix valid text in surrounding Unicode whitespace, text just outside the
grammar, entries that hold the row grammar's comma, JSON values that are
not text, and entries around the MAX_DIGITS limit."""

import json
import os

import pytest

from dualform import ValidationError, cli, make_field
from dualform.cli import MAX_DIGITS, main
from helpers import F3, FQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIELDS = (FQ, F3, make_field("prime", 2**31 - 1))
SPACES = st.sampled_from(["", " ", "\t", "\n ", "\u00a0", "\u2003", "\x1c"])
ODD = ["+1", "1_0", "\uff11\uff12", "\u0663", "3/0", "0/0", "-0/00", "1/2",
       "1/-2", "--1", "-", "", " ", "\u2003", "1 2", "1e3", "1.5", "0x1",
       "1,2", ",", "3,", ",3", " 4 , 5 "]
LONG = ["7" * (MAX_DIGITS - 1), "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1),
        "-" + "7" * MAX_DIGITS, " " + "7" * MAX_DIGITS + "\x1c",
        "\u00a0" * 2 + "7" * (MAX_DIGITS + 1),
        "1/" + "3" * (MAX_DIGITS - 1), "1/" + "3" * MAX_DIGITS,
        10 ** MAX_DIGITS - 1, 10 ** MAX_DIGITS, -10 ** MAX_DIGITS]


@st.composite
def valid_text(draw):
    """A scalar of either grammar, a rational over GF(p) among them,
    between drawn whitespace."""
    text = str(draw(st.integers(-10**6, 10**6)))
    if draw(st.integers(0, 3)) == 0:
        text += "/" + str(draw(st.integers(1, 99)))
    return draw(SPACES) + text + draw(SPACES)


odd_entries = st.one_of(
    st.sampled_from(ODD), st.sampled_from(LONG),
    st.integers(-10**6, 10**6), st.booleans(), st.none(),
    st.floats(allow_nan=False))


@st.composite
def rows(draw):
    """Up to 8 entries of valid text, with 0, 1 or 2 odd entries put in."""
    row = draw(st.lists(valid_text(), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        row.insert(draw(st.integers(0, len(row))), draw(odd_entries))
    return row


def read(reader, F, row):
    """("ok", [(type, value), ...]) of a row, or ("error", message)."""
    try:
        return "ok", [(type(x), x) for x in reader(F, row)]
    except ValidationError as exc:
        return "error", str(exc)


def per_scalar(F, row):
    return [cli._parse_scalar(F, x, "R") for x in row]


def by_row(F, row):
    return cli._parse_row(F, row, "R")


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@hypothesis.settings(PROPERTY, max_examples=300)
@hypothesis.given(row=rows())
def test_the_row_reader_reads_what_the_scalar_reader_reads(F, row):
    assert read(by_row, F, row) == read(per_scalar, F, row)


@pytest.mark.parametrize("odd", ODD + LONG + [3, -1, True, None, 1.5, 1e300],
                         ids=lambda odd: repr(odd)[:12])
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_each_odd_entry_among_valid_ones(F, odd):
    for row in ([odd], ["1", odd], [odd, " -2 ", "\u00a03"]):
        assert read(by_row, F, row) == read(per_scalar, F, row)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_a_clean_row_takes_the_row_grammar(F):
    """Text in the grammar, in any whitespace, is read by one match; a
    row that needs the scalar reader is not."""
    row = ["1", " -2 ", "\x1c4\u2003", "\u00a0" + "9" * (MAX_DIGITS - 1)]
    assert cli._read_row(F, row) == per_scalar(F, row)
    if not F.characteristic():
        assert cli._read_row(F, ["1/2", "-3/6"]) == per_scalar(
            F, ["1/2", "-3/6"])
    for bad in (["1", 2], ["1,2"], ["1/0"], ["1", "7" * (MAX_DIGITS + 1)],
                [" 1", "+1"], []):
        assert cli._read_row(F, bad) is None


scalar_text = st.one_of(st.text(), st.sampled_from(
    ["", "\x00\x1f\"\\/\b\f\n\r\t", "\u00e9\u20ac\U0001f600", "\ud800",
     "\u2028\u2029", "-3/2"]))
documents = st.recursive(
    st.one_of(scalar_text, st.booleans(), st.integers()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(scalar_text, inner, max_size=5)),
    max_leaves=40)


@hypothesis.settings(PROPERTY, max_examples=300)
@hypothesis.given(doc=st.one_of(documents, st.sampled_from(
    [[], {}, [[]], {"": {}}, [[], {}, [[[]]]], {"a": [{}], "b": []}])))
def test_the_writer_prints_what_json_dumps_prints(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def _fixture_runs(tmp_path):
    """argv of every command, with its optional flags, on every fixture."""
    map_path = tmp_path / "identity_map.json"
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as fh:
            try:
                n = json.load(fh).get("n", 0)
            except (ValueError, AttributeError):
                n = 0
        n = n if isinstance(n, int) else 0
        map_path.write_text(json.dumps(
            {"P": [[str(int(i == j)) for j in range(n)] for i in range(n)]}))
        zeros = ",".join(["0"] * n)
        for argv in (["radical"], ["check-condition"], ["dualize"],
                     ["dualize", "--half-gram"], ["double-dual"],
                     ["linked", f"--form={zeros}"],
                     ["linked-forms", f"--vector={zeros}"], ["normalize"],
                     ["normalize", "--half-gram"],
                     ["similarity", "--map", str(map_path)],
                     ["similarity", "--map", os.path.join(
                         FIXTURES, "reflection_map.json"), "--ratio", "2"],
                     ["adjugate"]):
            yield [argv[0], path, *argv[1:]]


def test_the_writer_prints_every_fixture_document_as_json_dumps(
        capsys, monkeypatch, tmp_path):
    """Every document a command prints for a fixture file, in each of its
    flag settings, is the one json.dumps prints."""
    written, dumps = [], cli._dumps

    def checked(doc, *indent):
        text = dumps(doc, *indent)
        if not indent:  # the whole document, not a nested value
            assert text == json.dumps(doc, indent=2)
            written.append(doc)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)
    for argv in _fixture_runs(tmp_path):
        code = main(argv)
        out = capsys.readouterr().out
        assert (code == 0) == bool(out)
        if code == 0:
            assert out == json.dumps(written[-1], indent=2) + "\n"
    # the first key of each command's document: all nine were printed
    assert {next(iter(doc)) for doc in written} == {
        "dimension", "condition", "S_hat", "double_dual_equals_original",
        "representative", "kind", "preserves_S", "det"}
