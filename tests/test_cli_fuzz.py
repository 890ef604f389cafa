"""Fuzz test of the CLI: arbitrary JSON documents, as the problem file and
as the --map file, through each of the nine commands with and without
their optional flags.  Every run exits 0, 1 or 2, and anything it writes
to stderr is a single ``error:`` line, never a traceback.

Documents nest lists and dicts of str, int, bool and null values to a
bounded depth, with keys and strings mostly from the problem format's own
words and scalars.  A third of them are problems whose parts are each
well shaped, arbitrary or left out, so that runs pass every check in turn
and some reach the algebra and succeed.  Lists hold at most 6 items and
ints are small, so no example starts a long computation."""

import contextlib
import io
import json

import pytest

from dualform.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY  # noqa: E402

COMMANDS = ["radical", "check-condition", "dualize", "double-dual", "linked",
            "linked-forms", "normalize", "similarity", "adjugate"]
WORDS = ["field", "kind", "p", "n", "S", "Q", "diag", "upper", "M", "P",
         "rational", "prime"]
SCALARS = ["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "x", "", " 1", "1.5",
           "2147483647"]

strings = st.one_of(st.sampled_from(WORDS + SCALARS), st.text(max_size=4))
leaves = st.one_of(strings, st.integers(-3, 9), st.booleans(), st.none())
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(strings, inner, max_size=6)),
    max_leaves=20)
scalars = st.one_of(st.sampled_from(["0", "1", "-1", "2", "1/2"]),
                    st.integers(-3, 9))


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n)


@st.composite
def parts(draw, shaped):
    """Each part well shaped three times in four, else an arbitrary value
    or left out."""
    doc = {}
    for key, valid in shaped.items():
        how = draw(st.sampled_from(["valid"] * 6 + ["arbitrary", "missing"]))
        if how != "missing":
            doc[key] = draw(valid if how == "valid" else values)
    return doc


@st.composite
def problems(draw):
    """A problem, an adjugate input M and a map P (S may be dependent and
    Q may fail the radical condition), some parts of it arbitrary or
    left out."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, n))
    k = draw(st.integers(0, 4))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    upper = st.lists(st.tuples(st.sampled_from(pairs), scalars),
                     max_size=len(pairs)).map(
        lambda es: [[i, j, v] for (i, j), v in es]) if pairs else st.just([])
    return draw(parts({
        "field": st.sampled_from(["rational", {"kind": "prime", "p": 2},
                                  {"kind": "prime", "p": 3}]),
        "n": st.just(n),
        "S": st.lists(vectors(n), min_size=m, max_size=m),
        "Q": parts({"diag": vectors(m), "upper": upper}),
        "M": st.lists(vectors(k), min_size=k, max_size=k),
        "P": st.lists(vectors(n), min_size=n, max_size=n)}))


documents = st.one_of(values, st.dictionaries(st.sampled_from(WORDS), values,
                                              max_size=6), problems())
flag_texts = st.one_of(strings, st.lists(st.one_of(
    st.sampled_from(SCALARS), st.text(max_size=3)), max_size=6).map(",".join))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", COMMANDS)
@PROPERTY
@hypothesis.given(data=st.data())
def test_any_document_gives_an_exit_code_and_at_most_an_error_line(
        workdir, command, data):
    problem, map_file, output = (workdir / "problem.json",
                                 workdir / "map.json", workdir / "out.json")
    doc = data.draw(documents)
    problem.write_text(json.dumps(doc), encoding="utf-8")
    # the problem's own P, or another document
    map_doc = data.draw(st.one_of(st.just(doc), documents))
    map_file.write_text(json.dumps(map_doc), encoding="utf-8")
    argv = [command, str(problem)]
    required = {"linked": "--form", "linked-forms": "--vector"}
    if command in required:
        n = doc.get("n") if isinstance(doc, dict) else None
        fitting = vectors(n if n in range(5) else 0).map(
            lambda v: ",".join(map(str, v)))
        argv.append(f"{required[command]}="
                    f"{data.draw(st.one_of(fitting, flag_texts))}")
    if command == "similarity":
        argv.append(f"--map={map_file}")
        if data.draw(st.booleans()):
            argv.append(f"--ratio={data.draw(flag_texts)}")
    if command in ("dualize", "normalize") and data.draw(st.booleans()):
        argv.append("--half-gram")
    if data.draw(st.booleans()):
        argv.append("--field=" + data.draw(st.one_of(
            st.sampled_from(["rational", "2", "3", "4", "-5", "x"]),
            st.text(max_size=4))))
    if data.draw(st.booleans()):
        argv.append(f"--output={output}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if err:
        assert err.startswith("error:") and err.count("\n") == 1, err
        err.encode("utf-8")
    assert (code == 0) == (not err), (code, err)
    if code == 0 and "--output=" + str(output) not in argv:
        json.loads(out.getvalue())
