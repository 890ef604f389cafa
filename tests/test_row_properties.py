"""Property tests of the whole-row readings, over the rationals, GF(2),
GF(3), GF(7) and GF(2^31 - 1): Field._row reads a row as
tuple(map(F.scalar, row)) does, with the same values, or the same error
class and message; QuadraticForm reads its coefficients as the per-item
loop in helpers.quadratic_form_reference does, with one bad key or value
at a random position; and a Subspace's pivots, read by index, are the
first nonzero columns of its rows, for bases from from_rows, kernel and
annihilator."""

import types
from fractions import Fraction

import pytest

from dualform import QuadraticForm, Subspace, annihilator, kernel, make_field
from helpers import quadratic_form_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY, matrices, scalars  # noqa: E402

FIELDS = pytest.mark.parametrize(
    "F", [make_field("rational"), *(make_field("prime", p)
                                    for p in (2, 3, 7, 2**31 - 1))],
    ids=["Q", "GF2", "GF3", "GF7", "GF(2^31-1)"])


def entries(F):
    """Values a caller may pass as scalars, canonical or not, good or
    bad, the ints next to 0 and p among them."""
    p = F.characteristic()
    return st.one_of(
        st.sampled_from([-1, 0, p - 1, p, p + 1]), st.integers(-3, 10),
        st.integers(-2**70, 2**70), st.booleans(),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
        st.sampled_from(["3", " -4 ", "1/2", "2/6", "x", "1/0", "", "1.5",
                         "1" * 5000]),
        st.sampled_from([1.5, float("nan"), None, 2j, b"1"]))


@st.composite
def rows(draw, F):
    """Mostly canonical rows, so that the one-check reading is taken, with
    a drawn entry at a drawn position half the time."""
    row = draw(st.lists(scalars(F), max_size=6))
    if draw(st.booleans()):
        row.insert(draw(st.integers(0, len(row))), draw(entries(F)))
    if draw(st.booleans()):
        row = draw(st.lists(entries(F), max_size=6))
    return tuple(row) if draw(st.booleans()) else row


def outcome(read, *args):
    """read(*args) with the type of every entry, or the error it raises,
    by class and message."""
    try:
        value = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value, [list(map(type, part)) for part in value]


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_row_reads_as_scalar_does(F, data):
    row = data.draw(rows(F))
    assert outcome(lambda r: (F._row(r),), row) == \
        outcome(lambda r: (tuple(map(F.scalar, r)),), row)


@FIELDS
def test_row_reads_the_edges_of_the_one_check_as_scalar_does(F):
    p = F.characteristic()
    for row in ([0, p - 1, p], [-1, 0], [p + 1], [0, True], [False],
                [0, 2**70], [0, Fraction(1, 1)], [Fraction(-1, 2)], [1, "1"]):
        assert outcome(lambda r: (F._row(r),), row) == \
            outcome(lambda r: (tuple(map(F.scalar, r)),), row), row


BAD_KEYS = [(1, 1), (2, 1), (0, 99), (-1, 1), (True, 1), (0, True),
            (0, 1, 2), (0,), (0.0, 1), "01", 5, None, frozenset([0, 1])]


@st.composite
def tables(draw, F):
    """(diag, upper) with canonical values, and half the time one bad key
    or value at a drawn position of upper, which is sometimes a read-only
    mapping rather than a dict."""
    m = draw(st.integers(0, 5))
    diag = draw(st.lists(scalars(F), min_size=m, max_size=m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    items = list(zip(pairs, draw(st.lists(scalars(F), min_size=len(pairs),
                                          max_size=len(pairs)))))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(items)))
        if k < len(items) and draw(st.booleans()):
            items[k] = (items[k][0], draw(entries(F)))
        else:
            bad = BAD_KEYS + [(-1, 0), (0, m), (m - 1, m), (m, m + 1)]
            items.insert(k, (draw(st.sampled_from(bad)), draw(entries(F))))
    upper = dict(items)
    if draw(st.booleans()):
        upper = types.MappingProxyType(upper)
    return diag, upper


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_form_reads_as_the_item_loop_does(F, data):
    diag, upper = data.draw(tables(F))

    def form(diag, upper):
        q = QuadraticForm(F, diag, upper)
        return q.diag, list(q.upper.items())

    def reference(diag, upper):
        diag, upper = quadratic_form_reference(F, diag, upper)
        return diag, list(upper.items())

    assert outcome(form, diag, upper) == outcome(reference, diag, upper)


def first_nonzero(S):
    return [next(j for j, x in enumerate(row) if x) for row in S.basis.data]


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_pivots_are_the_first_nonzero_columns(F, data):
    n = data.draw(st.integers(0, 7))
    M = data.draw(matrices(F, data.draw(st.integers(0, 6)), n))
    spans = [Subspace.from_rows(F, n, M.data), kernel(M)]
    spans += [annihilator(S) for S in spans]
    for S in spans:
        assert S.pivots == first_nonzero(S)
