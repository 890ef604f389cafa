"""Property tests of the cleared int rows behind rational matrices: a
matrix held only as cleared rows and the same matrix built from Fractions
give identical results under every operation (product chains, transpose,
submatrix, rref, kernel, det, adjugate, equality and hash), products
match plain Fraction arithmetic, entries built on read are reduced
Fractions, and every cleared result is in canonical form.  Entries are
small (the shared strategy) or wide (helpers.wide_rational_matrix, from
a drawn seed)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dualform import Matrix, adjugate, det, kernel, rref
from dualform.linalg import _int_rows
from helpers import FQ, wide_rational_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY, matrices  # noqa: E402

SIZES = st.integers(0, 5)


@st.composite
def rational_matrices(draw, rows, cols):
    if draw(st.booleans()):
        return draw(matrices(FQ, rows, cols))
    seed = draw(st.integers(0, 2**32))
    return wide_rational_matrix(random.Random(seed), rows, cols)


def has_fraction_rows(M):
    """Whether M's data slot is filled, read without filling it."""
    try:
        Matrix.data.__get__(M)
    except AttributeError:
        return False
    return True


def both_forms(M):
    """Fresh copies of M: built from its Fractions, and held only as its
    cleared int rows, with no Fraction rows until one is read."""
    cleared = Matrix._cleared(FQ, *_int_rows(M), M.cols)
    assert not has_fraction_rows(cleared)
    return Matrix(FQ, M.data, cols=M.cols), cleared


def entries(M):
    """M's rows, checked: reduced Fractions, and the cleared rows, where
    M holds them, equal to the canonical clearing of those entries."""
    for row in M.data:
        assert all(type(x) is Fraction and x.denominator > 0
                   and gcd(x.numerator, x.denominator) == 1 for x in row)
    if M._q is not None:
        assert M._q == _int_rows(M)
    return M.data


def fraction_product(A, B):
    cols = list(zip(*B.data)) if B.data else [()] * B.cols
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
                       for col in cols) for row in A.data)


@PROPERTY
@hypothesis.given(data=st.data())
def test_product_chains_agree_with_fraction_arithmetic(data):
    r, k, l, c = (data.draw(SIZES) for _ in range(4))
    A = data.draw(rational_matrices(r, k))
    B = data.draw(rational_matrices(k, l))
    C = data.draw(rational_matrices(l, c))
    want = fraction_product(A, B)
    want_abc = fraction_product(Matrix(FQ, want, cols=l), C)
    for a, b, x in zip(both_forms(A), both_forms(B)[::-1], both_forms(C)):
        AB = a.mul(b)
        assert entries(AB) == want
        assert entries(AB.mul(x)) == want_abc
        assert entries(a.mul(b.mul(x))) == want_abc


@PROPERTY
@hypothesis.given(data=st.data())
def test_transpose_and_submatrix_do_not_depend_on_the_form(data):
    rows, cols = data.draw(SIZES), data.draw(SIZES)
    M = data.draw(rational_matrices(rows, cols))
    row_idx = data.draw(st.lists(st.integers(0, rows - 1), max_size=6)) \
        if rows else []
    col_idx = data.draw(st.one_of(
        st.lists(st.integers(0, cols - 1), max_size=6) if cols
        else st.just([]),
        st.builds(range, st.integers(0, cols), st.integers(0, cols))))
    want_t = tuple(zip(*M.data)) if rows else ((),) * cols
    want_s = tuple(tuple(M.data[i][j] for j in col_idx) for i in row_idx)
    for X in both_forms(M):
        assert entries(X.transpose()) == want_t
        assert entries(X.transpose().transpose()) == M.data
        assert entries(X.submatrix(row_idx, col_idx)) == want_s


@PROPERTY
@hypothesis.given(data=st.data())
def test_eliminations_do_not_depend_on_the_form(data):
    rows, cols = data.draw(SIZES), data.draw(SIZES)
    M = data.draw(rational_matrices(rows, cols))
    results = []
    for X in both_forms(M):
        R, T, pivots = rref(X)
        assert T.mul(X) == R
        K = kernel(X)
        assert X.mul(K.basis.transpose()).is_zero()
        results.append((entries(R), entries(T), pivots, entries(K.basis)))
    assert results[0] == results[1]


@PROPERTY
@hypothesis.given(data=st.data())
def test_det_and_adjugate_do_not_depend_on_the_form(data):
    n = data.draw(SIZES)
    M = data.draw(rational_matrices(n, n))
    (f, i), (f2, i2) = both_forms(M), both_forms(M)
    assert det(f) == det(i)
    assert type(det(i)) is Fraction
    assert entries(adjugate(f2)) == entries(adjugate(i2))


@PROPERTY
@hypothesis.given(data=st.data())
def test_equality_and_hash_do_not_depend_on_the_form(data):
    rows, cols = data.draw(SIZES), data.draw(SIZES)
    M = data.draw(rational_matrices(rows, cols))
    f, i = both_forms(M)
    assert f == i and i == f and hash(f) == hash(i)
    # a computed product holds cleared rows only, and equality reads them
    product = Matrix.identity(FQ, rows).mul(f)
    assert product == M
    assert not has_fraction_rows(product)
    assert hash(product) == hash(M)
    other = data.draw(rational_matrices(rows, cols))
    assert (both_forms(other)[1] == f) == (other.data == M.data)
