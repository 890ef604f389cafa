"""Cross-checks of the elimination, null-space and product kernels against
sympy's DomainMatrix over QQ and GF(p), on seeded random matrices that
include singular, rectangular and empty shapes."""

import random
from fractions import Fraction

import pytest

from dualform import (Matrix, Singular, Subspace, adjugate, annihilator,
                      det, invert_matrix, kernel, make_field, rank, rref)
from helpers import matrix_of_rank, wide_rational_matrix, wide_shapes

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

FIELDS = [make_field("rational"), make_field("prime", 2),
          make_field("prime", 3), make_field("prime", 2**31 - 1)]


def to_sympy(M):
    p = M.field.characteristic()
    K = sympy.QQ if p == 0 else sympy.GF(p)
    conv = (lambda x: K(x.numerator, x.denominator)) if p == 0 else K
    return DomainMatrix([[conv(x) for x in row] for row in M.data],
                        (M.rows, M.cols), K)


def scalar_from_sympy(F, x):
    p = F.characteristic()
    if p == 0:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % p


def from_sympy(F, D):
    return Matrix(F, [[scalar_from_sympy(F, x) for x in row]
                      for row in D.to_list()], cols=D.shape[1])


def random_matrix(rng, F, rows, cols):
    """Sparse-ish random entries; with probability 1/2 some rows are
    combinations of earlier rows, so the matrix is rank deficient."""
    p = F.characteristic()

    def entry():
        if rng.random() < 0.3:
            return 0
        if p == 0:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randrange(p)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        for i in rng.sample(range(1, rows), rng.randint(1, rows - 1)):
            a, b = entry(), entry()
            j = rng.randrange(i)
            data[i] = [a * x + b * y for x, y in zip(data[j], data[i - 1])]
    return Matrix(F, data, cols=cols)


def shapes(rng, count):
    fixed = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (3, 6), (6, 3)]
    return fixed + [(rng.randint(0, 7), rng.randint(0, 7))
                    for _ in range(count)]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_and_rank_match_sympy(F):
    rng = random.Random(31 + F.characteristic())
    for rows, cols in shapes(rng, 40):
        M = random_matrix(rng, F, rows, cols)
        R, T, pivots = rref(M)
        R_ref, pivots_ref = to_sympy(M).rref()
        assert R == from_sympy(F, R_ref)
        assert tuple(pivots) == tuple(pivots_ref)
        assert T.mul(M) == R
        assert rank(T) == rows
        assert rank(M) == to_sympy(M).rank()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_kernel_and_annihilator_match_sympy_nullspace(F):
    """kernel(M) and the annihilator of the row space of M have as basis
    the canonical RREF of sympy's null space of M, also with 0 rows, 0
    columns, at full rank and for the zero matrix."""
    rng = random.Random(53 + F.characteristic())
    mats = [random_matrix(rng, F, rows, cols)
            for rows, cols in shapes(rng, 40)]
    mats += [Matrix(F, [], cols=4), Matrix(F, [[]] * 3, cols=0),
             Matrix.identity(F, 5), matrix_of_rank(rng, F, 6, 6),
             Matrix(F, [[1, 2, 3]], cols=3), Matrix.zeros(F, 3, 4)]
    for M in mats:
        N = to_sympy(M).nullspace()
        expected = from_sympy(F, N.rref()[0]) if N.shape[0] else \
            Matrix(F, [], cols=M.cols)
        assert kernel(M).basis == expected
        T = Subspace.from_rows(F, M.cols, M.data)
        assert annihilator(T).basis == expected


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_det_and_inverse_match_sympy(F):
    """Random matrices up to n = 16, matrices of corank 1 and 2, whose
    dependent rows the rational loop rescales as zero rows, and over the
    rationals square matrices of wide entries; the 0 x 0 determinant is
    one."""
    rng = random.Random(37 + F.characteristic())
    singular = 0
    mats = [random_matrix(rng, F, n, n) for n in
            [0, 1, 1, 2, 2, 3] + [rng.randint(2, 16) for _ in range(40)]]
    mats += [matrix_of_rank(rng, F, n, n - c)
             for n in (2, 5, 9, 16) for c in (1, 2)]
    if F.characteristic() == 0:
        mats += [wide_rational_matrix(rng, n, n) for n in (1, 3, 6, 9, 16)]
    assert det(Matrix(F, [])) == F.one
    for M in mats:
        D = to_sympy(M)
        d = det(M)
        assert d == scalar_from_sympy(F, D.det())
        if d:
            assert invert_matrix(M) == from_sympy(F, D.inv())
        else:
            singular += 1
            with pytest.raises(Singular):
                invert_matrix(M)
    assert singular > 0


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_mul_matches_sympy(F):
    rng = random.Random(41 + F.characteristic())
    for rows, inner in shapes(rng, 30):
        cols = rng.randint(0, 6)
        A = random_matrix(rng, F, rows, inner)
        B = random_matrix(rng, F, inner, cols)
        assert A.mul(B) == from_sympy(F, to_sympy(A).matmul(to_sympy(B)))


def test_rational_products_match_sympy_on_wide_entries():
    """Denominator clearing in mul, mul_vec and det against sympy over QQ,
    with numerators up to 2^64, denominators up to 2^40 and inner
    dimension 0."""
    F = FIELDS[0]
    rng = random.Random(43)
    for rows, inner in wide_shapes(rng, 30):
        cols = rng.randint(0, 5)
        A = wide_rational_matrix(rng, rows, inner)
        B = wide_rational_matrix(rng, inner, cols)
        assert A.mul(B) == from_sympy(F, to_sympy(A).matmul(to_sympy(B)))
        v = wide_rational_matrix(rng, inner, 1)
        assert A.mul_vec(v.column(0)) == \
            from_sympy(F, to_sympy(A).matmul(to_sympy(v))).column(0)
        if rows == inner:
            assert det(A) == scalar_from_sympy(F, to_sympy(A).det())


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_adjugate_matches_sympy(F):
    """All three rank cases for n = 0..8: full rank (det * inverse),
    rank n - 1 (the rank-one adjugate c * x * y^t) and ranks below n - 1
    (the zero matrix)."""
    rng = random.Random(47 + F.characteristic())
    for n in range(9):
        for rank_ in range(max(n - 3, 0), n + 1):
            for _ in range(2):
                M = matrix_of_rank(rng, F, n, rank_)
                D = to_sympy(M)
                assert D.rank() == rank_
                assert adjugate(M) == from_sympy(F, D.adjugate())
