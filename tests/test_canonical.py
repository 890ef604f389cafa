"""Canonical-entry invariant of the native-operator kernels: over the
rationals every entry is a ``Fraction``, over GF(p) an ``int`` in [0, p).

The kernels compute with plain operators and the internal ``Matrix``
constructor does not coerce, so an entry left unreduced (or an empty sum
left as ``int`` 0 over the rationals) would survive into results and break
structural equality.  Inputs are raw integers, many negative or >= p, so
the public constructors must coerce them first.
"""

import random
from fractions import Fraction

import pytest

from dualform import (Matrix, MetricSpace, QuadraticForm, Subspace, dualize,
                      make_field, rank, rref)
from helpers import F2, F3, FQ, random_instance_with_condition

FIELDS = [FQ, F2, F3, make_field("prime", 2**31 - 1)]


def assert_canonical(F, values):
    p = F.characteristic()
    for x in values:
        if p:
            assert type(x) is int and 0 <= x < p, x
        else:
            assert type(x) is Fraction, x


def entries(M):
    return [x for row in M.data for x in row]


def raw_rows(rng, rows, cols):
    return [[rng.randint(-2**33, 2**33) if rng.random() < 0.7 else 0
             for _ in range(cols)] for _ in range(rows)]


def raw_instance(rng, F, n, m):
    while True:
        basis = raw_rows(rng, m, n)
        if rank(Matrix(F, basis, cols=n)) == m:
            break
    diag = [rng.randint(-9, 9) for _ in range(m)]
    upper = {(i, j): rng.randint(-9, 9)
             for i in range(m) for j in range(i + 1, m)}
    return MetricSpace(F, n, basis, QuadraticForm(F, diag, upper)), basis


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_matrix_kernels_keep_entries_canonical(F):
    rng = random.Random(53)
    for rows, inner, cols in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0),
                              (4, 4, 4), (3, 5, 2), (5, 2, 6)]:
        A = Matrix(F, raw_rows(rng, rows, inner), cols=inner)
        B = Matrix(F, raw_rows(rng, inner, cols), cols=cols)
        R, T, _ = rref(A)
        for M in (R, T, A.mul(B), A.transpose(),
                  A.submatrix(range(rows // 2), range(inner))):
            assert_canonical(F, entries(M))
        span = Subspace.from_rows(F, cols, raw_rows(rng, rows, cols))
        assert_canonical(F, entries(span.basis))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_form_kernels_keep_entries_canonical(F):
    rng = random.Random(59)
    for n, m in [(1, 0), (3, 1), (5, 3), (6, 6)]:
        inst, basis = raw_instance(rng, F, n, m)
        coeffs = raw_rows(rng, m, m)
        vectors = [[sum(c * b[k] for c, b in zip(row, basis))
                    for k in range(n)] for row in coeffs]
        assert_canonical(F, entries(inst.coords_matrix(vectors)))
        assert_canonical(F, [inst.eval_q(row) for row in coeffs])
        assert_canonical(F, entries(inst.polar_gram()))
        T = Matrix(F, [[rng.randint(-2**33, 2**33) if j > i else int(i == j)
                        for j in range(m)] for i in range(m)], cols=m)
        new = inst.change_of_basis(T)
        assert_canonical(F, [x for row in new.s_basis for x in row])
        assert_canonical(F, list(new.form.diag) +
                         list(new.form.upper.values()))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_dualize_keeps_entries_canonical(F):
    rng = random.Random(61)
    for _ in range(10):
        res = dualize(random_instance_with_condition(rng, F, n_max=7))
        dual = res.dual
        assert_canonical(F, [x for row in dual.s_basis for x in row])
        assert_canonical(F, list(dual.form.diag) +
                         list(dual.form.upper.values()))
        assert_canonical(F, entries(res.g22) + entries(res.g22_hat))
