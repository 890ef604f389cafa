import random
from array import array
from fractions import Fraction

import pytest

from dualform import (LengthMismatch, LinearMap, Matrix, MetricSpace,
                      NotNested, ParseError, QuadraticForm, Singular,
                      Subspace, ValidationError, adjugate, annihilator,
                      b_linked, det, extend_basis, invert_matrix, kernel,
                      linked_coset, make_field, rank, rref, solve)
from dualform import cli, fields, linalg
from dualform.linalg import (_echelon, _fold, _scaled, _slot, _slots,
                             complete_to_ambient)
from helpers import (FQ, F2, F3, F5, echelon_gfp_reference, matrix_of_rank,
                     mul_gfp_reference, paper5, random_subspace_basis,
                     random_vector, record_calls, wide_rational_matrix,
                     wide_shapes)

GF_WORD = make_field("prime", 2**31 - 1)


def mat(F, rows):
    return Matrix(F, rows)


class TestRref:
    def test_row_swap(self):
        R, T, piv = rref(mat(FQ, [[0, 1], [1, 0]]))
        assert R == Matrix.identity(FQ, 2)
        assert piv == [0, 1]

    def test_rank_one(self):
        R, T, piv = rref(mat(FQ, [[1, 2], [2, 4]]))
        assert R == mat(FQ, [[1, 2], [0, 0]])
        assert piv == [0]

    def test_gf2_equal_rows(self):
        R, _, piv = rref(mat(F2, [[1, 1], [1, 1]]))
        assert R == mat(F2, [[1, 1], [0, 0]])
        assert piv == [0]

    def test_transform_random(self):
        rng = random.Random(3)
        for _ in range(30):
            F = rng.choice([FQ, F2])
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = mat(F, [list(random_vector(rng, F, cols))
                        for _ in range(rows)])
            R, T, piv = rref(M)
            assert T.mul(M) == R
            invert_matrix(T)  # must not raise


class TestKernel:
    def test_paper_gram(self):
        M = mat(FQ, [[0, 0, 0], [0, 1, 2], [0, 2, 3]])
        K = kernel(M)
        assert K.dim == 1
        assert K.basis == mat(FQ, [[1, 0, 0]])

    def test_identity(self):
        assert kernel(Matrix.identity(FQ, 3)).dim == 0

    def test_zero_matrix_gf2(self):
        assert kernel(Matrix.zeros(F2, 2, 2)) == Subspace.from_rows(
            F2, 2, Matrix.identity(F2, 2).data)


class TestInvert:
    def test_paper_block(self):
        M = mat(FQ, [[1, 2], [2, 3]])
        assert invert_matrix(M) == mat(FQ, [[-3, 2], [2, -1]])

    def test_gf2_involution(self):
        M = mat(F2, [[0, 1], [1, 0]])
        assert invert_matrix(M) == M

    def test_singular(self):
        with pytest.raises(Singular):
            invert_matrix(mat(FQ, [[1, 2], [2, 4]]))


class TestAdjugate:
    def test_2x2(self):
        M = mat(FQ, [[1, 2], [2, 3]])
        A = adjugate(M)
        assert A == mat(FQ, [[3, -2], [-2, 1]])
        assert A.mul(M) == Matrix.identity(FQ, 2).scale(det(M))

    def test_identity(self):
        for n in range(4):
            assert adjugate(Matrix.identity(FQ, n)) == \
                Matrix.identity(FQ, n)

    def test_singular(self):
        M = mat(FQ, [[1, 2], [2, 4]])
        A = adjugate(M)
        assert A == mat(FQ, [[4, -2], [-2, 1]])
        assert A.mul(M).is_zero()

    def test_random_law(self):
        rng = random.Random(11)
        for _ in range(40):
            F = rng.choice([FQ, F2])
            n = rng.randint(1, 6)
            M = mat(F, [list(random_vector(rng, F, n)) for _ in range(n)])
            d = det(M)
            prod = adjugate(M).mul(M)
            assert prod == Matrix.identity(F, n).scale(d)
            if not F.is_zero(d):
                assert invert_matrix(M) == adjugate(M).scale(F.inv(d))


class TestSolve:
    def test_paper_rhs(self):
        sol = solve(mat(FQ, [[1, 2], [2, 3]]), (1, 0))
        assert sol is not None
        particular, hom = sol
        assert particular == (Fraction(-3), Fraction(2))
        assert hom.dim == 0

    def test_zero_system(self):
        particular, hom = solve(Matrix.zeros(FQ, 2, 2), (0, 0))
        assert particular == (0, 0)
        assert hom == Subspace.from_rows(FQ, 2, Matrix.identity(FQ, 2).data)

    def test_inconsistent(self):
        assert solve(mat(FQ, [[1, 2], [2, 4]]), (0, 1)) is None

    def test_random(self):
        rng = random.Random(5)
        for _ in range(30):
            F = rng.choice([FQ, F2])
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M = mat(F, [list(random_vector(rng, F, c)) for _ in range(r)])
            b = random_vector(rng, F, r)
            sol = solve(M, b)
            if sol is None:
                continue
            particular, hom = sol
            assert M.mul_vec(particular) == tuple(F.scalar(x) for x in b)
            for i in range(hom.dim):
                assert all(F.is_zero(x)
                           for x in M.mul_vec(hom.basis.row(i)))


class TestAnnihilator:
    def test_coordinate_span(self):
        T = Subspace.from_rows(FQ, 3, [[1, 0, 0]])
        assert annihilator(T) == Subspace.from_rows(FQ, 3,
                                                    [[0, 1, 0], [0, 0, 1]])

    def test_zero_subspace(self):
        assert annihilator(Subspace.from_rows(FQ, 4, [])) == \
            Subspace.from_rows(FQ, 4, Matrix.identity(FQ, 4).data)

    def test_diagonal_gf2(self):
        T = Subspace.from_rows(F2, 2, [[1, 1]])
        assert annihilator(T) == Subspace.from_rows(F2, 2, [[1, 1]])

    def test_involution_and_reversal(self):
        rng = random.Random(9)
        for _ in range(40):
            F = rng.choice([FQ, F2])
            n = rng.randint(1, 6)
            rows1 = random_subspace_basis(rng, F, n, rng.randint(0, n))
            T1 = Subspace.from_rows(F, n, rows1)
            assert annihilator(annihilator(T1)) == T1
            extra = rows1 + [random_vector(rng, F, n)]
            T2 = Subspace.from_rows(F, n, extra)
            assert all(annihilator(T1).coordinates(v) is not None
                       for v in annihilator(T2).basis.data)
            assert T1.dim + annihilator(T1).dim == n


class TestExtendBasis:
    def test_nested_coordinates(self):
        inner = Subspace.from_rows(FQ, 5, [[1, 0, 0, 0, 0]])
        outer = Subspace.from_rows(FQ, 5, [[1, 0, 0, 0, 0],
                                           [0, 1, 0, 0, 0],
                                           [0, 0, 1, 0, 0]])
        out = extend_basis(inner, outer)
        assert out == [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]

    def test_zero_inner(self):
        inner = Subspace.from_rows(FQ, 2, [])
        outer = Subspace.from_rows(FQ, 2, [[1, 1]])
        assert extend_basis(inner, outer) == [(1, 1)]

    def test_not_nested(self):
        inner = Subspace.from_rows(FQ, 2, [[1, 0]])
        outer = Subspace.from_rows(FQ, 2, [[0, 1]])
        with pytest.raises(NotNested):
            extend_basis(inner, outer)

    def test_random(self):
        rng = random.Random(21)
        for _ in range(40):
            F = rng.choice([FQ, F2])
            n = rng.randint(1, 6)
            outer_rows = random_subspace_basis(rng, F, n, rng.randint(0, n))
            outer = Subspace.from_rows(F, n, outer_rows)
            k = rng.randint(0, outer.dim)
            inner = Subspace.from_rows(
                F, n, [outer.basis.row(i) for i in range(k)])
            out = extend_basis(inner, outer)
            assert len(out) == outer.dim
            assert out[:inner.dim] == [inner.basis.row(i)
                                       for i in range(inner.dim)]
            assert rank(Matrix(F, out, cols=n)) == outer.dim
            assert all(outer.coordinates(v) is not None for v in out)


def test_det_bareiss_matches_gf():
    # Same integer matrix evaluated exactly and mod p.
    rng = random.Random(2)
    F7 = make_field("prime", 7)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        dq = det(Matrix(FQ, rows))
        dp = det(Matrix(F7, rows))
        assert dq.denominator == 1
        assert dq.numerator % 7 == dp


@pytest.mark.parametrize("n", [1, 6, 12])
@pytest.mark.parametrize("F", [FQ, F3], ids=repr)
def test_adjugate_eliminates_once(monkeypatch, F, n):
    """adjugate reads R, T and delta = 1/det(T) off one n x n elimination
    with its transform and computes no determinant, at every rank."""
    rng = random.Random(n)
    rrefs = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    dets = record_calls(monkeypatch, linalg.det)
    for r in sorted({n, n - 1, max(n - 2, 0), 0}):
        M = matrix_of_rank(rng, F, n, r)
        del rrefs[:], dets[:]
        adjugate(M)
        assert rrefs == [("_echelon", n, n)], r
        assert dets == [], r


def _greedy_completion(F, prefix, candidates):
    """Reference: keep each candidate that raises the rank, one rank
    computation per candidate."""
    chosen = [tuple(F.scalar(x) for x in row) for row in prefix]
    for cand in candidates:
        trial = chosen + [tuple(F.scalar(x) for x in cand)]
        if rank(Matrix(F, trial)) == len(trial):
            chosen = trial
    return chosen


@pytest.mark.parametrize("F", [FQ, F2, F3], ids=repr)
def test_one_rref_completion_matches_greedy(F):
    """Both completions, one T-free echelon each, keep what greedy
    completion keeps, for prefixes of every dimension from 0 to n."""
    rng = random.Random(F.characteristic() + 71)
    for trial in range(40):
        n = rng.randint(1, 6)
        m = (0, n)[trial] if trial < 2 else rng.randint(0, n)
        prefix = random_subspace_basis(rng, F, n, m)
        completed = complete_to_ambient(Matrix(F, prefix, cols=n))
        assert list(completed.data) == \
            _greedy_completion(F, prefix, Matrix.identity(F, n).data)
        # outer spanned by the prefix and candidates with repeats, zero
        # rows and combinations of the prefix
        pool = prefix + [random_vector(rng, F, n) for _ in range(2)]
        cands = [rng.choice(pool) if pool and rng.random() < 0.5
                 else random_vector(rng, F, n) for _ in range(n + 2)]
        cands.append((F.zero,) * n)
        outer = Subspace.from_rows(F, n, prefix + cands)
        for inner in (Subspace.from_rows(F, n, prefix),
                      Subspace.from_rows(F, n, []), outer):
            assert extend_basis(inner, outer) == _greedy_completion(
                F, inner.basis.data, outer.basis.data)


def _echelon_rows(M, transform):
    """The rows of the echelon loop's result as lists, with its pivots."""
    W, pivots, _ = _echelon(M, transform)
    return [list(row) for row in W.data], pivots


def _assert_delta(M):
    """With its transform the echelon loop returns delta with
    delta det(T) = 1 at every rank, and delta = det(M) at full rank."""
    F = M.field
    W, pivots, delta = _echelon(M, True)
    T = W.submatrix(range(M.rows), range(M.cols, W.cols))
    assert F.mul(delta, det(T)) == F.one
    if len(pivots) == M.rows == M.cols:
        assert delta == det(M)


@pytest.mark.parametrize("F", [FQ, F2, F3, make_field("prime", 2**31 - 1)],
                         ids=repr)
def test_echelon_without_transform_matches_rref(F):
    """Without T the echelon loop returns rref's nonzero rows of R and its
    pivots: on 0-row and 0-column shapes, on wide rational entries and on
    rank-deficient inputs, whose dependent rows reduce to zero (gcd 0 over
    the rationals).  With T its delta is 1/det(T) at every rank."""
    rng = random.Random(F.characteristic() + 137)
    deficient = 0
    for rows, cols in wide_shapes(rng, 60) + [(3, 2), (4, 4)]:
        if F is FQ:
            M = wide_rational_matrix(rng, rows, cols)
        else:
            data = [random_vector(rng, F, cols) for _ in range(rows)]
            M = Matrix(F, data, cols=cols)
        if rows > 1 and rng.random() < 0.5:
            M = Matrix(F, M.data[:-1] + M.data[:1], cols=cols)
        R, _, pivots = rref(M)
        ech, ech_pivots, d = _echelon(M, False)
        assert d == (det(M) if rows == cols else F.zero)
        _assert_delta(M)
        assert ech_pivots == pivots
        assert ech.data == R.data[:len(pivots)]
        assert all(type(x) is type(F.zero) for row in ech.data for x in row)
        deficient += len(pivots) < rows
    assert deficient > 10
    # every row below the first reduces to zero
    M = Matrix(F, [[1, 2, 3], [2, 4, 6], [3, 6, 9], [0, 0, 0]])
    assert _echelon_rows(M, False) == ([list(rref(M)[0].row(0))], [0])


@pytest.mark.parametrize("F", [FQ, F2, F3], ids=repr)
def test_pivot_coordinates_match_solve(F):
    rng = random.Random(F.characteristic() + 83)
    for trial in range(40):
        n = rng.randint(1, 6)
        m = 0 if trial == 0 else rng.randint(0, n)
        T = Subspace.from_rows(F, n, random_subspace_basis(rng, F, n, m))
        inside = T.basis.transpose().mul_vec(random_vector(rng, F, T.dim))
        for vec in (inside, random_vector(rng, F, n)):
            sol = solve(T.basis.transpose(), vec)
            expected = None if sol is None else sol[0]
            assert T.coordinates(vec) == expected
        assert T.coordinates(inside) is not None


def _fraction_rref(M):
    """Reference: Gauss-Jordan on Fractions with rref's pivot rule (first
    nonzero at or below the current row), returning (R, T, pivots) as
    plain rows."""
    n, k = M.rows, M.cols
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M.data)]
    pivots = []
    for c in range(k):
        r = len(pivots)
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(n):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return ([tuple(row[:k]) for row in a], [tuple(row[k:]) for row in a],
            pivots)


def test_rational_rref_matches_fraction_elimination():
    """The integer kernel returns exactly the Fraction elimination's R, T
    (rows below the rank included) and pivots on wide entries."""
    rng = random.Random(113)
    deficient = 0
    for rows, cols in wide_shapes(rng, 60):
        M = wide_rational_matrix(rng, rows, cols)
        R, T, pivots = rref(M)
        R_ref, T_ref, pivots_ref = _fraction_rref(M)
        assert list(R.data) == R_ref
        assert list(T.data) == T_ref
        assert pivots == pivots_ref
        assert all(type(x) is Fraction for row in R.data + T.data
                   for x in row)
        deficient += len(pivots) < rows
    assert deficient > 10


def test_rational_combine_matches_fraction_sum():
    rng = random.Random(127)
    for rows, cols in wide_shapes(rng, 30):
        M = wide_rational_matrix(rng, rows, cols)
        coeffs = wide_rational_matrix(rng, 1, rows).data[0]
        expected = [sum((c * row[j] for c, row in zip(coeffs, M.data)),
                        Fraction(0)) for j in range(cols)]
        assert Matrix(FQ, [coeffs], cols=rows).mul(M).row(0) == \
            tuple(expected)
        # zero coefficients past the first: the leading row only
        lead = min(rows, 1)
        padded = list(coeffs[:lead]) + [0] * (rows - lead)
        assert Matrix(FQ, [padded], cols=rows).mul(M).row(0) == \
            Matrix(FQ, [coeffs[:lead]], cols=lead).mul(
                M.submatrix(range(lead), range(cols))).row(0)


def test_subspace_takes_a_span_basis_as_it_is():
    """Subspace(field, n, basis) accepts the canonical basis of a span
    and gives the span back (tests/test_input_properties.py sends it the
    bases it refuses)."""
    rng = random.Random(12)
    for _ in range(40):
        F = rng.choice([FQ, F2, F3])
        n = rng.randint(0, 6)
        S = Subspace.from_rows(
            F, n, random_subspace_basis(rng, F, n, rng.randint(0, n)))
        T = Subspace(F, n, S.basis)
        assert T == S and T.pivots == S.pivots


def test_membership_does_not_clear_the_basis_again(monkeypatch):
    """coordinates tests membership by one product with the stored
    basis, which the span left as cleared rows: over the rationals it
    clears only the one-row matrix of the vector asked about, never the
    6 x 10 basis again."""
    rng = random.Random(10)
    outer = Subspace.from_rows(FQ, 10, random_subspace_basis(rng, FQ, 10, 6))
    coeffs = Matrix(FQ, [random_vector(rng, FQ, 6) for _ in range(4)])
    inner = Subspace.from_rows(FQ, 10, coeffs.mul(outer.basis).data)
    assert (inner.dim, outer.dim) == (4, 6)
    calls = record_calls(monkeypatch, linalg._int_rows)
    assert all(outer.coordinates(v) is not None for v in inner.basis.data)
    assert not all(inner.coordinates(v) is not None
                   for v in outer.basis.data)
    row = inner.basis.row(1)
    c = outer.coordinates(row)
    assert Matrix(FQ, [c], cols=6).mul(outer.basis).row(0) == row
    assert outer.coordinates(random_vector(rng, FQ, 10)) is None
    assert calls and all(c[1] == 1 for c in calls), calls


@pytest.mark.parametrize("F", [FQ, F2, make_field("prime", 2**31 - 1)],
                         ids=repr)
def test_rref_inverts_once_per_pivot(monkeypatch, F):
    """rref calls Field.inv exactly once per pivot over GF(p), and never
    over the rationals, whose rows are normalised by the sign and size of
    an int; the traced benchmark counts these calls."""
    calls = []

    def counting(raw):
        def wrapper(self, a):
            calls.append(a)
            return raw(self, a)
        return wrapper

    for cls in vars(fields).values():
        if isinstance(cls, type) and issubclass(cls, fields.Field) \
                and "inv" in vars(cls):
            monkeypatch.setattr(cls, "inv", counting(vars(cls)["inv"]))
    rng = random.Random(F.characteristic() + 131)
    for rows, cols in wide_shapes(rng, 40):
        data = [random_vector(rng, F, cols) for _ in range(rows)]
        if rows > 1:
            data[-1] = data[0]
        del calls[:]
        _, _, pivots = rref(Matrix(F, data, cols=cols))
        assert len(calls) == (len(pivots) if F.characteristic() else 0)


def _gfp_matrices(rng, F, count):
    """Random matrices of wide_shapes (0 rows, 0 columns, 1 wide, 1 tall),
    half of them with a repeated row, each beside the matrix of the same
    shape with every entry p - 1, plus square matrices of every rank
    class."""
    top = F.characteristic() - 1
    out = []
    for rows, cols in wide_shapes(rng, count):
        data = [random_vector(rng, F, cols) for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            data[-1] = data[0]
        out.append(Matrix(F, data, cols=cols))
        out.append(Matrix(F, [[top] * cols] * rows, cols=cols))
    return out + [matrix_of_rank(rng, F, n, r)
                  for n, r in [(6, 6), (7, 6), (9, 4), (5, 0)]]


@pytest.mark.parametrize("F", [F2, F3, F5, GF_WORD], ids=repr)
def test_packed_echelon_matches_reference(F):
    """The packed-row loop returns the list elimination's rows and pivots,
    with and without T, and rref, rank and kernel agree with it; with T
    its delta is 1/det(T) at every rank and det(M) at full rank."""
    rng = random.Random(F.characteristic() + 149)
    deficient = 0
    for M in _gfp_matrices(rng, F, 40):
        rows, pivots = echelon_gfp_reference(M, True)
        assert _echelon_rows(M, True) == (rows, pivots)
        assert _echelon_rows(M, False) == echelon_gfp_reference(M, False)
        _assert_delta(M)
        R, T, rref_pivots = rref(M)
        assert R.data == tuple(tuple(row[:M.cols]) for row in rows)
        assert T.data == tuple(tuple(row[M.cols:]) for row in rows)
        assert rref_pivots == pivots
        assert rank(M) == len(pivots)
        assert kernel(M).dim == M.cols - len(pivots)
        deficient += len(pivots) < M.rows
    assert deficient > 40


@pytest.mark.parametrize("F", [F2, F3, F5, GF_WORD], ids=repr)
def test_packed_mul_matches_reference(F):
    """Products, matrix-vector products and combinations equal one dot
    product per entry, for right-hand widths 0, 1 and more."""
    rng = random.Random(F.characteristic() + 151)
    top = F.characteristic() - 1
    for A in _gfp_matrices(rng, F, 30):
        k = A.cols
        for m in (0, 1, rng.randint(2, 7)):
            for B in (Matrix(F, [random_vector(rng, F, m) for _ in range(k)],
                             cols=m),
                      Matrix(F, [[top] * m] * k, cols=m)):
                assert A.mul(B) == mul_gfp_reference(A, B)
        v = random_vector(rng, F, k)
        column = Matrix(F, [[x] for x in v], cols=1)
        assert A.mul_vec(v) == mul_gfp_reference(A, column).column(0)
        coeffs = random_vector(rng, F, A.rows)
        row = Matrix(F, [coeffs], cols=A.rows)
        assert row.mul(A).row(0) == mul_gfp_reference(row, A).row(0)


@pytest.mark.parametrize("p, n, nb", [(2, 6, 1), (3, 63, 1), (5, 15, 1),
                                      (3, 64, 2), (5, 16, 2), (5, 20, 2),
                                      (257, 5, 4), (2**31 - 1, 3, 8),
                                      (2**31 - 1, 6, 16)])
def test_every_slot_width_matches_reference(p, n, nb):
    """Each slot width, 1 to 16 bytes, is chosen for some field and size
    and gives the reference results on random and all p - 1 entries, and
    on rows e_c - e_(n-1) above a last row of ones ending in -1: each of
    the first n - 1 pivots adds (p - 1)^2 to the last slot of that row,
    which then reaches p - 1 + (n - 1) (p - 1)^2, past the next narrower
    width.  GF(3) at n = 63 and GF(5) at n = 15 are the widest 1-byte
    cases, whose last slot reaches 250 and 228, next to their first
    2-byte neighbours.  An n x 1 matrix packs rows of width 1 without T.
    With T delta is 1/det(T) at every rank and det(M) at full rank."""
    F = make_field("prime", p)
    assert _slot(p + n * (p - 1) ** 2)[0] == nb
    assert _slot(n * (p - 1) ** 2 + 1)[0] == nb
    rng = random.Random(p + n)
    last = [[1] * (n - 1) + [p - 1]]
    for M in (Matrix(F, [random_vector(rng, F, n) for _ in range(n)]),
              Matrix(F, [[p - 1] * n] * n),
              Matrix(F, [[int(j == c) - int(j == n - 1) for j in range(n)]
                         for c in range(n - 1)] + last),
              matrix_of_rank(rng, F, n, n - 1)):
        assert _echelon_rows(M, True) == echelon_gfp_reference(M, True)
        _assert_delta(M)
        assert M.mul(M) == mul_gfp_reference(M, M)
    column = Matrix(F, [[p - 1]] + [random_vector(rng, F, 1)
                                    for _ in range(n - 1)], cols=1)
    for transform in (False, True):
        assert _echelon_rows(column, transform) == \
            echelon_gfp_reference(column, transform)
    assert M.mul(column) == mul_gfp_reference(M, column)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_scaled_tables_are_the_residues_times_c(p):
    """Every table that can read a 1-byte slot, c = 1 or a pivot's
    inverse and p the primes whose 1-byte slots hold p + (p - 1)^2, maps
    each byte b to c b mod p, and is built once per (p, c)."""
    assert _slot(p + (p - 1) ** 2)[0] == 1
    for c in range(1, p):
        table = _scaled(p, c)
        assert [bytes([b]).translate(table)[0] for b in range(256)] == \
            [c * b % p for b in range(256)]
        assert _scaled(p, c) is table


def test_widest_one_byte_product_matches_reference():
    """A GF(3) product with k = 63 and every entry 2 fills each 1-byte
    slot to 63 * 4 = 252 before it is reduced."""
    k = 63
    assert _slot(k * 2 ** 2 + 1)[0] == 1
    A, B = Matrix(F3, [[2] * k] * 3), Matrix(F3, [[2] * 5] * k)
    assert A.mul(B) == mul_gfp_reference(A, B)
    assert A.mul(B).data == ((252 % 3,) * 5,) * 3


def test_slot_at_the_cli_limit_holds_the_bound():
    """For n = k = cli.MAX_DIM and p = 2^31 - 1 the chosen slots hold the
    echelon bound p + n (p - 1)^2 and the product bound n (p - 1)^2: the
    widest slot, two 8-byte array items."""
    p, n = 2**31 - 1, cli.MAX_DIM
    for top in (p - 1 + n * (p - 1) ** 2, n * (p - 1) ** 2):
        nb, code = _slot(top + 1)
        assert top < 1 << 8 * nb
        assert (nb, 2 * array(code).itemsize) == (16, 16)


@pytest.mark.parametrize("p", [2**31 - 1, 1073741789],
                         ids=["2^31-1", "below-2^30"])
@pytest.mark.parametrize("k", [cli.MAX_DIM, 2**32 - 1],
                         ids=["MAX_DIM", "2^32-1"])
def test_folded_wide_slots_are_the_slot_values_mod_p(p, k):
    """16-byte slots are read folded, not joined: with every slot at the
    elimination bound p + k (p - 1)^2, the most a slot can hold after k
    row operations, and with random values up to it, the values _slots
    returns are the slot values mod p, up to one reduction, for k up to
    the largest row or column count the fold's 2^94 bound allows, one
    slot among them."""
    top = p + k * (p - 1) ** 2
    assert top < 2**94
    nb, code = _slot(top + 1)
    assert nb == 16
    rng = random.Random(p + k)
    count = rng.randint(2, 9)
    for values in ([top] * count, [top],
                   [rng.randint(0, top) for _ in range(count)],
                   [top, 0, p, p - 1, 2**63, 2**64 - 1, 2**64]):
        x = sum(v << 128 * j for j, v in enumerate(values))
        got = list(_slots(x, len(values), nb, code,
                          _fold(nb, len(values), p)))
        assert [v % p for v in got] == [v % p for v in values]


@pytest.mark.parametrize("F", [FQ, F2], ids=repr)
def test_equality_and_hash_see_the_shape(F):
    """Matrices without rows, or of different shapes with equal rows, are
    different matrices; equal ones still hash alike."""
    for a, b in ((Matrix.zeros(F, 0, 2), Matrix.zeros(F, 0, 3)),
                 (Matrix.identity(F, 0), Matrix.zeros(F, 0, 5))):
        assert a != b and b != a
        assert hash(a) != hash(b)
    a, b = Matrix.zeros(F, 0, 4), Matrix.identity(F, 4).submatrix([], range(4))
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("call", [
    lambda: MetricSpace(FQ, 3, [[1, 0]], QuadraticForm(FQ, [1])),
    lambda: paper5().coords_matrix([(0, 1, 0, 0)]),
    lambda: paper5().coords_of((0, 1, 0, 0, 0, 0)),
    lambda: paper5().from_coords((1, 2)),
    lambda: paper5().eval_b((1, 0), (0, 1)),
    lambda: paper5().eval_q((1, 0)),
    lambda: Subspace.from_rows(F3, 3, [[1, 0], [0, 1]]),
    lambda: Subspace.from_rows(FQ, 3, [[1, 0]]).coordinates((1, 0)),
    lambda: Matrix(F3, [[1, 2], [2, 1]]).mul_vec((1, 2, 0)),
    lambda: b_linked(paper5(), (0, 1, 0, 0), (0, 1, 0, 0, 0)),
    lambda: linked_coset(paper5(), (0, 1, 0, 0, 0, 0)),
    lambda: linked_coset(paper5(), (0, 1, 0, 0, 0)).members([1, 2]),
    lambda: Matrix(FQ, [[1, 2]], cols=3),
    lambda: Matrix(F2, [[1, 2], [1]]),
    lambda: paper5().coords_of(("x", 0)),
    lambda: paper5().from_coords((0.5,)),
    lambda: linked_coset(paper5(), (0, 1, 0, 0, 0)).members(["x", None]),
    lambda: Matrix(FQ, [[1, 2]]).mul(Matrix(F3, [[1], [2]])),
    lambda: det(Matrix(FQ, [[1, 0, 1], [0, 1, 1]])),
    lambda: invert_matrix(Matrix(F2, [[1, 0], [0, 1], [1, 1]])),
    lambda: adjugate(Matrix(FQ, [[1, 0, 1], [0, 1, 1]])),
], ids=["metric-space-basis", "coords-matrix", "coords-of", "from-coords",
        "eval-b", "eval-q", "from-rows", "coordinates", "mul-vec", "b-linked",
        "linked-coset", "members", "matrix-cols", "matrix-ragged",
        "coords-of-bad-text", "from-coords-float", "members-bad-scalars",
        "mul-mixed-fields", "det-non-square", "invert-non-square",
        "adjugate-non-square"])
def test_a_wrong_width_input_is_refused(call):
    """Every vector or coefficient list from outside has its width checked
    where it enters: by the Matrix it is read into, or by the product it
    first feeds.  The width is checked before any entry is coerced, so a
    wrong-width input with bad entries is a LengthMismatch too.  A product
    of matrices over different fields is refused the same way, as
    MetricSpace refuses a form over another field, and so is a non-square
    matrix given to det, invert_matrix or adjugate."""
    with pytest.raises(LengthMismatch):
        call()


def test_public_matrix_entries_coerce_outside_scalars():
    """mul_vec, LinearMap.apply, scale and solve's right-hand side read
    their outside scalars through Field.scalar, as Matrix(...) does: over
    GF(7) 1/2 is 4 and the text "4" is 4, so both give (3, 3), and a
    scaled GF(7) matrix holds residues; a float or text outside the
    grammar is refused, and a wrong width is still a LengthMismatch."""
    F7 = make_field("prime", 7)
    M = Matrix(F7, [[1, 2], [3, 4]])
    for v in ([Fraction(1, 2), 3], ["4", 3], (4, 10)):
        assert M.mul_vec(v) == (3, 3)
        assert LinearMap(M).apply(v) == (3, 3)
    half = M.scale(Fraction(1, 2))
    assert half == Matrix(F7, [[4, 1], [5, 2]])
    assert all(type(x) is int for row in half.data for x in row)
    assert M.scale("2") == Matrix(F7, [[2, 4], [6, 1]])
    assert solve(M, [Fraction(1, 2), "3"])[0] == solve(M, [4, 3])[0]
    Q = Matrix(FQ, [[1, 2], [3, 4]])
    for call, error in [(lambda: Q.mul_vec([1.5, 2]), ValidationError),
                        (lambda: solve(Q, [0.5, 2]), ValidationError),
                        (lambda: Q.scale(0.5), ValidationError),
                        (lambda: M.mul_vec(["x", 1]), ParseError),
                        (lambda: M.scale(None), ValidationError),
                        (lambda: solve(M, ["1/2", 1]), ParseError),
                        (lambda: M.mul_vec([1, 2, 3]), LengthMismatch),
                        (lambda: solve(M, [1]), LengthMismatch)]:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("F", [F2, F3, fields.PrimeField(2**31 - 1)],
                         ids=repr)
def test_gfp_rows_are_read_without_clearing(F):
    """Over GF(p) _ints() is the residue rows data over denominators 1,
    stored nowhere: _q stays None, so a later transpose or submatrix
    still reads data."""
    M = Matrix(F, [[1, 0, 2 % F.p], [0, 1, 1]])
    ints, dens = M._ints()
    assert ints is M.data and dens == [1, 1]
    assert M._q is None
    assert M.transpose() == Matrix(F, [[1, 0], [0, 1], [2 % F.p, 1]])
    assert M._q is None
