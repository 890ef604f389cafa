import random
from fractions import Fraction

import pytest

from dualform import (Matrix, NotNested, Singular, Subspace, adjugate,
                      annihilator, det, extend_basis, invert_matrix, kernel,
                      make_field, rank, rref, solve)
from dualform.linalg import _complete_basis, complete_to_ambient
from helpers import FQ, F2, F3, random_subspace_basis, random_vector


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
        assert kernel(Matrix.zeros(F2, 2, 2)) == Subspace.full(F2, 2)


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
        assert hom == Subspace.full(FQ, 2)

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
        assert annihilator(Subspace.zero(FQ, 4)) == Subspace.full(FQ, 4)

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
            assert annihilator(T2).is_subspace_of(annihilator(T1))
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
        inner = Subspace.zero(FQ, 2)
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
            assert all(outer.contains(v) for v in out)


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
    rng = random.Random(F.characteristic() + 71)
    for trial in range(40):
        n = rng.randint(1, 6)
        m = 0 if trial == 0 else rng.randint(0, n)
        prefix = random_subspace_basis(rng, F, n, m)
        assert complete_to_ambient(F, prefix, n) == \
            _greedy_completion(F, prefix, Matrix.identity(F, n).data)
        # Candidates with repeats, zero rows and combinations of the prefix.
        pool = prefix + [random_vector(rng, F, n) for _ in range(2)]
        cands = [rng.choice(pool) if pool and rng.random() < 0.5
                 else random_vector(rng, F, n) for _ in range(n + 2)]
        cands.append((F.zero,) * n)
        outer = Subspace.from_rows(F, n, prefix + cands)
        inner = Subspace.from_rows(F, n, prefix)
        assert extend_basis(inner, outer) == _greedy_completion(
            F, inner.basis.data, outer.basis.data)
        assert _complete_basis(F, prefix, cands) == \
            _greedy_completion(F, prefix, cands)


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
