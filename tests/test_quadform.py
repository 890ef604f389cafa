import random
from fractions import Fraction

import pytest

from dualform import (LengthMismatch, Matrix, MetricSpace, NotInSubspace,
                      QuadraticForm, Singular, Subspace, ValidationError,
                      invert_matrix, linalg, rank, solve)
from helpers import (ALL_FIELDS, F2, F3, FQ, hyperbolic_gf2, paper5,
                     rad_char2, random_instance, random_scalar, random_vector,
                     record_calls, record_parses)


class TestInit:
    def test_index_out_of_range(self):
        with pytest.raises(LengthMismatch):
            QuadraticForm(FQ, [1, 2], {(0, 2): 3})

    def test_float_index(self):
        with pytest.raises(LengthMismatch):
            QuadraticForm(FQ, [1, 2], {(0.5, 1): 3})

    def test_bool_index(self):
        with pytest.raises(LengthMismatch):
            QuadraticForm(FQ, [1, 2], {(False, True): 3})

    @pytest.mark.parametrize("key", [0, (0,), (0, 1, 2), "01", (0, "1"),
                                     frozenset({0, 1})], ids=repr)
    def test_a_key_that_is_not_an_index_pair(self, key):
        with pytest.raises(LengthMismatch):
            QuadraticForm(FQ, [1, 2], {key: 3})

    @pytest.mark.parametrize("F", [FQ, F2], ids=repr)
    def test_more_vectors_than_n_are_refused_without_elimination(
            self, monkeypatch, F):
        """Four vectors in F^3 are dependent by their count alone:
        MetricSpace and Subspace refuse them before any echelon."""
        calls = record_calls(monkeypatch, linalg._echelon)
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        with pytest.raises(LengthMismatch,
                           match="^s_basis is linearly dependent$"):
            MetricSpace(F, 3, rows, QuadraticForm(F, [1] * 4, {}))
        with pytest.raises(ValidationError):
            Subspace(F, 3, Matrix(F, rows))
        assert calls == []

    @pytest.mark.parametrize("upper", [[((0, 1), 3)], [(0, 1, 3)], 5, "01"],
                             ids=repr)
    def test_upper_that_is_not_a_mapping(self, upper):
        with pytest.raises(ValidationError):
            QuadraticForm(FQ, [1, 2], upper)

    def test_no_subspace_keyword(self):
        """S is always spanned from s_basis: no caller can hand in a
        subspace, right or wrong, unchecked."""
        other = Subspace.from_rows(FQ, 3, [[0, 1, 0], [0, 0, 1]])
        with pytest.raises(TypeError):
            MetricSpace(FQ, 3, [[1, 0, 0], [0, 1, 0]],
                        QuadraticForm(FQ, [1, 1]), subspace=other)


class TestEvalQ:
    def test_paper_basis_vector(self):
        assert paper5().eval_q((0, 1, 0)) == Fraction(1, 2)

    def test_zero_vector(self):
        assert paper5().eval_q((0, 0, 0)) == 0

    def test_paper_sum(self):
        assert paper5().eval_q((0, 1, 1)) == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paper5().eval_q((1, 2))

    def test_homogeneity_random(self):
        rng = random.Random(31)
        for _ in range(60):
            inst = random_instance(rng)
            F = inst.field
            c = random_scalar(rng, F)
            x = random_vector(rng, F, inst.m)
            lhs = inst.eval_q([F.mul(c, F.scalar(v)) for v in x])
            rhs = F.mul(F.mul(c, c), inst.eval_q(x))
            assert lhs == rhs


class TestPolarGram:
    def test_paper(self):
        assert paper5().polar_gram() == \
            Matrix(FQ, [[0, 0, 0], [0, 1, 2], [0, 2, 3]])

    def test_char2_zero_form(self):
        assert rad_char2(F2).polar_gram().is_zero()

    def test_double_diag(self):
        inst = MetricSpace(FQ, 2, [[1, 0], [0, 1]],
                           QuadraticForm(FQ, [1, 0], {}))
        assert inst.polar_gram() == Matrix(FQ, [[2, 0], [0, 0]])

    def test_char2_alternating_random(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, F2)
            g = inst.polar_gram()
            assert all(g[i, i] == 0 for i in range(inst.m))
            rad = inst.radical()
            assert (inst.m - rad.dim) % 2 == 0


class TestEvalB:
    def test_paper_entry(self):
        assert paper5().eval_b((0, 1, 0), (0, 0, 1)) == 2

    def test_b_xx_is_2q(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = random_instance(rng)
            F = inst.field
            x = random_vector(rng, F, inst.m)
            two = F.scalar(2)
            assert inst.eval_b(x, x) == F.mul(two, inst.eval_q(x))

    def test_hyperbolic_reads_upper(self):
        assert hyperbolic_gf2().eval_b((1, 0), (0, 1)) == 1

    def test_matches_gram_random(self):
        rng = random.Random(17)
        for _ in range(40):
            inst = random_instance(rng)
            F = inst.field
            x = random_vector(rng, F, inst.m)
            y = random_vector(rng, F, inst.m)
            g = inst.polar_gram()
            via_gram = F.zero
            for i in range(inst.m):
                for j in range(inst.m):
                    via_gram = F.scalar(via_gram + F.mul(
                        F.mul(F.scalar(x[i]), g[i, j]), F.scalar(y[j])))
            assert inst.eval_b(x, y) == via_gram


class TestRadical:
    def test_paper(self):
        rad = paper5().radical()
        assert rad.dim == 1
        assert rad.subspace == Subspace.from_rows(FQ, 5, [[1, 0, 0, 0, 0]])

    def test_rad_char2_gf2(self):
        inst = rad_char2(F2)
        rad = inst.radical()
        assert rad.dim == 2
        assert rad.subspace == inst.subspace

    def test_rad_char2_q(self):
        rad = rad_char2(FQ).radical()
        assert rad.dim == 1
        assert rad.subspace == Subspace.from_rows(FQ, 3, [[1, 0, 0]])

    def test_radical_pairs_to_zero_random(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng)
            F = inst.field
            rad = inst.radical()
            m = inst.m
            for i in range(rad.in_domain.dim):
                r = rad.in_domain.basis.row(i)
                for j in range(m):
                    unit = tuple(F.one if k == j else F.zero
                                 for k in range(m))
                    assert F.is_zero(inst.eval_b(r, unit))


class TestCondition:
    def test_gf2_violated(self):
        assert rad_char2(F2).radical_condition_holds() is False

    def test_rational_always(self):
        rng = random.Random(3)
        for _ in range(20):
            assert random_instance(rng, FQ).radical_condition_holds()

    def test_gf2_zero_form(self):
        inst = MetricSpace(F2, 2, [[1, 0], [0, 1]],
                           QuadraticForm(F2, [0, 0], {}))
        assert inst.radical_condition_holds() is True


class TestChangeOfBasis:
    def test_identity(self):
        inst = paper5()
        out = inst.change_of_basis(Matrix.identity(FQ, 3))
        assert out.form == inst.form
        assert out.s_basis == inst.s_basis

    def test_paper_swap(self):
        inst = paper5()
        T = Matrix(FQ, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        out = inst.change_of_basis(T)
        assert out.form.diag == (0, Fraction(3, 2), Fraction(1, 2))
        assert out.form.upper == {(1, 2): 2}

    def test_gf2_shear(self):
        inst = hyperbolic_gf2()
        out = inst.change_of_basis(Matrix(F2, [[1, 1], [0, 1]]))
        assert out.form.diag == (0, 1)
        assert out.form.upper == {(0, 1): 1}

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            paper5().change_of_basis(Matrix(FQ, [[1, 1, 0], [1, 1, 0],
                                                 [0, 0, 1]]))

    def test_functional_invariance_random(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = random_instance(rng)
            if inst.m == 0:
                continue
            F = inst.field
            while True:
                T = Matrix(F, [list(random_vector(rng, F, inst.m))
                               for _ in range(inst.m)])
                try:
                    from dualform import invert_matrix
                    invert_matrix(T)
                    break
                except Singular:
                    continue
            out = inst.change_of_basis(T)
            x = random_vector(rng, F, inst.m)
            assert out.eval_q(x) == inst.eval_q(T.mul_vec(x))


def test_empty_form_is_legal():
    for F in ALL_FIELDS:
        inst = MetricSpace(F, 3, [], QuadraticForm(F, [], {}))
        assert inst.m == 0
        assert inst.radical().dim == 0
        assert inst.radical_condition_holds()


def _random_invertible(rng, F, m):
    while True:
        T = Matrix(F, [list(random_vector(rng, F, m)) for _ in range(m)],
                   cols=m)
        if rank(T) == m:
            return T


@pytest.mark.parametrize("F", [FQ, F2, F3], ids=repr)
def test_change_of_basis_matches_pairwise_polar_table(F):
    rng = random.Random(F.characteristic() + 97)
    empty = MetricSpace(F, 3, [], QuadraticForm(F, [], {}))
    for inst in [empty] + [random_instance(rng, F) for _ in range(40)]:
        m = inst.m
        T = _random_invertible(rng, F, m)
        out = inst.change_of_basis(T)
        cols = [T.column(j) for j in range(m)]
        assert out.form.diag == tuple(inst.eval_q(c) for c in cols)
        for i in range(m):
            for j in range(i + 1, m):
                assert out.form.upper.get((i, j), F.zero) == \
                    inst.eval_b(cols[i], cols[j])
        assert list(out.s_basis) == [inst.from_coords(c) for c in cols]


def test_eval_b_parses_each_text_coordinate_once(monkeypatch):
    """eval_b reads x and y into one Matrix, which checks both widths and
    parses each text coordinate once, and evaluates Q on those canonical
    rows; a wrong-width x or y is refused."""
    inst = paper5()
    parsed = record_parses(monkeypatch, inst.field)
    assert inst.eval_b(("0", "1", "0"), ("0", "0", "1/2")) == 1
    assert sorted(parsed) == ["0", "0", "0", "0", "1", "1/2"]
    for x, y in (((0, 1), (0, 0, 1)), ((0, 1, 0), (0, 1)),
                 ((0, 1, 0), (0, 0, 1, 0))):
        with pytest.raises(LengthMismatch):
            inst.eval_b(x, y)


@pytest.mark.parametrize("make, radical", [(paper5, 2),
                                           (hyperbolic_gf2, 1)],
                         ids=["paper5", "hyperbolic-gf2"])
def test_a_change_of_basis_computes_its_facts_once(monkeypatch, make,
                                                   radical):
    """A change_of_basis result is given neither its radical nor its span
    transform: the first radical() runs the kernel of the polar Gram
    matrix and, for a nonzero radical, the echelon of its ambient rows;
    the first coordinate question runs one rref of the basis.  Asked
    again, each returns the same object and eliminates nothing."""
    inst = make()
    F, m = inst.field, inst.m
    T = Matrix(F, [[int(i <= j) for j in range(m)] for i in range(m)])
    changed = inst.change_of_basis(T)
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    rad = changed.radical()
    assert len(calls) == radical, calls
    assert changed.radical() is rad and len(calls) == radical
    span_t = changed._transform()
    assert calls[radical:] == [("rref", m, inst.n)]
    assert changed._transform() is span_t and len(calls) == radical + 1
    assert changed.coords_of(inst.s_basis[0]) == \
        invert_matrix(T).column(0)


@pytest.mark.parametrize("F", [FQ, F2, F3], ids=repr)
def test_cached_coords_of_matches_solve(F):
    """The public constructor keeps the span transform of its rref; a
    change_of_basis result computes it on its first coordinate question
    and keeps it.  On both, coordinates match solve and a set with a
    vector outside S is rejected."""
    rng = random.Random(F.characteristic() + 101)
    empty = MetricSpace(F, 3, [], QuadraticForm(F, [], {}))
    outside_seen = 0
    for inst in [empty] + [random_instance(rng, F) for _ in range(40)]:
        changed = inst.change_of_basis(_random_invertible(rng, F, inst.m))
        assert inst._span_t is not None and changed._span_t is None
        for ms in (inst, changed):
            cols = Matrix(F, ms.s_basis, cols=ms.n).transpose()
            inside = ms.from_coords(random_vector(rng, F, ms.m))
            for vec in (inside, random_vector(rng, F, ms.n)):
                sol = solve(cols, vec)
                if sol is None:
                    outside_seen += 1
                    with pytest.raises(NotInSubspace):
                        ms.coords_of(vec)
                    with pytest.raises(NotInSubspace):
                        ms.coords_matrix([inside, vec])
                else:
                    assert ms.coords_of(vec) == sol[0]
            span_t = ms._span_t
            C = ms.coords_matrix([inside] + list(ms.s_basis))
            assert C.column(0) == ms.coords_of(inside)
            assert C.submatrix(range(ms.m), range(1, ms.m + 1)) == \
                Matrix.identity(F, ms.m)
            assert ms.coords_matrix([]).cols == 0
            assert ms._span_t is span_t
    assert outside_seen > 20
