import os
import random
import sys
from fractions import Fraction

import pytest

from dualform import (Matrix, MetricSpace, NotInSHat, NotInSubspace,
                      QuadraticForm, RadicalConditionViolated, Subspace,
                      adapted_basis, b_linked, converse_relation_check,
                      double_dual_check, dualize, linked_coset, linked_forms)
from dualform import linalg
from dualform.cli import parse_problem
from dualform.linalg import dot, vec_add, vec_scale
from helpers import (ALL_FIELDS, F2, F3, F5, FQ, hyperbolic_gf2, paper5,
                     rad_char2, random_instance_with_condition, random_scalar,
                     random_vector)


def random_s_hat_vector(rng, dres):
    """Random element of S^ as a combination of its basis rows."""
    F = dres.s_hat.field
    out = (F.zero,) * dres.s_hat.ambient_dim
    for i in range(dres.s_hat.dim):
        out = vec_add(F, out, vec_scale(F, random_scalar(rng, F),
                                        dres.s_hat.basis.row(i)))
    return out


class TestAdaptedBasis:
    def test_paper(self):
        ab = adapted_basis(paper5())
        assert ab.a == Matrix.identity(FQ, 5)
        assert (list(ab.i1), list(ab.i2), list(ab.i3)) == \
            ([0], [1, 2], [3, 4])

    def test_rad_char2_q(self):
        ab = adapted_basis(rad_char2(FQ))
        assert ab.a == Matrix.identity(FQ, 3)
        assert (list(ab.i1), list(ab.i2), list(ab.i3)) == ([0], [1], [2])

    def test_full_nondegenerate(self):
        inst = MetricSpace(FQ, 2, [[1, 0], [0, 1]],
                           QuadraticForm(FQ, [1, 1], {}))
        ab = adapted_basis(inst)
        assert ab.a == Matrix.identity(FQ, 2)
        assert list(ab.i1) == [] and list(ab.i3) == []

    def test_spans_random(self):
        rng = random.Random(61)
        for _ in range(40):
            inst = random_instance_with_condition(rng)
            ab = adapted_basis(inst)
            d = ab.i2.start
            rad = inst.radical()
            cols_r = [ab.column(j) for j in ab.i1]
            assert Subspace.from_rows(inst.field, inst.n, cols_r) == \
                rad.subspace
            cols_s = [ab.column(j) for j in list(ab.i1) + list(ab.i2)]
            assert Subspace.from_rows(inst.field, inst.n, cols_s) == \
                inst.subspace
            assert ab.a.mul(ab.a_inv) == Matrix.identity(inst.field, inst.n)


class TestBLinked:
    def test_rad_char2_q_true(self):
        assert b_linked(rad_char2(FQ), (0, 2, 7), (5, 1, 0)) is True

    def test_rad_char2_q_false(self):
        assert b_linked(rad_char2(FQ), (0, 1, 0), (0, 1, 0)) is False

    def test_zero_pair(self):
        inst = MetricSpace(FQ, 3, [[1, 0, 0]], QuadraticForm(FQ, [0], {}))
        assert b_linked(inst, (0, 0, 0), (0, 0, 0)) is True

    def test_not_in_subspace(self):
        with pytest.raises(NotInSubspace):
            b_linked(paper5(), (0, 0, 0, 0, 0), (0, 0, 0, 1, 0))

    def test_not_in_s_hat(self):
        with pytest.raises(NotInSHat):
            b_linked(paper5(), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


class TestLinkedCoset:
    def test_paper_e2_star(self):
        coset = linked_coset(paper5(), (0, 1, 0, 0, 0))
        assert coset.representative == (0, -3, 2, 0, 0)
        assert coset.radical == Subspace.from_rows(FQ, 5, [[1, 0, 0, 0, 0]])

    def test_zero_form_vector(self):
        inst = paper5()
        coset = linked_coset(inst, (0,) * 5)
        assert coset.representative == (0,) * 5
        assert coset.radical == inst.radical().subspace

    def test_rad_char2_q(self):
        coset = linked_coset(rad_char2(FQ), (0, 2, 5))
        assert coset.representative == (0, 1, 0)
        assert coset.radical == Subspace.from_rows(FQ, 3, [[1, 0, 0]])

    def test_rejects_non_annihilating(self):
        with pytest.raises(NotInSHat):
            linked_coset(paper5(), (1, 0, 0, 0, 0))


class TestLinkedForms:
    def test_rad_char2_q(self):
        coset = linked_forms(rad_char2(FQ), (0, 1, 0))
        assert coset.representative == (0, 2, 0)
        assert coset.radical == Subspace.from_rows(FQ, 3, [[0, 0, 1]])

    def test_zero_vector(self):
        inst = paper5()
        coset = linked_forms(inst, (0,) * 5)
        assert coset.representative == (0,) * 5
        assert coset.radical.dim == 2

    def test_paper_e2(self):
        coset = linked_forms(paper5(), (0, 1, 0, 0, 0))
        assert coset.representative == (0, 1, 2, 0, 0)
        assert coset.radical == Subspace.from_rows(
            FQ, 5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])

    def test_representative_is_linked_random(self):
        rng = random.Random(71)
        for _ in range(30):
            inst = random_instance_with_condition(rng)
            s = inst.from_coords(random_vector(rng, inst.field, inst.m))
            rep = linked_forms(inst, s).representative
            assert b_linked(inst, rep, s)


class TestDualize:
    def test_paper(self):
        res = dualize(paper5())
        assert res.dual.form.diag == \
            (Fraction(-3, 2), Fraction(-1, 2), 0, 0)
        assert res.dual.form.upper == {(0, 1): 2}
        assert res.s_hat == Subspace.from_rows(
            FQ, 5, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        assert res.r_hat == Subspace.from_rows(
            FQ, 5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        assert res.dual.s_basis == ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                    (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))

    def test_condition_violated(self):
        with pytest.raises(RadicalConditionViolated):
            dualize(rad_char2(F2))

    def test_gf2_hyperbolic_self_dual(self):
        res = dualize(hyperbolic_gf2())
        assert res.dual.form.diag == (0, 0)
        assert res.dual.form.upper == {(0, 1): 1}

    def test_dual_radical_is_r_hat_random(self):
        rng = random.Random(83)
        for _ in range(40):
            inst = random_instance_with_condition(rng)
            res = dualize(inst)
            assert res.dual.radical().subspace == res.r_hat
            # the dual form vanishes on its own radical
            assert res.dual.radical_condition_holds()

    def test_defining_property_random(self):
        rng = random.Random(89)
        for _ in range(60):
            inst = random_instance_with_condition(rng)
            res = dualize(inst)
            F = inst.field
            f_star = random_s_hat_vector(rng, res)
            coset = linked_coset(inst, f_star)
            q_primal = inst.eval_q(inst.coords_of(coset.representative))
            q_dual = res.dual.eval_q(res.dual.coords_of(f_star))
            assert q_primal == q_dual
            # well-definedness along the radical
            shift = coset.members([random_scalar(rng, F)
                                   for _ in range(coset.radical.dim)])
            assert inst.eval_q(inst.coords_of(shift)) == q_primal

    def test_polar_compatibility_random(self):
        rng = random.Random(97)
        for _ in range(30):
            inst = random_instance_with_condition(rng)
            res = dualize(inst)
            f1 = random_s_hat_vector(rng, res)
            f2 = random_s_hat_vector(rng, res)
            s1 = linked_coset(inst, f1).representative
            s2 = linked_coset(inst, f2).representative
            b_dual = res.dual.eval_b(res.dual.coords_of(f1),
                                     res.dual.coords_of(f2))
            b_primal = inst.eval_b(inst.coords_of(s1), inst.coords_of(s2))
            assert b_dual == b_primal

    def test_pairing_property_random(self):
        # B^(a*, f*) = <a*, s> whenever f* is linked to s
        rng = random.Random(101)
        for _ in range(30):
            inst = random_instance_with_condition(rng)
            res = dualize(inst)
            a_star = random_s_hat_vector(rng, res)
            f_star = random_s_hat_vector(rng, res)
            s = linked_coset(inst, f_star).representative
            lhs = res.dual.eval_b(res.dual.coords_of(a_star),
                                  res.dual.coords_of(f_star))
            assert lhs == dot(inst.field, a_star, s)

    def test_scaling_by_square(self):
        # Scaling the form by c^2 scales its dual by c^-2: the linking
        # relation pairs a* with x/c^2, so values pick up c^2 * c^-4.
        rng = random.Random(103)
        for _ in range(20):
            inst = random_instance_with_condition(rng)
            F = inst.field
            c = random_scalar(rng, F, nonzero=True)
            c2 = F.mul(c, c)
            inv_c2 = F.inv(c2)
            scaled = MetricSpace(
                F, inst.n, inst.s_basis,
                QuadraticForm(F, [F.mul(c2, g) for g in inst.form.diag],
                              {k: F.mul(c2, v)
                               for k, v in inst.form.upper.items()}))
            res = dualize(inst)
            res_scaled = dualize(scaled)
            assert res_scaled.dual.s_basis == res.dual.s_basis
            assert res_scaled.dual.form.diag == \
                tuple(F.mul(inv_c2, g) for g in res.dual.form.diag)
            assert res_scaled.dual.form.upper == \
                {k: F.mul(inv_c2, v) for k, v in res.dual.form.upper.items()}

    def test_nondegenerate_full_space(self):
        inst = MetricSpace(FQ, 2, [[1, 0], [0, 1]],
                           QuadraticForm(FQ, [1, Fraction(1, 2)],
                                         {(0, 1): 1}))
        res = dualize(inst)
        assert res.s_hat == Subspace.full(FQ, 2)
        g = inst.polar_gram()
        from dualform import invert_matrix
        assert res.dual.polar_gram() == invert_matrix(g)


class TestDoubleDual:
    def test_paper(self):
        assert double_dual_check(paper5()) is True

    def test_hyperbolic(self):
        assert double_dual_check(hyperbolic_gf2()) is True

    def test_zero_form_full_space(self):
        for F in ALL_FIELDS:
            inst = MetricSpace(F, 3,
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               QuadraticForm(F, [0, 0, 0], {}))
            assert double_dual_check(inst) is True

    def test_condition_violated(self):
        with pytest.raises(RadicalConditionViolated):
            double_dual_check(rad_char2(F2))


class TestConverseRelation:
    def test_paper_pair(self):
        inst = paper5()
        f_star = (0, 1, 0, 0, 0)
        s = linked_coset(inst, f_star).representative
        assert converse_relation_check(inst, [(f_star, s)]) is True

    def test_zero_pair(self):
        inst = paper5()
        assert converse_relation_check(inst, [((0,) * 5, (0,) * 5)]) is True

    def test_rad_char2_q(self):
        inst = rad_char2(FQ)
        assert converse_relation_check(inst, [((0, 2, 1), (0, 1, 0))]) \
            is True

    def test_random_mixed_pairs(self):
        rng = random.Random(107)
        for _ in range(20):
            inst = random_instance_with_condition(rng)
            res = dualize(inst)
            pairs = []
            for _ in range(5):
                f_star = random_s_hat_vector(rng, res)
                if rng.random() < 0.5:
                    x = linked_coset(inst, f_star).representative
                else:
                    x = inst.from_coords(
                        random_vector(rng, inst.field, inst.m))
                pairs.append((f_star, x))
            assert converse_relation_check(inst, pairs) is True


@pytest.mark.parametrize("fixture, first, again", [("paper5.json", 9, 6),
                                                  ("hyp_gf2.json", 6, 5)])
def test_dualize_elimination_count(monkeypatch, fixture, first, again):
    """Guard against redundant eliminations: rref is rebound in every
    dualform module that imported it by name, so calls from any module
    are counted.  A second dualize reuses the memoized radical."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", fixture)
    with open(path) as fh:
        inst = parse_problem(fh.read())
    raw = linalg.rref
    calls = []

    def counting(M):
        calls.append((M.rows, M.cols))
        return raw(M)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dualform":
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    monkeypatch.setattr(mod, attr, counting)
    dualize(inst)
    assert len(calls) == first, calls
    assert inst.radical() is inst.radical()
    del calls[:]
    dualize(inst)
    assert len(calls) == again, calls
