import os
import random
from fractions import Fraction

import pytest

from dualform import (LengthMismatch, LinearMap, Matrix, MetricSpace,
                      NotInSHat, NotInSubspace, QuadraticForm,
                      RadicalConditionViolated, Subspace, adapted_basis,
                      b_linked, converse_relation_check, double_dual_check,
                      dualize, linked_coset, linked_forms, theorem_psi_check)
from dualform import dual, fields, linalg
from dualform.cli import parse_problem
from dualform.linalg import dot, vec_add, vec_scale
from helpers import (ALL_FIELDS, F2, F3, F5, FQ, hyperbolic_gf2, paper5,
                     rad_char2, random_instance_with_condition, random_scalar,
                     random_subspace_basis, random_vector, record_calls)


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

    def test_members_takes_one_coefficient_per_radical_row(self):
        coset = linked_coset(paper5(), (0, 1, 0, 0, 0))
        assert coset.members([5]) == (5, -3, 2, 0, 0)
        for coeffs in ([5, 7], []):
            with pytest.raises(LengthMismatch):
                coset.members(coeffs)


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


def _parsed(fixture):
    path = os.path.join(os.path.dirname(__file__), "fixtures", fixture)
    with open(path) as fh:
        return parse_problem(fh.read())


def _radical_last(F, n, m, d):
    """A seeded instance of dim S = m in F^n whose coefficients touching
    the last d s_basis vectors vanish, so the radical sits at the end of
    s_basis, not at its start."""
    rng = random.Random(n)
    rows = random_subspace_basis(rng, F, n, m)
    diag = [random_scalar(rng, F) for _ in range(m - d)] + [0] * d
    upper = {(i, j): random_scalar(rng, F)
             for i in range(m - d) for j in range(i + 1, m - d)}
    return MetricSpace(F, n, rows, QuadraticForm(F, diag, upper))


def _gf3_not_radical_first():
    """n = 24 over GF(3), dim S = 18, a radical of dimension 3 last."""
    return _radical_last(F3, 24, 18, 3)


@pytest.mark.parametrize("fixture, first, again", [("paper5.json", 5, 2),
                                                  ("hyp_gf2.json", 3, 2),
                                                  ("gf3-n24", 7, 2)])
def test_dualize_elimination_count(monkeypatch, fixture, first, again):
    """Guard against redundant eliminations: rref and the echelon loop it
    shares with the T-free callers are rebound in every dualform module
    that imported them by name, so every elimination is counted once,
    from any module.  A dualize runs the radical's kernel and span, one
    echelon of min(m, n - m) rows for ann(S), one for ann(R), and the
    inverse of the t x t middle Gram block.  a^-1 is read off S's
    canonical rows and ann(S), so a radical-first instance inverts
    nothing else; one whose radical is not first adds the completion of
    the radical inside S and the d x d inverse that gives a^-1's radical
    rows.  Only the inverses build a transform.  An echelon with no rows
    to reduce is skipped: hyp_gf2.json has S = F^2 and no radical to
    span.  A second dualize reuses the memoized radical and adapted
    basis: it runs only the inverse of the t x t middle Gram block and
    the echelon of ann(R)."""
    if fixture == "gf3-n24":
        inst = _gf3_not_radical_first()
        rad = inst.radical()
        assert rad.dim >= 3
        assert not all(rad.subspace.contains(b)
                       for b in inst.s_basis[:rad.dim])
        inst = _gf3_not_radical_first()
    else:
        inst = _parsed(fixture)
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    dualize(inst)
    d = inst.radical().dim
    t = inst.m - d
    transforms = [("rref", d, d)] if fixture == "gf3-n24" else []
    assert len(calls) == first, calls
    assert [c for c in calls if c[0] == "rref"] == \
        transforms + [("rref", t, t)], calls
    assert inst.radical() is inst.radical()
    del calls[:]
    dualize(inst)
    assert len(calls) == again, calls
    assert [c for c in calls if c[0] == "rref"] == [("rref", t, t)], calls


@pytest.mark.parametrize("F", [FQ, F2, F3, fields.PrimeField(2**31 - 1)],
                         ids=repr)
def test_dualize_builds_no_form_on_the_middle_vectors(monkeypatch, F):
    """dualize forms g22 = K^t G K from the instance's cached polar Gram
    matrix in every characteristic, and in characteristic 2 the dual's
    diagonal as Q at the vectors linked to the dual basis: no dualize
    builds the form on the middle adapted vectors, as
    MetricSpace._form_in would."""
    rng = random.Random(23)
    insts = [random_instance_with_condition(rng, F) for _ in range(12)]
    insts.append(_hyperbolic(F, 8, 6, 2, False))
    formed = []
    raw = MetricSpace._form_in

    def recording(inst, T):
        formed.append(T.cols)
        return raw(inst, T)

    monkeypatch.setattr(MetricSpace, "_form_in", recording)
    middles = [dualize(inst).g22.rows for inst in insts]
    assert formed == [] and max(middles) > 0


def _hyperbolic(F, n, m, d, first):
    """A seeded S of dim m in F^n whose form is a sum of hyperbolic
    planes Q(x, y) = xy on t = m - d (even) s_basis vectors, after the
    first d with first and before the last d otherwise: a radical of
    dimension exactly d, in every characteristic."""
    rows = random_subspace_basis(random.Random(n + m), F, n, m)
    lo = d if first else 0
    upper = {(i, i + 1): 1 for i in range(lo, lo + m - d, 2)}
    return MetricSpace(F, n, rows, QuadraticForm(F, [0] * m, upper))


@pytest.mark.parametrize("F", [FQ, F2, F3, fields.PrimeField(2**31 - 1)],
                         ids=repr)
@pytest.mark.parametrize("n, m, d", [(16, 12, 2), (16, 6, 2), (8, 8, 2)])
@pytest.mark.parametrize("first", [True, False],
                         ids=["radical-first", "radical-last"])
def test_adapted_basis_builds_a_transform_only_for_a_radical_not_first(
        monkeypatch, F, n, m, d, first):
    """A radical-first dualize builds one transform, the inverse of the
    t x t middle Gram block; one whose radical is not first builds two,
    d x d and t x t.  ann(S), asked by adapted_basis, is one T-free
    echelon of min(m, n - m) rows, or none when S = F^n."""
    inst = _hyperbolic(F, n, m, d, first)
    rad = inst.radical()
    assert rad.dim == d and inst.radical_condition_holds()
    assert all(rad.subspace.contains(b) for b in inst.s_basis[:d]) == first
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    asked = []

    def annihilator(T):
        start = len(calls)
        out = linalg.annihilator(T)
        asked.append((T.dim, calls[start:]))
        return out

    monkeypatch.setattr(dual, "annihilator", annihilator)
    dualize(inst)
    t = m - d
    assert [c for c in calls if c[0] == "rref"] == \
        ([] if first else [("rref", d, d)]) + [("rref", t, t)], calls
    assert asked[0] == (m, [("_echelon", min(m, n - m), n)] if m < n
                        else []), asked


@pytest.mark.parametrize("F", [FQ, F3, fields.PrimeField(2**31 - 1)],
                         ids=repr)
def test_dualize_leaves_the_dual_span_transform_to_its_first_question(
        monkeypatch, F):
    """dualize forms no product of S^'s canonical rows with a[:, d:n],
    (n - d) x n by n x (n - d): the dual forms it on its first coordinate
    question, once, and its coordinates are right."""
    inst = _radical_last(F, 16, 12, 2)
    n, d = inst.n, inst.radical().dim
    product = (n - d, n, n - d)
    shapes = []
    mul = Matrix.mul

    def recording(A, B):
        shapes.append((A.rows, A.cols, B.cols))
        return mul(A, B)

    monkeypatch.setattr(Matrix, "mul", recording)
    dual = dualize(inst).dual
    assert shapes and product not in shapes
    coords = random_vector(random.Random(3), F, dual.m)
    for formed in (1, 0):
        del shapes[:]
        assert dual.coords_of(dual.from_coords(coords)) == tuple(coords)
        assert shapes.count(product) == formed


@pytest.mark.parametrize("make", [
    lambda: _parsed("paper5.json"),
    lambda: _radical_last(FQ, 16, 12, 2)], ids=["paper5", "q-n16"])
def test_adapted_basis_is_computed_once_per_instance(monkeypatch, make):
    """The adapted basis is memoized on its instance and shared by
    dualize, linked_forms and theorem_psi_check: after one dualize,
    linked_forms eliminates nothing and a second theorem_psi_check, which
    reuses the instance's shared dual, runs no elimination, with the same
    results as on a fresh copy of the instance."""
    inst = make()
    ab = adapted_basis(inst)
    assert adapted_basis(inst) is ab
    assert dualize(inst).adapted is ab
    F, n = inst.field, inst.n
    s = inst.from_coords(random_vector(random.Random(5), F, inst.m))
    psi = LinearMap(Matrix.identity(F, n))
    theorem_psi_check(inst, psi, 1)
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    forms = linked_forms(inst, s)
    assert calls == []
    report = theorem_psi_check(inst, psi, 1)
    assert calls == []
    fresh = make()
    assert report.blocks == theorem_psi_check(fresh, psi, 1).blocks
    fresh_ab = adapted_basis(fresh)
    assert (ab.a, ab.a_inv, ab.coords) == \
        (fresh_ab.a, fresh_ab.a_inv, fresh_ab.coords)
    assert forms.representative == linked_forms(fresh, s).representative


@pytest.mark.parametrize("fixture, count", [("paper5.json", 7),
                                            ("hyp_gf2.json", 5)])
def test_double_dual_check_elimination_count(monkeypatch, fixture, count):
    """double_dual_check runs one dualize of the instance, 5 or 3
    eliminations, and one of its dual, whose adapted basis is read off
    the primal's a and a^-1: only the inverse of the middle Gram block
    and the echelon of ann(R^) are left.  Asking for the instance's
    coordinates on the double dual runs none."""
    inst = _parsed(fixture)
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    assert double_dual_check(inst) is True
    assert len(calls) == count, calls


@pytest.mark.parametrize("fixture", ["paper5.json", "hyp_gf2.json"])
def test_composite_checks_share_one_dual(monkeypatch, fixture):
    """double_dual_check, converse_relation_check and theorem_psi_check
    share the instance's one dual: after double_dual_check the other two
    run no elimination, and their verdicts hold."""
    inst = _parsed(fixture)
    F, n = inst.field, inst.n
    s_hat = dualize(_parsed(fixture)).s_hat
    pairs = [(s_hat.basis.row(i), x)
             for i in range(s_hat.dim) for x in inst.s_basis]
    psi = LinearMap(Matrix.identity(F, n))
    assert double_dual_check(inst) is True
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    assert converse_relation_check(inst, pairs) is True
    report = theorem_psi_check(inst, psi, 1)
    assert calls == []
    assert pairs and report.primal_ok and report.dual_ok


def test_the_dual_adapted_basis_keeps_r_hat_canonical(monkeypatch):
    """The dual's adapted basis costs no elimination, and its R^, which
    is ann(S^) = R, is R's canonical basis, not the radical column of a:
    here that column is (2, 0, 0), the radical-first s_basis vector."""
    inst = MetricSpace(FQ, 3, [[2, 0, 0], [0, 1, 0]],
                       QuadraticForm(FQ, [0, 1], {}))
    dual = dualize(inst).dual
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    assert adapted_basis(dual).r_hat == inst.radical().subspace
    assert calls == []
    assert dualize(dual).r_hat == inst.radical().subspace
    assert inst.radical().subspace.basis == Matrix(FQ, [[1, 0, 0]])


def test_linked_coset_runs_one_elimination(monkeypatch):
    """linked_coset reads one particular solution of G x = B f* off one
    rref of the polar Gram matrix G, and not G's null space: the coset's
    radical is the instance's memoized one."""
    inst = _parsed("paper5.json")
    inst.radical()
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    coset = linked_coset(inst, (0, 1, 0, 0, 0))
    assert calls == [("rref", 3, 3)]
    assert coset.representative == (0, -3, 2, 0, 0)
    assert coset.radical is inst.radical().subspace


@pytest.mark.parametrize("fixture, first, again", [
    ("paper5.json", [(3, 3)], []),
    ("q-n16", [(12, 12)], [])])
def test_dualize_clears_each_rational_matrix_once(monkeypatch, fixture,
                                                  first, again):
    """Guard the cleared int rows: _int_rows, which clears a rational
    matrix built from Fractions, is rebound and its shapes recorded.
    Products, eliminations, submatrices and transposes pass cleared rows
    on, and the instance keeps its s_basis cleared from the constructor,
    so a dualize clears only what is built from form coefficients: the
    polar Gram matrix, once, as the form keeps it.  The middle Gram block
    is a product of it, and over the rationals no middle form is built,
    so a second dualize clears nothing."""
    if fixture == "q-n16":
        inst = _radical_last(FQ, 16, 12, 2)
        assert not all(inst.radical().subspace.contains(b)
                       for b in inst.s_basis[:2])
        inst = _radical_last(FQ, 16, 12, 2)
    else:
        inst = _parsed(fixture)
    calls = record_calls(monkeypatch, linalg._int_rows)
    dualize(inst)
    assert [c[1:] for c in calls] == first
    del calls[:]
    dualize(inst)
    assert [c[1:] for c in calls] == again


@pytest.mark.parametrize("fixture", ["paper5.json", "q-n16"])
def test_shared_form_matrices_stay_as_cleared(fixture):
    """A form computes matrix() and polar_gram() once and every caller
    shares them, so a kernel that mutated an operand's cleared rows would
    corrupt them: after a rational dualize and a double dual, each is
    still the one object, with the rows and denominators it was cleared
    to."""
    inst = _radical_last(FQ, 16, 12, 2) if fixture == "q-n16" \
        else _parsed(fixture)
    form = inst.form
    A, G = form.matrix(), form.polar_gram()
    assert form.matrix() is A and inst.polar_gram() is G

    def cleared():
        return [([list(r) for r in M._ints()[0]], list(M._ints()[1]))
                for M in (A, G)]

    before = cleared()
    dualize(inst)
    assert double_dual_check(inst) is True
    assert form.matrix() is A and form.polar_gram() is G
    assert cleared() == before


@pytest.mark.parametrize("fixture", ["paper5.json", "hyp_gf2.json"])
def test_dualize_makes_no_per_entry_field_calls(monkeypatch, fixture):
    """Guard the native-operator kernels: Field add/sub/mul are wrapped on
    every field class, as the traced benchmark does.  The only call left
    is the mul inside F.halve(F.one), the one half of the dual's diagonal
    away from characteristic 2; in characteristic 2 none is left.  So a
    loop that slips back to per-entry Field calls fails."""
    inst = _parsed(fixture)
    calls = []

    def counting(raw):
        def wrapper(*args):
            calls.append(raw.__name__)
            return raw(*args)
        return wrapper

    for cls in vars(fields).values():
        if isinstance(cls, type) and issubclass(cls, fields.Field):
            for meth in ("add", "sub", "mul"):
                if meth in vars(cls):
                    monkeypatch.setattr(cls, meth, counting(vars(cls)[meth]))
    dualize(inst)
    assert calls == (["mul"] if inst.field.characteristic() != 2 else []), \
        calls


@pytest.mark.parametrize("make", [
    paper5, hyperbolic_gf2, lambda: _hyperbolic(F2, 8, 6, 2, False)],
    ids=["paper5", "hyperbolic-gf2", "gf2-radical-last"])
def test_double_dual_check_fails_on_a_changed_second_dual(monkeypatch, make):
    """double_dual_check compares the second dual with the original, so a
    second dual with one diagonal coefficient changed makes it False."""
    assert double_dual_check(make()) is True
    real = dual.dualize
    seen = []

    def dualize_changed(inst):
        res = real(inst)
        seen.append(inst)
        if len(seen) == 2:
            F, form = res.dual.field, res.dual.form
            diag = list(form.diag)
            diag[0] = F.add(diag[0], F.one)
            res.dual.form = QuadraticForm(F, diag, form.upper)
        return res

    monkeypatch.setattr(dual, "dualize", dualize_changed)
    assert double_dual_check(make()) is False
    assert len(seen) == 2


@pytest.mark.parametrize("make", [
    paper5, hyperbolic_gf2, lambda: _hyperbolic(F2, 8, 6, 2, False)],
    ids=["paper5", "hyperbolic-gf2", "gf2-radical-last"])
def test_converse_relation_check_fails_on_a_changed_dual_verdict(
        monkeypatch, make):
    """converse_relation_check compares the primal and dual-side verdicts,
    so a dual-side b_linked that answers the opposite makes it False, on
    a linked pair and on an unlinked one."""
    inst = make()
    rad = inst.radical().subspace
    x = next(v for v in inst.s_basis if not rad.contains(v))
    linked = (linked_forms(inst, x).representative, x)
    unlinked = ((inst.field.zero,) * inst.n, x)
    assert [b_linked(inst, *pair) for pair in (linked, unlinked)] == \
        [True, False]
    for pair in (linked, unlinked):
        assert converse_relation_check(inst, [pair]) is True
    real = dual.b_linked

    def b_linked_changed(on, a_star, y):
        verdict = real(on, a_star, y)
        return verdict if on is inst else not verdict

    monkeypatch.setattr(dual, "b_linked", b_linked_changed)
    for pair in (linked, unlinked):
        assert converse_relation_check(inst, [pair]) is False


@pytest.mark.parametrize("F", [FQ, F2, F3], ids=repr)
@pytest.mark.parametrize("first, calls", [(True, 0), (False, 1)],
                         ids=["radical-first", "radical-last"])
def test_the_radical_first_test_reads_the_radical_coordinates(
        monkeypatch, F, first, calls):
    """Whether s_basis is radical-first is read off the radical's s_basis
    coordinates, with no coordinate solve; only the completion of a
    radical that is not first solves for the radical's coordinates."""
    inst = _hyperbolic(F, 16, 12, 2, first)
    inst.radical()
    seen = []
    coordinates = Subspace._coordinates

    def counting(S, V):
        seen.append(V.rows)
        return coordinates(S, V)

    monkeypatch.setattr(Subspace, "_coordinates", counting)
    ab = adapted_basis(inst)
    assert len(seen) == calls
    assert (ab.coords == Matrix.identity(F, inst.m)) == first
