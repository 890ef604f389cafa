import random
from fractions import Fraction

import pytest

from dualform import (IsotropicVector, LinearMap, Matrix, MetricSpace,
                      QuadraticForm, RadicalConditionViolated, Singular,
                      Subspace, ZeroRatio, annihilator, char2_normal_form,
                      dualize, invert_matrix, reflection, theorem_psi_check,
                      transpose_map, verify_similarity)
from dualform import similarity
from dualform.linalg import dot
from helpers import (ALL_FIELDS, F2, F3, FQ, hyperbolic_gf2, paper5,
                     rad_char2, random_instance_with_condition, random_scalar,
                     random_subspace_basis, random_vector, record_parses)


def random_invertible(rng, F, n):
    while True:
        M = Matrix(F, [list(random_vector(rng, F, n)) for _ in range(n)])
        try:
            invert_matrix(M)
            return LinearMap(M)
        except Singular:
            continue


def scaling_of_s(inst, a):
    """Extension that multiplies every S-basis vector by a and fixes a
    complement; a similarity of ratio a^2."""
    from dualform import adapted_basis
    F = inst.field
    ab = adapted_basis(inst)
    m = inst.m
    D = Matrix(F, [[a if i == j and i < m else
                    (F.one if i == j else F.zero)
                    for j in range(inst.n)] for i in range(inst.n)])
    return LinearMap(ab.a.mul(D).mul(ab.a_inv))


class TestLinearMap:
    def test_singular_rejected(self):
        with pytest.raises(Singular):
            LinearMap(Matrix(FQ, [[1, 1], [1, 1]]))

    def test_compose(self, monkeypatch):
        """The product of two checked maps is invertible: composing runs
        no elimination."""
        a = LinearMap(Matrix(FQ, [[0, 1], [1, 0]]))
        b = LinearMap(Matrix(FQ, [[1, 1], [0, 1]]))

        def no_rank(M):
            raise AssertionError("compose ran an elimination")

        monkeypatch.setattr(similarity, "rank", no_rank)
        assert a.compose(b).matrix == Matrix(FQ, [[0, 1], [1, 1]])

    def test_transpose_functorial(self):
        rng = random.Random(301)
        for _ in range(20):
            F = rng.choice([FQ, F2, F3])
            n = rng.randint(1, 5)
            a = random_invertible(rng, F, n)
            b = random_invertible(rng, F, n)
            assert transpose_map(a.compose(b)) == \
                transpose_map(b).compose(transpose_map(a))
            assert transpose_map(transpose_map(a)) == a

    def test_transpose_pairing(self):
        rng = random.Random(307)
        for _ in range(20):
            F = rng.choice([FQ, F2])
            n = rng.randint(1, 5)
            psi = random_invertible(rng, F, n)
            a_star = random_vector(rng, F, n)
            x = random_vector(rng, F, n)
            assert dot(F, transpose_map(psi).apply(a_star), x) == \
                dot(F, a_star, psi.apply(x))

    def test_transpose_annihilator_equivariance(self):
        # ann(psi(T)) is the preimage of ann(T) under the transpose.
        rng = random.Random(311)
        for _ in range(30):
            F = rng.choice([FQ, F2, F3])
            n = rng.randint(1, 5)
            psi = random_invertible(rng, F, n)
            rows = random_subspace_basis(rng, F, n, rng.randint(0, n))
            T = Subspace.from_rows(F, n, rows)
            image = Subspace.from_rows(F, n, [psi.apply(r) for r in rows])
            pulled = Subspace.from_rows(
                F, n,
                [invert_matrix(psi.matrix.transpose()).mul_vec(
                    annihilator(T).basis.row(i))
                 for i in range(annihilator(T).dim)])
            assert annihilator(image) == pulled


class TestVerifySimilarity:
    def test_identity(self):
        inst = paper5()
        assert verify_similarity(inst, LinearMap(Matrix.identity(FQ, 5)), 1)

    def test_zero_ratio(self):
        with pytest.raises(ZeroRatio):
            verify_similarity(paper5(),
                              LinearMap(Matrix.identity(FQ, 5)), 0)

    def test_scaling_ratio(self):
        inst = paper5()
        psi = scaling_of_s(inst, Fraction(3))
        assert verify_similarity(inst, psi, 9) is True
        assert verify_similarity(inst, psi, 3) is False

    def test_non_similarity(self):
        inst = paper5()
        rows = [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        psi = LinearMap(Matrix(FQ, rows))
        assert verify_similarity(inst, psi, 1) is False
        assert verify_similarity(inst, psi, 4) is False

    def test_map_leaving_s(self):
        inst = paper5()
        rows = [[0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [1, 0, 0, 0, 0]]
        psi = LinearMap(Matrix(FQ, rows))
        assert verify_similarity(inst, psi, 1) is False

    def test_zero_form_only_ratio_one(self):
        inst = rad_char2(F2)
        inst = type(inst)(F2, 3, [[1, 0, 0]],
                          inst.form.__class__(F2, [0], {}))
        psi = LinearMap(Matrix.identity(F2, 3))
        assert verify_similarity(inst, psi, 1) is True

    def test_gf2_swap_hyperbolic(self):
        inst = hyperbolic_gf2()
        psi = LinearMap(Matrix(F2, [[0, 1], [1, 0]]))
        assert verify_similarity(inst, psi, 1) is True


class TestTheoremPsi:
    def test_paper_scaling(self):
        inst = paper5()
        psi = scaling_of_s(inst, Fraction(2))
        rep = theorem_psi_check(inst, psi, 4)
        assert rep.preserves_s is True
        assert rep.primal_ok is True and rep.dual_ok is True
        assert all(rep.zero_blocks_ok.values())

    def test_paper_non_similarity_agrees(self):
        inst = paper5()
        rows = [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        psi = LinearMap(Matrix(FQ, rows))
        rep = theorem_psi_check(inst, psi, 1)
        assert rep.primal_ok is False and rep.dual_ok is False

    def test_radical_moved_flags_block(self):
        inst = paper5()
        rows = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        psi = LinearMap(Matrix(FQ, rows))
        rep = theorem_psi_check(inst, psi, 1)
        assert rep.preserves_s is True
        assert rep.zero_blocks_ok[(2, 1)] is False
        assert rep.primal_ok is False

    def test_random_similarities(self):
        rng = random.Random(313)
        checked = 0
        while checked < 30:
            inst = random_instance_with_condition(rng)
            F = inst.field
            a = random_scalar(rng, F, nonzero=True)
            if inst.form.is_zero():
                a = F.one  # the zero form admits only ratio 1
            psi = scaling_of_s(inst, a)
            rep = theorem_psi_check(inst, psi, F.mul(a, a))
            assert rep.primal_ok is True and rep.dual_ok is True
            assert all(rep.zero_blocks_ok.values())
            checked += 1

    def test_random_verdicts_agree(self):
        rng = random.Random(317)
        for _ in range(30):
            inst = random_instance_with_condition(rng)
            psi = random_invertible(rng, inst.field, inst.n)
            c = random_scalar(rng, inst.field, nonzero=True)
            rep = theorem_psi_check(inst, psi, c)
            if rep.preserves_s and all(rep.zero_blocks_ok.values()):
                assert rep.primal_ok == rep.dual_ok


def anisotropic_vector(rng, inst):
    for _ in range(200):
        x = inst.from_coords(random_vector(rng, inst.field, inst.m))
        if not inst.field.is_zero(inst.eval_q(inst.coords_of(x))):
            return x
    return None


class TestReflection:
    def test_paper_e2(self):
        inst = paper5()
        phi_s, psi, f_star = reflection(inst, (0, 1, 0, 0, 0))
        assert f_star == (0, 1, 2, 0, 0)
        assert psi.apply((0, 1, 0, 0, 0)) == (0, -1, 0, 0, 0)
        assert psi.apply((0, 0, 1, 0, 0)) == (0, -4, 1, 0, 0)
        assert phi_s == Matrix(FQ, [[1, 0, 0], [0, -1, -4], [0, 0, 1]])

    def test_paper_involution_and_similarity(self):
        inst = paper5()
        _, psi, _ = reflection(inst, (0, 1, 0, 0, 0))
        assert psi.compose(psi).matrix == Matrix.identity(FQ, 5)
        assert verify_similarity(inst, psi, 1) is True

    def test_isotropic_rejected(self):
        with pytest.raises(IsotropicVector):
            reflection(paper5(), (1, 0, 0, 0, 0))

    def test_fixes_hyperplane(self):
        inst = paper5()
        _, psi, f_star = reflection(inst, (0, 1, 0, 0, 0))
        # e3 - 2*e2 lies in the kernel of f*
        v = (0, -2, 1, 0, 0)
        assert dot(FQ, f_star, v) == 0
        assert psi.apply(v) == v

    def test_random_laws(self):
        rng = random.Random(331)
        done = 0
        while done < 40:
            inst = random_instance_with_condition(rng)
            s = anisotropic_vector(rng, inst)
            if s is None:
                continue
            F = inst.field
            _, psi, f_star = reflection(inst, s)
            n = inst.n
            assert psi.compose(psi).matrix == Matrix.identity(F, n)
            assert verify_similarity(inst, psi, 1) is True
            rep = theorem_psi_check(inst, psi, F.one)
            assert rep.primal_ok is True and rep.dual_ok is True
            if F.characteristic() != 2:
                assert psi.apply(s) == tuple(F.neg(x) for x in s)
            done += 1

    def test_products_are_isometries(self):
        rng = random.Random(337)
        done = 0
        while done < 15:
            inst = random_instance_with_condition(rng)
            s1 = anisotropic_vector(rng, inst)
            s2 = anisotropic_vector(rng, inst)
            if s1 is None or s2 is None:
                continue
            _, p1, _ = reflection(inst, s1)
            _, p2, _ = reflection(inst, s2)
            assert verify_similarity(inst, p1.compose(p2), 1) is True
            done += 1


def test_linear_map_checks_bijectivity_by_rank(monkeypatch):
    """Building a map runs one T-free echelon, not an inverse."""
    from dualform import linalg
    from helpers import record_calls
    calls = record_calls(monkeypatch, linalg.rref, linalg._echelon)
    LinearMap(Matrix.identity(FQ, 5))
    assert calls == [("_echelon", 5, 5)]


def test_maps_built_internally_skip_the_rank_check(monkeypatch):
    """A reflection is an involution and the transpose of a map is
    invertible, so building either runs no rank; theorem_psi_check maps
    s_basis by one product and reads preserves_s off one membership
    test, so it neither applies psi per vector nor asks Subspace.contains."""
    from dualform import linalg
    from helpers import record_calls
    inst = paper5()
    psi = LinearMap(Matrix.identity(FQ, 5))
    ranks = record_calls(monkeypatch, linalg.rank)
    per_vector = []
    for cls, name in ((LinearMap, "apply"), (Subspace, "contains")):
        def counting(*args, raw=getattr(cls, name), name=name):
            per_vector.append(name)
            return raw(*args)
        monkeypatch.setattr(cls, name, counting)
    _, psi_s, _ = reflection(inst, (0, 1, 0, 0, 0))
    transpose_map(psi)
    report = theorem_psi_check(inst, psi_s, 1)
    assert ranks == [] and per_vector == []
    assert report.preserves_s and report.primal_ok and report.dual_ok


def test_theorem_psi_check_parses_a_text_ratio_once(monkeypatch):
    """theorem_psi_check reads the ratio c once and gives the same c to
    the primal and the dual verdicts: psi = 2 I scales Q, and so the dual
    form, by 4."""
    inst = paper5()
    parsed = record_parses(monkeypatch, inst.field)
    psi = LinearMap(Matrix(FQ, [[2 * (i == j) for j in range(5)]
                                for i in range(5)]))
    report = theorem_psi_check(inst, psi, "4")
    assert parsed == ["4"]
    assert report.ratio == 4 and report.primal_ok and report.dual_ok
    assert not theorem_psi_check(inst, psi, "2").dual_ok


def test_theorem_psi_check_asks_the_radical_condition_once(monkeypatch):
    """theorem_psi_check leaves the radical condition to the dualize of
    its shared dual, so on a fresh GF(2) instance, where each test forms
    R A, it is asked once, and a violation reads the same from
    theorem_psi_check, reflection, dualize and char2_normal_form."""
    asked = []
    raw = MetricSpace.radical_condition_holds

    def counting(inst):
        asked.append(inst)
        return raw(inst)

    monkeypatch.setattr(MetricSpace, "radical_condition_holds", counting)
    inst = MetricSpace(F2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                       QuadraticForm(F2, [0, 1, 1], {(1, 2): 1}))
    assert inst.radical().dim == 1
    psi = LinearMap(Matrix.identity(F2, 3))
    assert theorem_psi_check(inst, psi, 1).dual_ok is True
    assert asked == [inst]
    messages = set()
    for check in (dualize, char2_normal_form,
                  lambda i: theorem_psi_check(i, psi, 1),
                  lambda i: reflection(i, (0, 1, 0))):
        with pytest.raises(RadicalConditionViolated) as exc:
            check(rad_char2(F2))
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


def test_linear_map_rejects_a_non_square_matrix():
    from dualform import LengthMismatch
    with pytest.raises(LengthMismatch):
        LinearMap(Matrix(FQ, [[1, 0, 0], [0, 1, 0]]))
