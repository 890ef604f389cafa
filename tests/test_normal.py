import random
from fractions import Fraction

import pytest

from dualform import (CharTwo, DIAGONAL, MINOR_DIAGONAL_CHAR2, Matrix,
                      MetricSpace, NotCharTwo, QuadraticForm,
                      RadicalConditionViolated, char2_normal_form,
                      diagonalize, dualize, invert_matrix, make_field)
from helpers import (ALL_FIELDS, F2, F3, F5, FQ, hyperbolic_gf2, paper5,
                     pairwise_char2_normal_form, pairwise_diagonalize,
                     rad_char2, random_instance_with_condition,
                     random_scalar, random_subspace_basis, random_vector)


def assert_congruent(inst, res):
    assert res.normalized == inst.change_of_basis(res.T)


def radical_first(inst):
    """The first dim(R) basis vectors of inst span the radical."""
    from dualform import Subspace
    rad = inst.radical()
    prefix = Subspace.from_rows(inst.field, inst.n,
                                list(inst.s_basis[:rad.dim]))
    return prefix == rad.subspace


class TestDiagonalize:
    def test_paper(self):
        inst = paper5()
        res = diagonalize(inst)
        assert res.kind == DIAGONAL
        assert_congruent(inst, res)
        g = res.normalized.polar_gram()
        d = res.normalized.radical().dim
        assert d == 1
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert FQ.is_zero(g[i, j])
        assert not FQ.is_zero(g[1, 1]) and not FQ.is_zero(g[2, 2])

    def test_already_diagonal(self):
        inst = MetricSpace(FQ, 3,
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           QuadraticForm(FQ, [0, Fraction(1, 2),
                                              Fraction(3, 2)], {}))
        res = diagonalize(inst)
        assert res.T == Matrix.identity(FQ, 3)

    def test_zero_diagonal_pivot_trick(self):
        inst = MetricSpace(FQ, 2, [[1, 0], [0, 1]],
                           QuadraticForm(FQ, [0, 0], {(0, 1): 1}))
        res = diagonalize(inst)
        g = res.normalized.polar_gram()
        assert g == Matrix(FQ, [[2, 0], [0, Fraction(-1, 2)]])
        assert_congruent(inst, res)

    def test_char2_rejected(self):
        with pytest.raises(CharTwo):
            diagonalize(hyperbolic_gf2())

    def test_random(self):
        rng = random.Random(211)
        for _ in range(50):
            F = rng.choice([FQ, F3, F5])
            inst = random_instance_with_condition(rng, F)
            res = diagonalize(inst)
            assert_congruent(inst, res)
            assert radical_first(res.normalized) or res.normalized.m == 0
            g = res.normalized.polar_gram()
            d = res.normalized.radical().dim
            m = inst.m
            for i in range(m):
                for j in range(m):
                    if i != j:
                        assert F.is_zero(g[i, j])
            for i in range(d, m):
                assert not F.is_zero(g[i, i])

    def test_eval_invariance(self):
        rng = random.Random(223)
        for _ in range(20):
            inst = random_instance_with_condition(rng, FQ)
            res = diagonalize(inst)
            x = random_vector(rng, FQ, inst.m)
            assert res.normalized.eval_q(x) == inst.eval_q(res.T.mul_vec(x))


def minor_diagonal_ok(inst, d):
    """Gram block on the non-radical part has ones exactly on the
    anti-diagonal."""
    F = inst.field
    g = inst.polar_gram()
    m = inst.m
    t = m - d
    for i in range(d, m):
        for j in range(d, m):
            want = F.one if (i - d) + (j - d) == t - 1 else F.zero
            if g[i, j] != want:
                return False
    return True


class TestChar2NormalForm:
    def test_hyperbolic_identity(self):
        inst = hyperbolic_gf2()
        res = char2_normal_form(inst)
        assert res.kind == MINOR_DIAGONAL_CHAR2
        assert res.T == Matrix.identity(F2, 2)

    def test_two_pairs(self):
        inst = MetricSpace(F2, 4,
                           [[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]],
                           QuadraticForm(F2, [0, 0, 0, 0],
                                         {(0, 1): 1, (2, 3): 1}))
        res = char2_normal_form(inst)
        assert_congruent(inst, res)
        assert minor_diagonal_ok(res.normalized, 0)

    def test_with_radical(self):
        inst = MetricSpace(F2, 3,
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           QuadraticForm(F2, [0, 0, 0], {(1, 2): 1}))
        res = char2_normal_form(inst)
        assert_congruent(inst, res)
        assert radical_first(res.normalized)
        assert minor_diagonal_ok(res.normalized, 1)

    def test_wrong_characteristic(self):
        with pytest.raises(NotCharTwo):
            char2_normal_form(paper5())

    def test_condition_violated(self):
        with pytest.raises(RadicalConditionViolated):
            char2_normal_form(rad_char2(F2))

    def test_random(self):
        rng = random.Random(227)
        for _ in range(50):
            inst = random_instance_with_condition(rng, F2)
            res = char2_normal_form(inst)
            assert_congruent(inst, res)
            d = res.normalized.radical().dim
            assert (inst.m - d) % 2 == 0
            assert minor_diagonal_ok(res.normalized, d)
            assert radical_first(res.normalized) or res.normalized.m == 0


class TestNormalFormDuality:
    def test_diagonal_dual_inverts_entries(self):
        rng = random.Random(229)
        for _ in range(40):
            F = rng.choice([FQ, F3, F5])
            inst = random_instance_with_condition(rng, F)
            res = diagonalize(inst)
            d = res.normalized.radical().dim
            m = inst.m
            g = res.normalized.polar_gram()
            dres = dualize(res.normalized)
            g_hat = dres.dual.polar_gram()
            # dual positions 0..m-d-1 correspond to basis slots d..m-1
            for i in range(m - d):
                for j in range(m - d):
                    want = F.inv(g[d + i, d + i]) if i == j else F.zero
                    assert g_hat[i, j] == want

    def test_char2_dual_mirrors_diag(self):
        rng = random.Random(233)
        for _ in range(40):
            inst = random_instance_with_condition(rng, F2)
            res = char2_normal_form(inst)
            d = res.normalized.radical().dim
            m = inst.m
            t = m - d
            dres = dualize(res.normalized)
            # Gram block is self-inverse, so the dual Gram matches it.
            g = res.normalized.polar_gram()
            g_hat = dres.dual.polar_gram()
            for i in range(t):
                for j in range(t):
                    assert g_hat[i, j] == g[d + i, d + j]
            # diagonal values mirror across the anti-diagonal
            for i in range(t):
                assert dres.dual.form.diag[i] == \
                    res.normalized.form.diag[d + (t - 1 - i)]


def _reference_cases(rng, F):
    """Random instances with m from 0 to 12 satisfying the radical
    condition, some with a radical prefix of forced zeros and some with
    an all-zero diagonal, so that diagonalize needs its pivot trick."""
    for m in range(13):
        for zero_diag in (False, True):
            n = rng.randint(m, 12)
            rows = random_subspace_basis(rng, F, n, m)
            forced = rng.randint(0, m // 2)
            diag = [F.zero if zero_diag or i < forced
                    else random_scalar(rng, F) for i in range(m)]
            upper = {(i, j): random_scalar(rng, F)
                     for i in range(forced, m) for j in range(i + 1, m)
                     if rng.random() < 0.6}
            inst = MetricSpace(F, n, rows, QuadraticForm(F, diag, upper))
            if inst.radical_condition_holds():
                yield inst


def _late_trick(F):
    """Q = x0^2 + x1^2 + x2^2 + 2 x0 x1 + 2 x0 x2 + 3 x1 x2 on F^3: B(e_l, e_l)
    = 2 = B(e_0, e_l), so after pivot 0 the remaining diagonal is zero and
    b_1 <- b_1 + b_2 runs after a first pivot."""
    form = QuadraticForm(F, [1, 1, 1], {(0, 1): 2, (0, 2): 2, (1, 2): 3})
    return MetricSpace(F, 3, Matrix.identity(F, 3).data, form)


@pytest.mark.parametrize("F", ALL_FIELDS + (make_field("prime", 2**31 - 1),),
                         ids=["Q", "GF2", "GF3", "GF5", "GF(2^31-1)"])
def test_matches_pairwise_reference(F):
    """The congruence steps on [G | C] reproduce the pairwise algorithm,
    which evaluates B on coordinate columns, exactly: same T, same
    normalized form, same kind."""
    rng = random.Random(239)
    cases = [inst for _ in range(4) for inst in _reference_cases(rng, F)]
    late = None if F is F2 else _late_trick(F)
    seen = {"radical": 0, "trick": 0, "empty": 0,
            "two pairs" if F is F2 else "late trick": 0}
    for inst in cases + [late] * (late is not None):
        if F is F2:
            res = char2_normal_form(inst)
            T, normalized = pairwise_char2_normal_form(inst)
            kind = MINOR_DIAGONAL_CHAR2
        else:
            res = diagonalize(inst)
            T, normalized = pairwise_diagonalize(inst)
            kind = DIAGONAL
        assert (res.T, res.normalized, res.kind) == (T, normalized, kind)
        d = inst.radical().dim
        seen["radical"] += d > 0
        # a zero diagonal stays zero on the radical-first completion
        # by unit vectors, so the first pivot needs b_i <- b_i + b_j
        seen["trick"] += inst.m > d and not any(inst.form.diag)
        seen["empty"] += inst.m == 0
        if F is F2:
            seen["two pairs"] += inst.m - d >= 4
        elif inst is late:
            # pivot 0 leaves G[l][l] - G[0][l]^2 / G[0][0] = 0, l = 1, 2
            g = inst.polar_gram()
            assert d == 0 and not F.is_zero(g[0, 0])
            assert all(F.mul(g[l, l], g[0, 0]) == F.mul(g[0, l], g[0, l])
                       for l in (1, 2))
            seen["late trick"] += 1
    assert all(seen.values()), seen


def test_no_pointwise_form_evaluation(monkeypatch):
    """Normal forms and linked_forms read B off the polar Gram matrix:
    MetricSpace.eval_b and eval_q, patched on the class, are never called,
    also on instances with a radical."""
    from dualform import MetricSpace as MS, linked_forms
    calls = []

    def recorder(name, raw):
        return lambda self, *args: calls.append(name) or raw(self, *args)

    for name in ("eval_b", "eval_q"):
        monkeypatch.setattr(MS, name, recorder(name, getattr(MS, name)))
    gf2_radical = MetricSpace(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0]],
                              QuadraticForm(F2, [0, 1, 0], {(1, 2): 1}))
    rng = random.Random(241)
    for inst in [paper5(), random_instance_with_condition(rng, F3)]:
        diagonalize(inst)
        linked_forms(inst, inst.s_basis[-1])
    for inst in [gf2_radical, hyperbolic_gf2()]:
        assert inst.radical().dim == (inst is gf2_radical)
        char2_normal_form(inst)
        linked_forms(inst, inst.s_basis[-1])
    assert calls == []
