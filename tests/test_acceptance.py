"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
directly to the terminal; all arithmetic is exact, so every comparison is
an equality with zero tolerance.
"""

import json
import os
import random
from fractions import Fraction

from dualform import (LinearMap, Matrix, MetricSpace, QuadraticForm,
                      RadicalConditionViolated, Subspace, adapted_basis,
                      adjugate, b_linked, char2_normal_form, det,
                      diagonalize, double_dual_check, dualize, invert_matrix,
                      linked_coset, reflection, theorem_psi_check,
                      transpose_map, verify_similarity)
from dualform.cli import main as cli_main
from dualform.linalg import dot, vec_add, vec_scale
from helpers import (ALL_FIELDS, F2, F3, F5, FQ, paper5, rad_char2,
                     random_instance_with_condition, random_scalar,
                     random_vector)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(capsys, num, label, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def random_s_hat_vector(rng, dres):
    F = dres.s_hat.field
    out = (F.zero,) * dres.s_hat.ambient_dim
    for i in range(dres.s_hat.dim):
        c = random_scalar(rng, F)
        out = tuple(F.scalar(a + F.mul(c, b))
                    for a, b in zip(out, dres.s_hat.basis.row(i)))
    return out


def test_criterion_01_worked_example_regression(capsys):
    inst = paper5()
    ok = True
    ok &= inst.radical().subspace == \
        Subspace.from_rows(FQ, 5, [[1, 0, 0, 0, 0]])
    res = dualize(inst)
    ab = res.adapted
    g22 = inst.polar_gram().submatrix(range(1, 3), range(1, 3))
    ok &= ab.a == Matrix.identity(FQ, 5)
    ok &= g22 == Matrix(FQ, [[1, 2], [2, 3]])
    ok &= invert_matrix(g22) == Matrix(FQ, [[-3, 2], [2, -1]])
    # Dual coefficients: Qhat = -3/2 a2^2 + 2 a2a3 - 1/2 a3^2, zero on the
    # trailing indices.  Sanity anchor for the cross term: Qhat(e2*+e3*)
    # must equal Q(-e2+e3) = 0, which forces the a2a3 coefficient 2.
    ok &= res.dual.form.diag == (Fraction(-3, 2), Fraction(-1, 2), 0, 0)
    ok &= res.dual.form.upper == {(0, 1): 2}
    ok &= res.dual.eval_q((1, 1, 0, 0)) == inst.eval_q((0, -1, 1)) == 0
    report(capsys, 1, "worked 5-dim example regression", ok)


def test_criterion_02_char2_radical_example(capsys):
    ok = True
    gf2 = rad_char2(F2)
    ok &= gf2.radical().subspace == gf2.subspace
    try:
        dualize(gf2)
        ok = False
    except RadicalConditionViolated:
        pass
    rat = rad_char2(FQ)
    ok &= rat.radical().subspace == Subspace.from_rows(FQ, 3, [[1, 0, 0]])
    res = dualize(rat)
    ok &= res.s_hat == Subspace.from_rows(FQ, 3, [[0, 1, 0], [0, 0, 1]])
    for a2 in range(-2, 3):
        for x2 in range(-2, 3):
            a3 = (a2 + x2) % 3 - 1
            x1 = (a2 - x2) % 3 - 1
            linked = b_linked(rat, (0, a2, a3), (x1, x2, 0))
            ok &= linked == (a2 == 2 * x2)
    report(capsys, 2, "char-2 radical example and linking grid", ok)


def test_criterion_03_double_dual_identity(capsys):
    rng = random.Random(1009)
    ok = True
    total = 0
    for field in ALL_FIELDS:
        for _ in range(250):
            inst = random_instance_with_condition(rng, field, n_max=8)
            ok &= double_dual_check(inst) is True
            total += 1
    ok &= total >= 1000
    report(capsys, 3, f"double-dual identity on {total} instances", ok)


def test_criterion_04_coordinate_coset_cross_validation(capsys):
    rng = random.Random(1013)
    ok = True
    pairs = 0
    while pairs < 500:
        inst = random_instance_with_condition(rng)
        res = dualize(inst)
        for _ in range(5):
            f_star = random_s_hat_vector(rng, res)
            coset = linked_coset(inst, f_star)
            via_dual = res.dual.eval_q(res.dual.coords_of(f_star))
            via_coset = inst.eval_q(inst.coords_of(coset.representative))
            ok &= via_dual == via_coset
            shifted = coset.members(
                [random_scalar(rng, inst.field)
                 for _ in range(coset.radical.dim)])
            ok &= inst.eval_q(inst.coords_of(shifted)) == via_coset
            pairs += 1
    report(capsys, 4, f"coordinate/coset agreement on {pairs} pairs", ok)


def test_criterion_05_char2_structure_and_mirror_duality(capsys):
    rng = random.Random(1019)
    ok = True
    for _ in range(120):
        inst = random_instance_with_condition(rng, F2)
        g = inst.polar_gram()
        ok &= all(F2.is_zero(g[i, i]) for i in range(inst.m))
        d = inst.radical().dim
        ok &= (inst.m - d) % 2 == 0
        res = char2_normal_form(inst)
        norm = res.normalized
        ok &= norm == inst.change_of_basis(res.T)
        gn = norm.polar_gram()
        m, t = inst.m, inst.m - d
        for i in range(m):
            for j in range(m):
                on_minor = (i >= d and j >= d
                            and (i - d) + (j - d) == t - 1)
                ok &= gn[i, j] == (F2.one if on_minor else F2.zero)
        dres = dualize(norm)
        for i in range(t):
            mirror = d + (t - 1 - i)
            ok &= dres.dual.form.diag[i] == norm.form.diag[mirror]
    report(capsys, 5, "char-2 normal form and mirrored dual diagonal", ok)


def test_criterion_06_diagonal_duality(capsys):
    rng = random.Random(1021)
    ok = True
    for _ in range(120):
        field = rng.choice([FQ, F3, F5])
        inst = random_instance_with_condition(rng, field)
        res = diagonalize(inst)
        norm = res.normalized
        d = norm.radical().dim
        dres = dualize(norm)
        g = norm.polar_gram()
        g_hat = dres.dual.polar_gram()
        for i in range(inst.m - d):
            for j in range(inst.m - d):
                want = field.inv(g[d + i, d + i]) if i == j else field.zero
                ok &= g_hat[i, j] == want
    report(capsys, 6, "diagonal normal forms dualize entrywise", ok)


def _block_similarity(rng, inst, ab, ratio_root):
    """Upper block-triangular extension acting as ratio_root * id on the
    non-degenerate part: a similarity of ratio ratio_root^2."""
    F = inst.field
    d, m, n = ab.i2.start, ab.i3.start, inst.n
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ratio_root if d <= i < m else F.one
    for i in range(d):
        for j in range(d, n):
            rows[i][j] = random_scalar(rng, F)
    for i in range(d, m):
        for j in range(m, n):
            rows[i][j] = random_scalar(rng, F)
    p_ad = Matrix(F, rows, cols=n)
    return LinearMap(ab.a.mul(p_ad).mul(ab.a_inv))


def _anisotropic(rng, inst):
    for _ in range(200):
        x = inst.from_coords(random_vector(rng, inst.field, inst.m))
        if not inst.field.is_zero(inst.eval_q(inst.coords_of(x))):
            return x
    return None


def test_criterion_07_similarity_duality(capsys):
    rng = random.Random(1031)
    ok = True
    constructed = perturbed = 0
    while constructed < 250 or perturbed < 250:
        inst = random_instance_with_condition(rng)
        F = inst.field
        ab = adapted_basis(inst)
        a = F.one if inst.form.is_zero() \
            else random_scalar(rng, F, nonzero=True)
        c = F.mul(a, a)
        if constructed < 250:
            if rng.random() < 0.3:
                s1, s2 = _anisotropic(rng, inst), _anisotropic(rng, inst)
                if s1 is None or s2 is None:
                    continue
                psi = LinearMap(reflection(inst, s1)[1].matrix.mul(
                    reflection(inst, s2)[1].matrix))
                c = F.one
            else:
                psi = _block_similarity(rng, inst, ab, a)
            rep = theorem_psi_check(inst, psi, c)
            ok &= rep.primal_ok is True and rep.dual_ok is True
            ok &= all(rep.zero_blocks_ok.values())
            constructed += 1
        if perturbed < 250 and inst.m > ab.i2.start:
            base = _block_similarity(rng, inst, ab, a)
            n = inst.n
            i = rng.randrange(ab.i2.start, inst.m)
            j = rng.randrange(ab.i2.start, inst.m)
            delta = [[F.zero] * n for _ in range(n)]
            delta[i][j] = F.one
            p_ad = ab.a_inv.mul(base.matrix).mul(ab.a)
            bumped = Matrix(F, [[F.scalar(p_ad[r, s] + delta[r][s])
                                 for s in range(n)] for r in range(n)],
                            cols=n)
            try:
                psi = LinearMap(ab.a.mul(bumped).mul(ab.a_inv))
            except Exception:
                continue
            rep = theorem_psi_check(inst, psi, c)
            ok &= rep.primal_ok == rep.dual_ok
            if rep.primal_ok:
                ok &= all(rep.zero_blocks_ok.values())
            perturbed += 1
    report(capsys, 7,
           f"primal/dual similarity verdicts agree "
           f"({constructed} similarities, {perturbed} perturbations)", ok)


def test_criterion_08_reflection_laws(capsys):
    rng = random.Random(1033)
    ok = True
    done = 0
    while done < 200:
        inst = random_instance_with_condition(rng)
        s = _anisotropic(rng, inst)
        if s is None:
            continue
        F = inst.field
        _, psi, f_star = reflection(inst, s)
        ok &= psi.matrix.mul(psi.matrix) == Matrix.identity(F, inst.n)
        if F.characteristic() != 2:
            ok &= psi.apply(s) == tuple(F.scalar(-x) for x in s)
        ok &= verify_similarity(inst, psi, F.one) is True
        # The transpose reflects the dual space along f*: it subtracts
        # Q(s)^-1 <a*, s> f* from each a* annihilating the radical.
        qs = inst.eval_q(inst.coords_of(s))
        psi_t = transpose_map(psi)
        dres = dualize(inst)
        for i in range(dres.s_hat.dim):
            a_star = dres.s_hat.basis.row(i)
            expect = vec_add(F, a_star, vec_scale(
                F, -F.mul(F.inv(qs), dot(F, a_star, s)), f_star))
            ok &= psi_t.apply(a_star) == expect
        done += 1
    report(capsys, 8, f"reflection laws on {done} anisotropic vectors", ok)


def test_criterion_09_adjugate(capsys):
    rng = random.Random(1039)
    ok = True
    for _ in range(150):
        field = rng.choice(ALL_FIELDS)
        n = rng.randint(1, 6)
        M = Matrix(field, [list(random_vector(rng, field, n))
                           for _ in range(n)], cols=n)
        ok &= adjugate(M).mul(M) == Matrix.identity(field, n).scale(det(M))
    # On a non-degenerate form filling the whole space the adjugate of the
    # Gram matrix is det times the dual Gram.
    built = 0
    while built < 40:
        field = rng.choice([FQ, F3, F5])
        n = rng.randint(1, 5)
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = random_scalar(rng, field)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = random_scalar(rng, field)
        G = Matrix(field, rows, cols=n)
        if field.is_zero(det(G)):
            continue
        diag = [field.halve(G[i, i]) for i in range(n)]
        upper = {(i, j): G[i, j] for i in range(n) for j in range(i + 1, n)
                 if not field.is_zero(G[i, j])}
        inst = MetricSpace(field, n, Matrix.identity(field, n).data,
                           QuadraticForm(field, diag, upper))
        dual_gram = dualize(inst).dual.polar_gram()
        ok &= adjugate(G) == dual_gram.scale(det(G))
        built += 1
    report(capsys, 9, "adjugate law and envelope Gram relation", ok)


def test_criterion_10_cli_determinism(capsys):
    def fx(name):
        return os.path.join(FIXTURES, name)

    invocations = [
        (0, ["radical", fx("paper5.json")]),
        (0, ["radical", fx("rad2_q.json")]),
        (0, ["radical", fx("rad2_gf2.json")]),
        (0, ["radical", fx("hyp_gf2.json")]),
        (0, ["check-condition", fx("paper5.json")]),
        (0, ["check-condition", fx("rad2_gf2.json")]),
        (0, ["dualize", fx("paper5.json")]),
        (0, ["dualize", fx("paper5.json"), "--half-gram"]),
        (0, ["dualize", fx("rad2_q.json")]),
        (0, ["dualize", fx("hyp_gf2.json")]),
        (0, ["double-dual", fx("paper5.json")]),
        (0, ["double-dual", fx("hyp_gf2.json")]),
        (0, ["linked", fx("paper5.json"), "--form", "0,1,0,0,0"]),
        (0, ["linked-forms", fx("paper5.json"), "--vector", "0,1,0,0,0"]),
        (0, ["normalize", fx("paper5.json")]),
        (0, ["normalize", fx("hyp_gf2.json")]),
        (0, ["similarity", fx("paper5.json"),
             "--map", fx("reflection_map.json"), "--ratio", "1"]),
        (0, ["adjugate", fx("adjugate_sym.json")]),
        (1, ["radical", fx("malformed.json")]),
        (1, ["radical", fx("missing-file.json")]),
        (2, ["dualize", fx("rad2_gf2.json")]),
        (2, ["double-dual", fx("rad2_gf2.json")]),
        (2, ["normalize", fx("rad2_gf2.json")]),
    ]
    ok = True
    for want_code, argv in invocations:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            ok &= code == want_code
            if want_code == 0:
                json.loads(out)  # every success document is valid JSON
            runs.append(out)
        ok &= runs[0] == runs[1]
    report(capsys, 10,
           f"CLI byte-determinism and exit codes "
           f"({len(invocations)} invocations)", ok)
