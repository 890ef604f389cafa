"""Property tests of the paper's identities, with shrinking: over the
rationals, GF(2), GF(3) and GF(2^31 - 1), for instances with n <= 8,
dualizing twice gives the instance back, linking on the dual side is the
converse of linking, linked pairs share their value Q^(a*) = Q(x), away
from characteristic 2 the dual's diagonal read as g22^-1[i][i] / 2 is
the characteristic-2 formula's and the value of the linked vector, the
adjugate of the middle Gram block is its determinant times the dual's
Gram block, a map in adapted block form is a similarity exactly when its
transpose is one on the dual, and a reflection is an involution negating
its vector.  What dualize reads off its own eliminations is what a fresh
elimination gives: a^-1 a = I, a^-1 is the inverse of a, the adapted
coordinates are those of a's first m columns, R^ = ann(S), the dual's
radical and span transform are those of the same dual built from its
rows, and the dual's adapted basis, read off the primal's, meets its
contract.  The determinant is multiplicative and invariant under
transposition for n <= 6."""

import pytest

from dualform import (LinearMap, Matrix, MetricSpace, Subspace, adapted_basis,
                      adjugate, annihilator, b_linked, det,
                      double_dual_check, dualize, invert_matrix, kernel,
                      linked_coset, linked_forms, make_field, reflection,
                      theorem_psi_check)
from dualform.linalg import _row_dots
from helpers import F2, F3, FQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import (  # noqa: E402
    PROPERTY, coordinates, instances, matrices, scalars)

FIELDS = pytest.mark.parametrize(
    "F", [FQ, F2, F3, make_field("prime", 2**31 - 1)],
    ids=["Q", "GF2", "GF3", "GF(2^31-1)"])


def linked_form(data, inst, x):
    """A form linked to x: the representative shifted by a drawn member
    of ann(S)."""
    coset = linked_forms(inst, x)
    return coset.members(data.draw(coordinates(inst.field,
                                               coset.radical.dim)))


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_double_dual_is_the_identity(F, data):
    assert double_dual_check(data.draw(instances(F))) is True


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_linking_on_the_dual_is_the_converse(F, data):
    """b_linked(inst, a*, x) == b_linked(dual, x, a*) for x in S and a* in
    S^, with a* linked to x or drawn over the dual basis."""
    inst = data.draw(instances(F))
    dual = dualize(inst).dual
    x = inst.from_coords(data.draw(coordinates(F, inst.m)))
    if data.draw(st.booleans()):
        a_star = linked_form(data, inst, x)
        assert b_linked(inst, a_star, x) is True
    else:
        a_star = dual.from_coords(data.draw(coordinates(F, dual.m)))
    assert b_linked(inst, a_star, x) == b_linked(dual, x, a_star)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_linked_pairs_share_their_value(F, data):
    inst = data.draw(instances(F))
    dual = dualize(inst).dual
    coords = data.draw(coordinates(F, inst.m))
    a_star = linked_form(data, inst, inst.from_coords(coords))
    assert dual.eval_q(dual.coords_of(a_star)) == inst.eval_q(coords)


@pytest.mark.parametrize("F", [FQ, F3, make_field("prime", 2**31 - 1), F2],
                         ids=["Q", "GF3", "GF(2^31-1)", "GF2"])
@PROPERTY
@hypothesis.given(data=st.data())
def test_odd_dual_diagonal_matches_two_independent_values(F, data):
    """Away from characteristic 2 dualize reads Q^(e_i) as g22^-1[i][i] / 2,
    in characteristic 2 as Q at the s_basis coordinates, rows of
    g22^-1 K^t, of the vectors linked to the dual basis.  Either way it
    equals row i of g22^-1 A22 paired with row i of g22^-1, for A22 the
    matrix of the form built on the middle adapted vectors, a formula
    that holds in every characteristic, and Q(x) for the x that
    linked_coset links to dual basis vector i."""
    inst = data.draw(instances(F))
    res = dualize(inst)
    ab, g22_hat, diag = res.adapted, res.g22_hat, res.dual.form.diag
    A22 = inst._form_in(ab.coords.submatrix(range(inst.m), ab.i2)).matrix()
    assert list(diag[:g22_hat.rows]) == \
        _row_dots(g22_hat.mul(A22), g22_hat)
    for e, value in zip(res.dual.s_basis, diag, strict=True):
        x = linked_coset(inst, e).representative
        assert value == inst.eval_q(inst.coords_of(x))


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_a_inverse_times_a_is_the_identity(F, data):
    inst = data.draw(instances(F))
    ab = adapted_basis(inst)
    assert ab.a_inv.mul(ab.a) == Matrix.identity(F, inst.n)


@FIELDS
def test_adapted_basis_agrees_with_an_independent_elimination(F):
    """a a^-1 = I, a^-1 is what inverting a gives, and R^ is the kernel
    of S's canonical rows by kernel's own reverse echelon.  The drawn
    instances cover both branches of adapted_basis (radical-first or
    not) and both routes of annihilator (dim S <= n/2 or not), and
    dim S = 0, S = F^n, d = 0 and d = m.  With s_basis reversed, a
    radical of leading zeros is last, on an instance that computes its
    span transform only when asked."""
    seen = set()

    @PROPERTY
    @hypothesis.given(inst=instances(F), flip=st.booleans())
    def check(inst, flip):
        m = inst.m
        if flip:
            inst = inst.change_of_basis(Matrix(F, [
                [int(i + j == m - 1) for j in range(m)] for i in range(m)],
                cols=m))
        ab = adapted_basis(inst)
        n, d = inst.n, inst.radical().dim
        assert ab.a.mul(ab.a_inv) == Matrix.identity(F, n)
        assert ab.a_inv == invert_matrix(ab.a)
        assert ab.r_hat == kernel(inst.subspace.basis)
        rad = inst.radical().subspace
        seen.add("radical-first" if all(map(rad.contains, inst.s_basis[:d]))
                 else "radical-not-first")
        seen.add("dim S > n/2" if 2 * m > n else "dim S <= n/2")
        seen.update(name for name, hit in [
            ("dim S = 0", m == 0), ("S = F^n", 0 < m == n),
            ("d = 0", 0 == d < m), ("d = m", 0 < d == m)] if hit)

    check()
    assert seen == {"radical-first", "radical-not-first", "dim S > n/2",
                    "dim S <= n/2", "dim S = 0", "S = F^n", "d = 0",
                    "d = m"}


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_adapted_coords_are_the_coordinates_of_a(F, data):
    """Column j < m of adapted_basis(inst).coords holds the s_basis
    coordinates of column j of a, also with s_basis reversed, which puts
    a radical of leading zeros last, on an instance that computes its
    span transform only when asked.  coords is the identity exactly when
    the first d s_basis vectors lie in the radical, d its dimension."""
    inst = data.draw(instances(F))
    m = inst.m
    if data.draw(st.booleans()):
        inst = inst.change_of_basis(Matrix(
            F, [[int(i + j == m - 1) for j in range(m)] for i in range(m)],
            cols=m))
    ab = adapted_basis(inst)
    s_vectors = ab.a.submatrix(range(inst.n), range(m)).transpose()
    assert ab.coords == inst.coords_matrix(list(s_vectors.data))
    assert ab.coords.transpose().mul(inst._basis) == s_vectors
    rad = inst.radical()
    first = all(rad.subspace.contains(v) for v in inst.s_basis[:rad.dim])
    assert (ab.coords == Matrix.identity(F, m)) == first


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_r_hat_is_the_annihilator_of_s(F, data):
    inst = data.draw(instances(F))
    assert dualize(inst).r_hat == annihilator(inst.subspace)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_the_dual_memoizes_what_a_fresh_instance_computes(F, data):
    """The radical and span transform dualize gives the dual equal those
    a fresh MetricSpace on the dual's rows and form computes itself; the
    transform, left to the dual as a recipe, is computed once."""
    inst = data.draw(instances(F))
    dual = dualize(inst).dual
    fresh = MetricSpace(F, inst.n, dual.s_basis, dual.form)
    assert dual.subspace == fresh.subspace
    span_t = dual._transform()
    assert span_t == fresh._span_t
    assert dual._transform() is span_t
    ours, theirs = dual.radical(), fresh.radical()
    assert ours.subspace == theirs.subspace
    assert ours.in_domain == theirs.in_domain


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_the_dual_adapted_basis_meets_its_contract(F, data):
    """The dual's adapted basis, read off the primal's, is the primal's
    a^-1 with rows in the order i3, i2, i1, and meets the contract of
    AdaptedBasis against a fresh MetricSpace on the dual's rows and form:
    a a^-1 = I, columns i1 span the radical, i1 + i2 span S^, coords
    holds s_basis coordinates and r_hat is ann(S^).  Double duality also
    holds on the fresh instance, whose adapted basis is computed."""
    inst = data.draw(instances(F))
    n, ab = inst.n, adapted_basis(inst)
    dual = dualize(inst).dual
    fresh = MetricSpace(F, n, dual.s_basis, dual.form)
    dab = adapted_basis(dual)
    d, m = dab.i2.start, dab.i3.start
    columns = dab.a.transpose()
    assert columns == ab.a_inv.submatrix([*ab.i3, *ab.i2, *ab.i1], range(n))
    assert dab.a.mul(dab.a_inv) == Matrix.identity(F, n)
    assert Subspace.from_rows(F, n, columns.data[:d]) == \
        fresh.radical().subspace
    assert Subspace.from_rows(F, n, columns.data[:m]) == fresh.subspace
    assert dab.coords == fresh.coords_matrix(list(columns.data[:m]))
    assert dab.r_hat == annihilator(fresh.subspace)
    assert double_dual_check(fresh) is True


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_adjugate_of_the_gram_block_is_det_times_the_dual_gram(F, data):
    """adj(G) = det(G) G^ for the middle Gram block G and the Gram matrix
    G^ of the dual form on the first t = dim S - dim R dual basis rows."""
    res = dualize(data.draw(instances(F)))
    t = range(res.g22.rows)
    g_hat = res.dual.polar_gram().submatrix(t, t)
    assert adjugate(res.g22) == g_hat.scale(det(res.g22))


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_similarity_verdicts_agree_on_adapted_block_maps(F, data):
    """For psi = A P A^-1 with P block upper triangular in the adapted basis
    A (it keeps R and S), psi is a similarity of ratio c exactly when its
    transpose is one of the dual form; with a * id on the middle block it
    is one of ratio a^2."""
    inst = data.draw(instances(F))
    ab = adapted_basis(inst)
    nonzero = scalars(F).filter(bool)
    a = F.one if inst.form.is_zero() else data.draw(nonzero)
    scaled = data.draw(st.booleans())
    drawn = data.draw(matrices(F, inst.n, inst.n))

    def entry(i, j):
        if scaled and i in ab.i2 and j in ab.i2:
            return a if i == j else F.zero
        if i == j:
            return data.draw(nonzero)
        return drawn[i, j] if i < j else F.zero

    p_ad = Matrix(F, [[entry(i, j) for j in range(inst.n)]
                      for i in range(inst.n)], cols=inst.n)
    psi = LinearMap(ab.a.mul(p_ad).mul(ab.a_inv))
    c = F.mul(a, a) if scaled else data.draw(nonzero)
    rep = theorem_psi_check(inst, psi, c)
    assert rep.primal_ok == rep.dual_ok
    if scaled:
        assert rep.primal_ok is True


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_reflection_is_an_involution_negating_its_vector(F, data):
    """psi_s^2 = I and psi_s(s) = -s for s anisotropic: the drawn vector
    if Q is nonzero on it, else the first e_i or e_i + e_j of the S basis
    that is, which exists for every nonzero form."""
    inst = data.draw(instances(F))
    hypothesis.assume(not inst.form.is_zero())
    m = inst.m
    candidates = [data.draw(coordinates(F, m))] + [
        [F.one if k in (i, j) else F.zero for k in range(m)]
        for i in range(m) for j in range(i, m)]
    s = inst.from_coords(next(c for c in candidates if inst.eval_q(c)))
    psi = reflection(inst, s)[1]
    assert psi.compose(psi).matrix == Matrix.identity(F, inst.n)
    assert psi.apply(s) == tuple(F.neg(x) for x in s)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_det_is_multiplicative(F, data):
    n = data.draw(st.integers(0, 6))
    A, B = data.draw(matrices(F, n, n)), data.draw(matrices(F, n, n))
    assert det(A.mul(B)) == F.mul(det(A), det(B))


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_det_of_the_transpose(F, data):
    n = data.draw(st.integers(0, 6))
    A = data.draw(matrices(F, n, n))
    assert det(A.transpose()) == det(A)
