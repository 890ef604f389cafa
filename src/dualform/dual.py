"""Construction of the dual quadratic form.

Given (S, Q) inside F^n, the dual form lives on S^ = ann(R), the forms
annihilating the radical R, and is pinned down by the linking relation: a
form a* is linked to a vector x in S when <a*, y> = B(x, y) for all y in S.
Linked partners share their Q-value, which is well defined exactly when Q
vanishes on the nonzero vectors of R.

Two independent routes to the dual value exist: the coordinate recipe (invert
the middle Gram block in an adapted basis) implemented by dualize(), and
coset chasing via linked_coset(), kept separate so tests can cross-validate.
"""

from .errors import LengthMismatch, NotInSHat, RadicalConditionViolated
from .linalg import (Matrix, annihilator, complete_to_ambient, dot,
                     extend_basis, invert_matrix, solve, vec_add)
from .quadform import MetricSpace, QuadraticForm


class AdaptedBasis:
    """Basis of F^n ordered radical-first: columns of a span R on i1, S on
    i1 + i2.  Rows of a_inv are the dual basis in standard dual coordinates.
    Column j of coords holds the s_basis coordinates of column j < m of a.
    """

    __slots__ = ("a", "a_inv", "coords", "i1", "i2", "i3")

    def __init__(self, a, a_inv, coords, d, m, n):
        self.a = a
        self.a_inv = a_inv
        self.coords = coords
        self.i1 = range(0, d)
        self.i2 = range(d, m)
        self.i3 = range(m, n)

    def column(self, j):
        return self.a.column(j)

    def dual_row(self, i):
        return self.a_inv.row(i)


class LinkedCoset:
    """A representative plus the radical it may be shifted by."""

    __slots__ = ("representative", "radical")

    def __init__(self, representative, radical):
        self.representative = representative
        self.radical = radical

    def members(self, coeffs):
        """Representative shifted by the given combination of radical rows."""
        F = self.radical.field
        out = self.representative
        for c, i in zip(coeffs, range(self.radical.dim)):
            out = vec_add(F, out, tuple(F.mul(F.scalar(c), x)
                                        for x in self.radical.basis.row(i)))
        return out


class DualFormResult:
    __slots__ = ("s_hat", "r_hat", "dual", "adapted", "g22", "g22_hat")

    def __init__(self, s_hat, r_hat, dual, adapted, g22, g22_hat):
        self.s_hat = s_hat      # ann(R), subspace of dual coordinates
        self.r_hat = r_hat      # ann(S)
        self.dual = dual        # MetricSpace on the dual side
        self.adapted = adapted
        self.g22 = g22          # middle Gram block in the adapted basis
        self.g22_hat = g22_hat  # its inverse


def adapted_basis(inst):
    """Deterministic adapted basis for an instance.

    If the instance's own s_basis is already radical-first it is reused;
    otherwise the radical's canonical rows are completed inside S and then
    the S-basis is completed to F^n with standard basis vectors.
    """
    F = inst.field
    rad = inst.radical()
    d, m, n = rad.dim, inst.m, inst.n
    if all(rad.subspace.contains(b) for b in inst.s_basis[:d]):
        s_vectors = list(inst.s_basis)
        coords = Matrix.identity(F, m)
    else:
        s_vectors = extend_basis(rad.subspace, inst.subspace)
        coords = inst.coords_matrix(s_vectors)
    a = Matrix.from_columns(F, complete_to_ambient(F, s_vectors, n))
    return AdaptedBasis(a, invert_matrix(a), coords, d, m, n)


def _check_in_s_hat(inst, rad, a_star):
    if len(a_star) != inst.n:
        raise LengthMismatch("dual vector length != n")
    F = inst.field
    for i in range(rad.subspace.dim):
        if not F.is_zero(dot(F, a_star, rad.subspace.basis.row(i))):
            raise NotInSHat("form does not annihilate the radical")


def b_linked(inst, a_star, x):
    """Whether the form a* is linked to the vector x (both ambient)."""
    F = inst.field
    a_star = tuple(F.scalar(v) for v in a_star)
    coords = inst.coords_of(x)
    _check_in_s_hat(inst, inst.radical(), a_star)
    m = inst.m
    for j in range(m):
        unit = tuple(F.one if k == j else F.zero for k in range(m))
        if dot(F, a_star, inst.s_basis[j]) != inst.eval_b(coords, unit):
            return False
    return True


def linked_coset(inst, f_star):
    """All vectors of S linked to f*: a representative plus the radical."""
    F = inst.field
    f_star = tuple(F.scalar(v) for v in f_star)
    rad = inst.radical()
    _check_in_s_hat(inst, rad, f_star)
    rhs = tuple(dot(F, f_star, b) for b in inst.s_basis)
    sol = solve(inst.polar_gram(), rhs)
    assert sol is not None  # guaranteed once f* annihilates the radical
    return LinkedCoset(inst.from_coords(sol[0]), rad.subspace)


def linked_forms(inst, s):
    """All forms linked to the vector s: a representative plus ann(S)."""
    F = inst.field
    coords = inst.coords_of(s)
    ab = adapted_basis(inst)
    rep = [F.zero] * inst.n
    for j in range(inst.m):
        val = inst.eval_b(coords, ab.coords.column(j))
        if not F.is_zero(val):
            row = ab.dual_row(j)
            rep = [F.add(r, F.mul(val, x)) for r, x in zip(rep, row)]
    return LinkedCoset(tuple(rep), annihilator(inst.subspace))


def dualize(inst):
    """Dual quadratic form via the adapted-coordinate recipe.

    The middle Gram block is inverted; its entries give the polar
    coefficients of the dual form and its rows, fed back through Q, give
    the diagonal coefficients.  All coefficients touching the trailing
    index block vanish.
    """
    if not inst.radical_condition_holds():
        raise RadicalConditionViolated(
            "form does not vanish on the radical; no dual form exists")
    F = inst.field
    ab = adapted_basis(inst)
    d, m, n = ab.i2.start, ab.i3.start, inst.n
    t = m - d
    inst_ad = inst.change_of_basis(ab.coords)
    g22 = inst_ad.polar_gram().submatrix(ab.i2, ab.i2)
    g22_hat = invert_matrix(g22)
    diag = [inst_ad.eval_q([F.zero] * d + list(g22_hat.row(i)))
            for i in range(t)] + [F.zero] * (n - m)
    upper = {(i, j): g22_hat[i, j] for i in range(t) for j in range(i + 1, t)}
    s_hat = annihilator(inst.radical().subspace)
    r_hat = annihilator(inst.subspace)
    dual_basis = [ab.dual_row(i) for i in range(d, n)]
    dual = MetricSpace(F, n, dual_basis,
                       QuadraticForm(F, diag, upper), subspace=s_hat)
    return DualFormResult(s_hat, r_hat, dual, ab, g22, g22_hat)


def double_dual_check(inst):
    """Dualize twice and compare with the original coefficients exactly."""
    first = dualize(inst)
    second = dualize(first.dual)
    back = second.dual
    if back.subspace != inst.subspace:
        return False
    back = back.change_of_basis(back.coords_matrix(inst.s_basis))
    return back.form == inst.form and back.s_basis == inst.s_basis


def converse_relation_check(inst, pairs):
    """Check that linking and dual-side linking are converse relations.

    Each pair is (a_star, x); the primal verdict for (a*, x) must match the
    dual-side verdict for (x, a*) under the identification of the double
    dual with F^n.
    """
    dres = dualize(inst)
    for a_star, x in pairs:
        primal = b_linked(inst, a_star, x)
        dual = b_linked(dres.dual, x, a_star)
        if primal != dual:
            return False
    return True
