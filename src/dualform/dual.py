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

from itertools import compress, repeat

from .errors import NotInSHat, RadicalConditionViolated
from .linalg import (Matrix, Subspace, _canon, _dual_rows, _particular,
                     _row_dots, annihilator, invert_matrix, kernel, vec_add)
from .quadform import MetricSpace, QuadraticForm, Radical


class AdaptedBasis:
    """Basis of F^n ordered radical-first: columns of a span R on i1, S on
    i1 + i2.  Rows of a_inv are the dual basis in standard dual coordinates;
    its rows on i3 span R^ = ann(S), whose canonical basis is the Subspace
    r_hat.  Column j of coords holds the s_basis coordinates of column
    j < m of a.

    One is memoized per instance and shared by every caller; it holds
    only immutable Matrix and Subspace objects and ranges, so sharing it
    is safe.  A dual form's is read off its primal's (see dualize).
    """

    __slots__ = ("a", "a_inv", "coords", "r_hat", "i1", "i2", "i3")

    def __init__(self, a, a_inv, coords, r_hat, d, m, n):
        self.a = a
        self.a_inv = a_inv
        self.coords = coords
        self.r_hat = r_hat
        self.i1 = range(0, d)
        self.i2 = range(d, m)
        self.i3 = range(m, n)

    def column(self, j):
        return self.a.column(j)


class LinkedCoset:
    """A representative plus the radical it may be shifted by."""

    __slots__ = ("representative", "radical")

    def __init__(self, representative, radical):
        self.representative = representative
        self.radical = radical

    def members(self, coeffs):
        """Representative shifted by the given combination of radical rows,
        one coefficient per row; LengthMismatch otherwise."""
        F = self.radical.field
        shift = Matrix(F, [coeffs], cols=self.radical.dim).mul(
            self.radical.basis).row(0)
        return vec_add(F, self.representative, shift)


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
    """Deterministic adapted basis for an instance, computed once and
    shared by every caller, so it must not be mutated."""
    return inst._fact("_adapted", _adapted_basis)


def _adapted_basis(inst):
    """adapted_basis, computed.  If the instance's own s_basis is already
    radical-first it is reused.  That is read off the radical's s_basis
    coordinates, kept in canonical RREF: the first d s-vectors span R
    exactly when those rows are the unit vectors e_0, ..., e_(d-1) of
    F^m.  Otherwise the radical's canonical rows
    are completed inside S with S's canonical rows, by one d x m echelon
    of the radical's coordinates rad_c over those.  Row i of the span
    transform T has the s_basis coordinates of canonical row i, so
    rad_c T has the radical's.  The S-basis is then completed to F^n with
    the standard basis vectors e_k, k in K, at which the canonical rows N
    of ann(S) lead.

    a^-1 is read off S's canonical rows R and N; nothing of size m is
    inverted.  Let P be R's pivots and V the m x n matrix whose row i is
    e_c, c = P[i], minus N's row led by c if c is in K.  Then V R^t = I:
    (V R^t)[i][j] = R[j][c] - 0 = [i = j], as R is in canonical RREF and
    N vanishes on S.  And V is 0 at every k in K: a row e_c with c not
    in K is, and N's row led by c is 1 at c and 0 at the rest of K, as
    e_c is.  With N R^t = 0 and N 1 at K, [V; N] is the inverse of
    [R; e_K] (as rows).  When the S-vectors are C R for an invertible
    m x m C, a = [C R; e_K]^t has inverse [C^-t V; N].

    Radical-first, the S-vectors are s_basis = T^-1 R, so C^-t = T^t and
    nothing is inverted.  Otherwise C = [rad_c; e_kept], with kept the
    pivots of the canonical rows H of the null space of rad_c (see
    linalg.complete_to_ambient).  Solving
    C^t [Y; Z] = V on the d columns J outside kept gives A^t Y = V_J for
    A = rad_c[:, J], invertible as C is, so Y = A^-t V_J, one d x d
    inverse.  On kept, Z = V_kept - rad_c[:, kept]^t Y.  H is the
    identity at kept and rad_c H^t = 0, so H is -(A^-1 rad_c[:, kept])^t
    at J, and Z = H V needs no subtraction.  An instance that does not
    hold T computes it here, by one rref of its basis.
    """
    rad = inst.radical()
    F = inst.field
    d, m, n = rad.dim, inst.m, inst.n
    S, T = inst.subspace, inst._transform()
    r_hat = annihilator(S)
    V = _dual_rows(S, r_hat)
    s_vectors = inst._basis
    if rad.in_domain.basis == Matrix._units(F, range(d), m):
        coords = Matrix.identity(F, m)
        top = T.transpose().mul(V)
    else:
        rad_c = S._coordinates(rad.subspace.basis)
        assert rad_c is not None  # the radical lies in S
        H = kernel(rad_c)
        kept = H.pivots
        taken = set(kept)
        J = [j for j in range(m) if j not in taken]
        s_vectors = rad.subspace.basis._vstack(S.basis.submatrix(kept,
                                                                 range(n)))
        coords = rad_c.mul(T)._vstack(T.submatrix(kept, range(m)))
        coords = coords.transpose()
        Y = invert_matrix(rad_c.submatrix(range(d), J)).transpose().mul(
            V.submatrix(J, range(n)))
        top = Y._vstack(H.basis.mul(V))
    a = s_vectors._vstack(Matrix._units(F, r_hat.pivots, n)).transpose()
    return AdaptedBasis(a, top._vstack(r_hat.basis), coords, r_hat, d, m, n)


def _in_s_hat(inst, rad, a_star):
    """The dual vector a_star as a tuple of scalars; NotInSHat unless it
    annihilates the radical rad of inst."""
    a_star = Matrix(inst.field, [a_star], cols=inst.n).row(0)
    if any(rad.subspace.basis._mul_vec(a_star)):
        raise NotInSHat("form does not annihilate the radical")
    return a_star


def b_linked(inst, a_star, x):
    """Whether the form a* is linked to the vector x (both ambient):
    <a*, b_j> = B(x, b_j) = (G coords(x))_j for the polar Gram matrix G on
    s_basis, in every characteristic."""
    coords = inst.coords_of(x)
    a_star = _in_s_hat(inst, inst.radical(), a_star)
    return inst.polar_gram()._mul_vec(coords) == inst._basis._mul_vec(a_star)


def linked_coset(inst, f_star):
    """All vectors of S linked to f*: a representative plus the radical."""
    rad = inst.radical()
    f_star = _in_s_hat(inst, rad, f_star)
    sol = _particular(inst.polar_gram(), inst._basis._mul_vec(f_star))
    assert sol is not None  # guaranteed once f* annihilates the radical
    return LinkedCoset(inst.from_coords(sol), rad.subspace)


def linked_forms(inst, s):
    """Forms linked to s: a representative from G coords(s), plus ann(S)."""
    return LinkedCoset(_linked_form(inst, inst.coords_of(s)),
                       adapted_basis(inst).r_hat)


def _linked_form(inst, coords):
    """linked_forms' representative for the vector with canonical s_basis
    coordinates coords: the row coords^t G = (G coords)^t, G symmetric,
    read over the dual basis rows of a^-1 on i1 + i2."""
    m, n = inst.m, inst.n
    ab = adapted_basis(inst)
    rep = Matrix._trusted(inst.field, [coords], m).mul(inst.polar_gram())
    return rep.mul(ab.coords).mul(
        ab.a_inv.submatrix(range(m), range(n))).row(0)


def _check_radical_condition(inst):
    """RadicalConditionViolated unless the form of inst vanishes on the
    nonzero vectors of its radical: the one test, and message, of every
    caller that needs a dual form."""
    if not inst.radical_condition_holds():
        raise RadicalConditionViolated(
            "form does not vanish on the radical; no dual form exists")


def dualize(inst):
    """Dual quadratic form via the adapted-coordinate recipe.

    With K the s_basis coordinates of the t = m - d middle adapted
    vectors, their polar Gram matrix is g22 = K^t G K, G the instance's
    cached polar_gram(), in every characteristic: the polar form alone
    fixes S^, the linking relation and the dual's polar block.  The
    entries of g22^-1 are the polar coefficients of the dual form, and
    all coefficients touching the trailing index block vanish, so the
    dual's polar Gram matrix is diag(g22^-1, 0).  Its diagonal is
    Q^(e_i) = Q(x_i) for the middle vector x_i linked to e_i, which has
    middle coordinates row i of g22^-1 and so s_basis coordinates row i
    of X = g22^-1 K^t.  Only in characteristic 2 does Q^ need Q itself:
    there Q^(e_i) = x_i^t A x_i, row i of X A paired with row i of X for
    A = form.matrix().  Away from characteristic 2 it is
    Q^(e_i) = g22^-1[i][i] / 2, as B(x_i, x_i) =
    (g22^-1 g22 g22^-1)[i][i] = g22^-1[i][i] and Q(x) = B(x, x) / 2.
    There one half, F.halve(F.one), is the call's only Field arithmetic
    and its only Field.inv, which the traced benchmark counts on a second
    dualize of one instance (bench/test_perfbench.py).

    Nothing is eliminated twice.  R^ = ann(S) is rows i3 of a^-1, and the
    dual, on the rows d..n of a^-1, keeps its radical, R^ in ambient
    coordinates and the last n - m unit vectors in its own, and forms its
    span transform, (canonical rows of S^) a[:, d:n], when first asked:
    a form f has coordinates f a over the rows of a^-1 and one in S^
    vanishes on R, the first d columns of a.  Its adapted basis is read
    off a and a^-1 when first asked (see _dual_adapted).

    Each call builds a new result, which its caller owns.
    """
    _check_radical_condition(inst)
    F = inst.field
    p = F.characteristic()
    ab = adapted_basis(inst)
    d, m, n = ab.i2.start, ab.i3.start, inst.n
    t = m - d
    K = ab.coords.submatrix(range(m), ab.i2)
    Kt = K.transpose()
    g22 = Kt.mul(inst.polar_gram()).mul(K)
    g22_hat = invert_matrix(g22)
    if p == 2:
        X = g22_hat.mul(Kt)
        diag = _row_dots(X.mul(inst.form.matrix()), X)
    else:
        half = F.halve(F.one)
        diag = _canon(p, [half * g22_hat[i, i] for i in range(t)])
    diag = list(diag) + [F.zero] * (n - m)
    upper = {}
    for i, row in enumerate(g22_hat.data):
        tail = row[i + 1:]
        upper.update(compress(zip(zip(repeat(i), range(i + 1, t)), tail),
                              tail))
    rad = inst.radical().subspace
    s_hat = annihilator(rad)
    radical = Radical(ab.r_hat, Subspace(F, n - d, Matrix._units(
        F, range(t, n - d), n - d)))
    dual = MetricSpace._trusted(
        F, n, ab.a_inv.submatrix(range(d, n), range(n)),
        QuadraticForm._trusted(F, diag, upper), s_hat,
        span_t=lambda: s_hat.basis.mul(ab.a.submatrix(range(n),
                                                      range(d, n))),
        radical=radical, adapted=lambda: _dual_adapted(ab, rad))
    return DualFormResult(s_hat, ab.r_hat, dual, ab, g22, g22_hat)


def _dual_adapted(ab, rad):
    """The adapted basis of the dual on rows d..n of ab.a_inv, from the
    primal's ab and radical rad, without elimination.

    The dual basis a^-1 read in the order i3, i2, i1 is radical-first for
    the dual: rows i3 span its radical R^, rows i2 + i3 its domain S^.
    Its inverse is a's columns in the same order, as rows.  Column j of
    the new a is dual s_basis vector t + j for j < n - m and j - (n - m)
    otherwise, so the new coords is that permutation.  The new a^-1's
    rows on its i3, a's columns on i1, span ann(S^) = R but need not be
    R's canonical rows, so its r_hat is R itself."""
    F = ab.a.field
    d, m, n = ab.i2.start, ab.i3.start, ab.a.rows
    t = m - d
    order = [*ab.i3, *ab.i2, *ab.i1]
    a = ab.a_inv.submatrix(order, range(n)).transpose()
    a_inv = ab.a.submatrix(range(n), order).transpose()
    coords = Matrix._units(F, [t + j if j < n - m else j - (n - m)
                               for j in range(n - d)], n - d).transpose()
    return AdaptedBasis(a, a_inv, coords, rad, n - m, n - d, n)


def double_dual_check(inst):
    """Dualize twice and compare with the original coefficients exactly."""
    first = inst._fact("_dual", dualize)
    second = dualize(first.dual)
    back = second.dual
    if back.subspace != inst.subspace:
        return False
    # inst.s_basis is a basis of back's S, so its coordinates are invertible
    back = back._change_of_basis(back._coords(inst._basis))
    return back.form == inst.form and back._basis == inst._basis


def converse_relation_check(inst, pairs):
    """Check that linking and dual-side linking are converse relations.

    Each pair is (a_star, x); the primal verdict for (a*, x) must match the
    dual-side verdict for (x, a*) under the identification of the double
    dual with F^n.
    """
    dres = inst._fact("_dual", dualize)
    for a_star, x in pairs:
        primal = b_linked(inst, a_star, x)
        dual = b_linked(dres.dual, x, a_star)
        if primal != dual:
            return False
    return True
