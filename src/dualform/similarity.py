"""Similarities of (S, Q), their transposes on the dual side, reflections,
and the block structure of extension matrices in an adapted basis.

A linear map is an invertible n x n matrix acting on column vectors.  Its
transpose acts on dual coordinate rows; with the standard pairing this is
the plain matrix transpose.
"""

from .dual import dualize, linked_forms
from .errors import (IsotropicVector, NotInSubspace, RadicalConditionViolated,
                     ZeroRatio)
from .linalg import Matrix, invert_matrix, vec_scale, vec_sub
from .quadform import QuadraticForm


class LinearMap:
    """Invertible self-map of F^n, columns = images of the standard basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        invert_matrix(matrix)  # raises Singular when not bijective
        self.matrix = matrix

    @property
    def field(self):
        return self.matrix.field

    def apply(self, vec):
        return self.matrix.mul_vec(vec)

    def compose(self, other):
        return LinearMap(self.matrix.mul(other.matrix))

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def __repr__(self):
        return f"LinearMap({self.matrix!r})"


def transpose_map(psi):
    """The dual-side map with <psi^T(a*), x> = <a*, psi(x)>."""
    return LinearMap(psi.matrix.transpose())


def verify_similarity(inst, psi, c):
    """Whether psi extends a similarity of ratio c of (S, Q).

    Checks Q on basis vectors and B on basis pairs; by polarization this is
    equivalent to the pointwise condition in every characteristic.  For the
    zero form only ratio 1 is accepted.
    """
    F = inst.field
    c = F.scalar(c)
    if F.is_zero(c):
        raise ZeroRatio("similarity ratio must be nonzero")
    if inst.form.is_zero() and c != F.one:
        return False
    try:
        images = inst.coords_matrix([psi.apply(b) for b in inst.s_basis])
    except NotInSubspace:
        return False
    form = inst.form
    scaled = QuadraticForm(F, [F.mul(c, x) for x in form.diag],
                           {k: F.mul(c, v) for k, v in form.upper.items()})
    return inst.change_of_basis(images).form == scaled


class SimilarityReport:
    __slots__ = ("preserves_s", "ratio", "primal_ok", "dual_ok", "blocks",
                 "zero_blocks_ok")

    def __init__(self, preserves_s, ratio, primal_ok, dual_ok, blocks,
                 zero_blocks_ok):
        self.preserves_s = preserves_s
        self.ratio = ratio
        self.primal_ok = primal_ok
        self.dual_ok = dual_ok
        self.blocks = blocks            # {(r, s): Matrix} for r <= s blocks
        self.zero_blocks_ok = zero_blocks_ok  # {(2,1): bool, ...}


def theorem_psi_check(inst, psi, c):
    """Evaluate the primal similarity condition and, independently, the
    dual-side condition for the transposed map; report both verdicts and
    the adapted-basis block structure of the extension matrix."""
    F = inst.field
    c = F.scalar(c)
    if F.is_zero(c):
        raise ZeroRatio("similarity ratio must be nonzero")
    if not inst.radical_condition_holds():
        raise RadicalConditionViolated("no dual form exists")
    primal = verify_similarity(inst, psi, c)
    dres = dualize(inst)
    dual = verify_similarity(dres.dual, transpose_map(psi), c)
    ab = dres.adapted
    p_ad = ab.a_inv.mul(psi.matrix).mul(ab.a)
    ranges = {1: ab.i1, 2: ab.i2, 3: ab.i3}
    blocks = {(r, s): p_ad.submatrix(ranges[r], ranges[s])
              for r in (1, 2, 3) for s in (1, 2, 3)}
    zero_ok = {(r, s): blocks[(r, s)].is_zero()
               for (r, s) in ((2, 1), (3, 1), (3, 2))}
    preserves = all(inst.subspace.contains(psi.apply(b))
                    for b in inst.s_basis)
    return SimilarityReport(preserves, c, primal, dual, blocks, zero_ok)


def reflection(inst, s):
    """Reflection along an anisotropic vector s, extended to all of F^n.

    Returns (phi_s, psi_ext, f_star): the restriction to S in s-basis
    coordinates, the extension x -> x - Q(s)^-1 <f*, x> s, and the linked
    form f* used to build it.  The extension is an involution sending s to
    -s and fixing the kernel of f*.
    """
    F = inst.field
    if not inst.radical_condition_holds():
        raise RadicalConditionViolated("no dual form exists")
    s = tuple(F.scalar(x) for x in s)
    coords = inst.coords_of(s)
    qs = inst.eval_q(coords)
    if F.is_zero(qs):
        raise IsotropicVector("reflection needs Q(s) != 0")
    f_star = linked_forms(inst, s).representative
    inv_qs = F.inv(qs)
    n = inst.n
    cols = []
    for j in range(n):
        e_j = tuple(F.one if k == j else F.zero for k in range(n))
        cols.append(vec_sub(F, e_j,
                            vec_scale(F, F.mul(inv_qs, f_star[j]), s)))
    psi_ext = LinearMap(Matrix.from_columns(F, cols))
    phi_s = inst.coords_matrix([psi_ext.apply(b) for b in inst.s_basis])
    return phi_s, psi_ext, f_star
