"""Similarities of (S, Q), their transposes on the dual side, reflections,
and the block structure of extension matrices in an adapted basis.

A linear map is an invertible n x n matrix acting on column vectors.  Its
transpose acts on dual coordinate rows; with the standard pairing this is
the plain matrix transpose.
"""

from collections import namedtuple

from .dual import _check_radical_condition, _linked_form, dualize
from .errors import (IsotropicVector, LengthMismatch, NotInSubspace,
                     Singular, ZeroRatio)
from .linalg import Matrix, _canon, _instance, rank
from .quadform import MetricSpace, QuadraticForm


class LinearMap:
    """Invertible self-map of F^n, columns = images of the standard basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if _instance(matrix, Matrix).rows != matrix.cols:
            raise LengthMismatch("linear map matrix must be square")
        if rank(matrix) != matrix.rows:
            raise Singular("linear map is not bijective")
        self.matrix = matrix

    @classmethod
    def _trusted(cls, matrix):
        """Internal constructor, unchecked: matrix is square and
        invertible by construction."""
        self = object.__new__(cls)
        self.matrix = matrix
        return self

    def apply(self, vec):
        return self.matrix.mul_vec(vec)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def __repr__(self):
        return f"LinearMap({self.matrix!r})"


def transpose_map(psi):
    """The dual-side map with <psi^T(a*), x> = <a*, psi(x)>."""
    return LinearMap._trusted(_instance(psi, LinearMap).matrix.transpose())


def verify_similarity(inst, psi, c):
    """Whether psi extends a similarity of ratio c of (S, Q).

    Checks Q on basis vectors and B on basis pairs; by polarization this is
    equivalent to the pointwise condition in every characteristic.  For the
    zero form only ratio 1 is accepted.
    """
    F = _instance(inst, MetricSpace).field
    c, psi = _ratio(F, c), _instance(psi, LinearMap)
    return _scales_form(inst, _image_coords(inst, psi), c)


def _ratio(F, c):
    """The similarity ratio c as a scalar of F, read once; ZeroRatio if
    it is zero."""
    c = F.scalar(c)
    if F.is_zero(c):
        raise ZeroRatio("similarity ratio must be nonzero")
    return c


def _image_coords(inst, psi):
    """The m x m matrix whose column i holds the s_basis coordinates of
    psi(b_i), from the one product of s_basis with psi^t; None if some
    psi(b_i) lies outside S."""
    try:
        return inst._coords(inst._basis.mul(psi.matrix.transpose()))
    except NotInSubspace:
        return None


def _scales_form(inst, images, c):
    """verify_similarity's verdict for a nonzero c, from _image_coords."""
    F, form = inst.field, inst.form
    if images is None or (form.is_zero() and c != F.one):
        return False
    p, upper = F.characteristic(), form.upper
    scaled = QuadraticForm._trusted(
        F, _canon(p, [c * x for x in form.diag]),
        dict(zip(upper, _canon(p, [c * v for v in upper.values()]))))
    # psi is injective and maps S into S, so images is invertible
    return inst._form_in(images) == scaled


class SimilarityReport(namedtuple("SimilarityReport", "preserves_s ratio "
                                  "primal_ok dual_ok blocks zero_blocks_ok")):
    """preserves_s, whether psi maps S into S; ratio, the ratio c as a
    scalar; primal_ok and dual_ok, the two verdicts; blocks, {(r, s):
    Matrix}, all nine blocks of psi in the adapted basis; zero_blocks_ok,
    {(2, 1): bool, ...}, whether each block below the diagonal is zero."""

    __slots__ = ()


def theorem_psi_check(inst, psi, c):
    """Evaluate the primal similarity condition and, independently, the
    dual-side condition for the transposed map; report both verdicts and
    the adapted-basis block structure of the extension matrix.  The dual
    is the instance's shared one, so repeated checks dualize it once."""
    F = _instance(inst, MetricSpace).field
    c, psi = _ratio(F, c), _instance(psi, LinearMap)
    dres = inst._fact("_dual", dualize)
    images = _image_coords(inst, psi)
    primal = _scales_form(inst, images, c)
    dual_images = _image_coords(dres.dual, transpose_map(psi))
    dual = _scales_form(dres.dual, dual_images, c)
    ab = dres.adapted
    p_ad = ab.a_inv.mul(psi.matrix).mul(ab.a)
    ranges = {1: ab.i1, 2: ab.i2, 3: ab.i3}
    blocks = {(r, s): p_ad.submatrix(ranges[r], ranges[s])
              for r in (1, 2, 3) for s in (1, 2, 3)}
    zero_ok = {(r, s): blocks[(r, s)].is_zero()
               for (r, s) in ((2, 1), (3, 1), (3, 2))}
    return SimilarityReport(images is not None, c, primal, dual, blocks,
                            zero_ok)


def reflection(inst, s):
    """Reflection along an anisotropic vector s, extended to all of F^n.

    Returns (phi_s, psi_ext, f_star): the restriction to S in s-basis
    coordinates, the extension x -> x - Q(s)^-1 <f*, x> s, and the linked
    form f* used to build it.  The extension is an involution sending s to
    -s and fixing the kernel of f*.
    """
    F = _instance(inst, MetricSpace).field
    _check_radical_condition(inst)
    V = Matrix(F, [s], cols=inst.n)
    s, coords = V.row(0), inst._coords(V).column(0)
    qs = inst._q_at(coords)
    if F.is_zero(qs):
        raise IsotropicVector("reflection needs Q(s) != 0")
    f_star = _linked_form(inst, coords)
    # I - Q(s)^-1 s f*^t; an involution by construction, so no rank check
    p, inv_qs = F.characteristic(), F.inv(qs)
    psi_ext = LinearMap._trusted(Matrix._trusted(F, [
        _canon(p, [int(i == j) - inv_qs * x * f for j, f in enumerate(f_star)])
        for i, x in enumerate(s)], inst.n))
    phi_s = _image_coords(inst, psi_ext)
    return phi_s, psi_ext, f_star
