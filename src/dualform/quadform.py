"""Quadratic forms on a subspace of an ambient space.

A form is stored by its coefficients relative to an ordered basis of its
domain: diag[i] is the value on the i-th basis vector and upper[(i, j)]
(i < j) is the polar-form value on the pair.  This representation stays
faithful in characteristic 2, where the Gram matrix alone loses the diagonal
values.
"""

from collections import namedtuple
from collections.abc import Mapping
from itertools import compress

from .errors import LengthMismatch, NotInSubspace, Singular, ValidationError
from .fields import Field
from .linalg import (Matrix, Subspace, _canon, _instance, _row_dots,
                     _sequence, kernel, rank, rref, vec_add)


class QuadraticForm:
    """Coefficient table of a quadratic form on an m-dimensional domain.

    A form is immutable, so mutating diag or upper after construction is
    unsupported.  Its matrix() and polar_gram() are computed once, on
    first use, and kept in _matrix and _gram; every caller shares them,
    so over the rationals their rows are cleared of denominators once.

    The constructor reads diag as one row, by ``field._row`` (see
    ``linalg.Matrix``): a canonical row is kept after one check, any
    other goes through ``field.scalar``.  The items of upper are read one
    by one, in order: each key must be an index pair (i, j), a tuple of
    two ints (a bool is not one) with 0 <= i < j < m, else
    ``LengthMismatch``, and each value goes through ``field.scalar``;
    zero values are dropped.  Checking all keys at once by builtins costs
    more than this loop at the sizes measured.
    """

    __slots__ = ("field", "m", "diag", "upper", "_matrix", "_gram")

    def __init__(self, field, diag, upper=None):
        self.field = _instance(field, Field)
        self.diag = field._row(_sequence(diag))
        self.m = m = len(self.diag)
        if not isinstance(upper, (Mapping, type(None))):
            raise ValidationError("upper must map index pairs to scalars")
        scalar, cleaned = field.scalar, {}
        for ij, v in (upper or {}).items():
            # an index pair is a tuple of two ints, and a bool is not one
            i, j = ij if type(ij) is tuple and len(ij) == 2 else (None, None)
            if not (type(i) is type(j) is int and 0 <= i < j < m):
                raise LengthMismatch(f"bad coefficient index {ij!r}")
            v = scalar(v)
            if v:
                cleaned[ij] = v
        self.upper = cleaned
        self._matrix = self._gram = None

    @classmethod
    def _trusted(cls, field, diag, upper):
        """Internal constructor for canonical diag and upper values, upper
        holding no zero."""
        self = object.__new__(cls)
        self.field, self.diag, self.m = field, tuple(diag), len(diag)
        self.upper = upper
        self._matrix = self._gram = None
        return self

    def matrix(self):
        """Upper-triangular A with Q(x) = x^t A x, diag on its diagonal,
        written from the stored coefficients into zero rows."""
        if self._matrix is None:
            F, m = self.field, self.m
            a = [[F.zero] * m for _ in range(m)]
            for i, x in enumerate(self.diag):
                a[i][i] = x
            for (i, j), v in self.upper.items():
                a[i][j] = v
            self._matrix = Matrix._trusted(F, a, m)
        return self._matrix

    def polar_gram(self):
        """Symmetric m x m matrix of the polar form B; alternating in
        characteristic 2."""
        if self._gram is None:
            F, m = self.field, self.m
            g = [[F.zero] * m for _ in range(m)]
            two_q = _canon(F.characteristic(), [2 * x for x in self.diag])
            for i in range(m):
                g[i][i] = two_q[i]
            for (i, j), v in self.upper.items():
                g[i][j] = v
                g[j][i] = v
            self._gram = Matrix._trusted(F, g, m)
        return self._gram

    def is_zero(self):
        return not self.upper and all(self.field.is_zero(x)
                                      for x in self.diag)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm)
                and self.field == other.field
                and self.diag == other.diag and self.upper == other.upper)

    def __repr__(self):
        return f"QuadraticForm(diag={list(self.diag)}, upper={self.upper})"


class Radical(namedtuple("Radical", "subspace in_domain")):
    """The radical as a Subspace in ambient coordinates and in coordinates
    relative to the s-basis."""

    __slots__ = ()

    @property
    def dim(self):
        return self.subspace.dim


class MetricSpace:
    """A subspace S of F^n together with a quadratic form on it.

    The form coefficients refer to s_basis, an ordered basis of S that need
    not coincide with the canonical RREF basis stored in the subspace.
    The basis is kept as one m x n Matrix, so over the rationals its rows
    are cleared of denominators once and every product with it (span
    rref, coordinates, change of basis, the radical) shares them.

    An instance is immutable, so mutating s_basis or form after
    construction is unsupported.  Four facts derived from it are read
    through _fact(slot, compute): _radical; _span_t, the transform T of
    the rref of the s_basis rows, whose row i holds the s_basis
    coordinates of canonical row i of S; _adapted, dual.adapted_basis;
    and _dual, the dualize result shared by dual's composite checks.  A
    slot holds its fact, or None, computed by compute(self), or a
    function computing it; either way _fact computes the fact once and
    keeps it.  No fact refers to its instance, so keeping one makes no
    reference cycle.  The constructor keeps T from the rref that builds the
    subspace.  A dual form built by dualize (_trusted) is given its
    radical and functions computing its T and adapted basis from
    dualize's own results.
    """

    __slots__ = ("field", "n", "subspace", "_basis", "form", "_span_t",
                 "_radical", "_adapted", "_dual")

    def __init__(self, field, n, s_basis, form):
        self.field = field
        self.n = n
        self._basis = Matrix(field, s_basis, cols=n)
        if self._basis.rows > n:
            raise LengthMismatch("s_basis is linearly dependent")
        R, self._span_t, pivots = rref(self._basis)
        self.subspace = Subspace._trusted(
            field, n, R.submatrix(range(len(pivots)), range(n)))
        if len(pivots) != self.m:
            raise LengthMismatch("s_basis is linearly dependent")
        if _instance(form, QuadraticForm).m != self.m:
            raise LengthMismatch("coefficient table size != dim S")
        if form.field != field:
            raise LengthMismatch("form defined over a different field")
        self.form = form
        self._radical = self._adapted = self._dual = None

    @classmethod
    def _trusted(cls, field, n, basis, form, subspace, span_t=None,
                 radical=None, adapted=None):
        """Internal constructor, unchecked: basis an m x n Matrix of
        canonical rows spanning S, and span_t, radical and adapted, if
        known, the facts the instance memoizes, span_t and adapted maybe
        as functions that compute them on first use."""
        self = object.__new__(cls)
        self.field, self.n, self._basis = field, n, basis
        self.subspace, self.form = subspace, form
        self._span_t, self._radical = span_t, radical
        self._adapted, self._dual = adapted, None
        return self

    @property
    def s_basis(self):
        """The basis vectors of S, as a tuple of rows."""
        return self._basis.data

    @property
    def m(self):
        return self._basis.rows

    def coords_of(self, vec):
        """Coordinates of an ambient vector over s_basis; NotInSubspace if
        the vector lies outside S."""
        return self.coords_matrix([vec]).column(0)

    def coords_matrix(self, vectors):
        """m x k matrix whose j-th column holds the s_basis coordinates of
        vectors[j]; NotInSubspace if one of them lies outside S.

        A vector v of S is sum_i v[p_i] R_i over the canonical rows R_i of
        S with pivots p_i, and R_i = sum_j T[i][j] s_basis_j for the span
        transform T, so v's coordinates are T^t (v[p_i])_i.  Recombining the
        canonical rows tests membership.
        """
        return self._coords(Matrix(self.field, vectors, cols=self.n))

    def _coords(self, V):
        """coords_matrix for the rows of the k x n Matrix V."""
        P = self.subspace._coordinates(V)
        if P is None:
            raise NotInSubspace("vector outside S")
        return P.mul(self._transform()).transpose()

    def _fact(self, slot, compute):
        """The fact held in slot, computed once (see the class docstring).
        Callers pass compute by its module-global name, so a rebinding of
        that name is seen."""
        value = getattr(self, slot)
        if value is None or callable(value):
            value = compute(self) if value is None else value()
            setattr(self, slot, value)
        return value

    def _transform(self):
        """The span transform T."""
        return self._fact("_span_t", _span_transform)

    def from_coords(self, coords):
        """Ambient vector with the given s_basis coordinates."""
        return Matrix(self.field, [coords], cols=self.m).mul(
            self._basis).row(0)

    def eval_q(self, coords):
        """Value of the form at the given s_basis coordinates, read like
        eval_b's through Matrix(field, [coords], cols=m): LengthMismatch
        unless there are m of them, each coerced through field.scalar."""
        return self._q_at(Matrix(self.field, [coords], cols=self.m).row(0))

    def _q_at(self, c):
        """eval_q at canonical coordinates c, by the coefficient loop."""
        acc = sum(g * c[i] * c[i] for i, g in enumerate(self.form.diag))
        acc += sum(g * c[i] * c[j] for (i, j), g in self.form.upper.items())
        return self.field.scalar(acc)

    def eval_b(self, x, y):
        """Polar form B(x, y) = Q(x + y) - Q(x) - Q(y) on coordinates."""
        F, q = self.field, self._q_at
        x, y = Matrix(F, [x, y], cols=self.m).data
        return F.scalar(q(vec_add(F, x, y)) - q(x) - q(y))

    def polar_gram(self):
        """The form's polar_gram, on s_basis."""
        return self.form.polar_gram()

    def radical(self):
        """Radical of the polar form, in ambient and in s_basis coordinates."""
        return self._fact("_radical", _radical_of)

    def radical_condition_holds(self):
        """Whether the form vanishes on the nonzero radical vectors.

        Vacuous in characteristic != 2.  Over GF(p) and the rationals the
        zero set of the form restricted to the radical is a subspace, so
        checking a basis R is complete: Q(r) = r^t A r for A = form.matrix().
        """
        if self.field.characteristic() != 2:
            return True
        R = self.radical().in_domain.basis
        return not any(_row_dots(R, R.mul(self.form.matrix())))

    def change_of_basis(self, T):
        """Re-express the form on the basis b'_j = sum_i T[i][j] b_i.

        With A = form.matrix(), Q(T y) = y^t M y for M = T^t A T: the new
        diagonal is M's diagonal and the new polar coefficients are
        M[i][j] + M[j][i], exactly so in every characteristic.
        """
        m = self.m
        if _instance(T, Matrix).rows != m or T.cols != m:
            raise LengthMismatch("change of basis must be m x m")
        if rank(T) != m:
            raise Singular("change of basis matrix is singular")
        return self._change_of_basis(T)

    def _change_of_basis(self, T):
        """change_of_basis without its shape and rank checks, for callers
        whose m x m T is invertible by construction."""
        return MetricSpace._trusted(self.field, self.n,
                                    T.transpose().mul(self._basis),
                                    self._form_in(T), self.subspace)

    def _form_in(self, T):
        """The form on the vectors b'_j = sum_i T[i][j] b_i of an m x t T:
        M = T^t A T for A = form.matrix() has the new diagonal, and
        M[i][j] + M[j][i] are the new polar coefficients."""
        F, t, p = self.field, T.cols, self.field.characteristic()
        M = T.transpose().mul(self.form.matrix()).mul(T).data
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        sums = _canon(p, [M[i][j] + M[j][i] for i, j in pairs])
        return QuadraticForm._trusted(F, [M[i][i] for i in range(t)],
                                      dict(compress(zip(pairs, sums), sums)))

    def __eq__(self, other):
        return (isinstance(other, MetricSpace)
                and self.field == other.field and self.n == other.n
                and self._basis == other._basis and self.form == other.form)

    def __repr__(self):
        return (f"MetricSpace(n={self.n}, m={self.m}, "
                f"s_basis={[list(b) for b in self.s_basis]}, "
                f"form={self.form!r})")


def _span_transform(inst):
    return rref(inst._basis)[1]


def _radical_of(inst):
    in_domain = kernel(inst.polar_gram())
    return Radical(Subspace._span(in_domain.basis.mul(inst._basis)), in_domain)
