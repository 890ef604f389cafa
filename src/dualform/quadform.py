"""Quadratic forms on a subspace of an ambient space.

A form is stored by its coefficients relative to an ordered basis of its
domain: diag[i] is the value on the i-th basis vector and upper[(i, j)]
(i < j) is the polar-form value on the pair.  This representation stays
faithful in characteristic 2, where the Gram matrix alone loses the diagonal
values.
"""

from .errors import LengthMismatch, NotInSubspace, Singular
from .linalg import Matrix, Subspace, combine, kernel, rank, rref


class QuadraticForm:
    """Coefficient table of a quadratic form on an m-dimensional domain."""

    __slots__ = ("field", "m", "diag", "upper")

    def __init__(self, field, diag, upper=None):
        self.field = field
        self.diag = tuple(field.scalar(x) for x in diag)
        self.m = len(self.diag)
        cleaned = {}
        for (i, j), v in (upper or {}).items():
            if not (0 <= i < j < self.m):
                raise LengthMismatch(f"bad coefficient index ({i}, {j})")
            v = field.scalar(v)
            if not field.is_zero(v):
                cleaned[(i, j)] = v
        self.upper = cleaned

    def coefficient(self, i, j):
        """Polar coefficient B(b_i, b_j) for i != j, stored or zero."""
        if i > j:
            i, j = j, i
        return self.upper.get((i, j), self.field.zero)

    def is_zero(self):
        return not self.upper and all(self.field.is_zero(x)
                                      for x in self.diag)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm)
                and self.field == other.field
                and self.diag == other.diag and self.upper == other.upper)

    def __repr__(self):
        return f"QuadraticForm(diag={list(self.diag)}, upper={self.upper})"


class Radical:
    __slots__ = ("subspace", "in_domain", "dim")

    def __init__(self, subspace, in_domain):
        self.subspace = subspace      # ambient coordinates
        self.in_domain = in_domain    # coordinates relative to the s-basis
        self.dim = subspace.dim


class MetricSpace:
    """A subspace S of F^n together with a quadratic form on it.

    The form coefficients refer to s_basis, an ordered basis of S that need
    not coincide with the canonical RREF basis stored in the subspace.

    An instance is immutable: its radical and its coordinate solver are
    each computed once, on first use, so mutating s_basis or form after
    construction is unsupported.
    """

    __slots__ = ("field", "n", "subspace", "s_basis", "form", "_solver",
                 "_radical")

    def __init__(self, field, n, s_basis, form, subspace=None):
        self.field = field
        self.n = n
        self.s_basis = tuple(tuple(field.scalar(x) for x in row)
                             for row in s_basis)
        for row in self.s_basis:
            if len(row) != n:
                raise LengthMismatch("basis vector length != n")
        if subspace is None:
            subspace = Subspace.from_rows(field, n, list(self.s_basis))
        self.subspace = subspace
        if subspace.dim != len(self.s_basis):
            raise LengthMismatch("s_basis is linearly dependent")
        if form.m != len(self.s_basis):
            raise LengthMismatch("coefficient table size != dim S")
        if form.field != field:
            raise LengthMismatch("form defined over a different field")
        self.form = form
        self._solver = None
        self._radical = None

    @property
    def m(self):
        return len(self.s_basis)

    def coords_of(self, vec):
        """Coordinates of an ambient vector over s_basis; NotInSubspace if
        the vector lies outside S."""
        return self.coords_matrix([vec]).column(0)

    def coords_matrix(self, vectors):
        """m x k matrix whose j-th column holds the s_basis coordinates of
        vectors[j]; NotInSubspace if one of them lies outside S.

        With T from one rref of the s_basis columns, T * v holds v's
        coordinates in its first m rows and zeros below exactly when v lies
        in S.
        """
        F, m, n = self.field, self.m, self.n
        if any(len(v) != n for v in vectors):
            raise LengthMismatch("vector length != n")
        if self._solver is None:
            self._solver = rref(Matrix(F, self.s_basis, cols=n).transpose())[1]
        C = self._solver.mul(Matrix(F, vectors, cols=n).transpose())
        if not all(F.is_zero(x) for row in C.data[m:] for x in row):
            raise NotInSubspace("vector outside S")
        return C.submatrix(range(m), range(len(vectors)))

    def from_coords(self, coords):
        """Ambient vector with the given s_basis coordinates."""
        if len(coords) != self.m:
            raise LengthMismatch("coordinate length != m")
        F = self.field
        return combine(F, [F.scalar(c) for c in coords], self.s_basis, self.n)

    def eval_q(self, coords):
        """Value of the form at the given s_basis coordinates."""
        F = self.field
        if len(coords) != self.m:
            raise LengthMismatch("coordinate length != m")
        coords = [F.scalar(x) for x in coords]
        acc = F.zero
        for i, g in enumerate(self.form.diag):
            acc = F.add(acc, F.mul(g, F.mul(coords[i], coords[i])))
        for (i, j), g in self.form.upper.items():
            acc = F.add(acc, F.mul(g, F.mul(coords[i], coords[j])))
        return acc

    def eval_b(self, x, y):
        """Polar form B(x, y) = Q(x + y) - Q(x) - Q(y) on coordinates."""
        F = self.field
        s = tuple(F.add(F.scalar(u), F.scalar(v)) for u, v in zip(x, y))
        if len(s) != self.m:
            raise LengthMismatch("coordinate length != m")
        return F.sub(F.sub(self.eval_q(s), self.eval_q(x)), self.eval_q(y))

    def polar_gram(self):
        """Symmetric m x m matrix of B on s_basis; alternating in
        characteristic 2."""
        F = self.field
        m = self.m
        g = [[F.zero] * m for _ in range(m)]
        two = F.add(F.one, F.one)
        for i in range(m):
            g[i][i] = F.mul(two, self.form.diag[i])
        for (i, j), v in self.form.upper.items():
            g[i][j] = v
            g[j][i] = v
        return Matrix(F, g, cols=m)

    def radical(self):
        """Radical of the polar form, in ambient and in s_basis coordinates."""
        if self._radical is None:
            in_domain = kernel(self.polar_gram())
            rows = [self.from_coords(r) for r in in_domain.basis.data]
            ambient = Subspace.from_rows(self.field, self.n, rows)
            self._radical = Radical(ambient, in_domain)
        return self._radical

    def radical_condition_holds(self):
        """Whether the form vanishes on the nonzero radical vectors.

        Vacuous in characteristic != 2.  Over GF(p) and the rationals the
        zero set of the form restricted to the radical is a subspace, so
        checking a basis is complete.
        """
        if self.field.characteristic() != 2:
            return True
        rad = self.radical()
        for i in range(rad.in_domain.dim):
            if not self.field.is_zero(self.eval_q(rad.in_domain.basis.row(i))):
                return False
        return True

    def change_of_basis(self, T):
        """Re-express the form on the basis b'_j = sum_i T[i][j] b_i.

        The new polar coefficients are the entries of T^t G T, and the new
        diagonal values are Q at the columns of T.
        """
        F, m = self.field, self.m
        if T.rows != m or T.cols != m:
            raise LengthMismatch("change of basis must be m x m")
        if rank(T) != m:
            raise Singular("change of basis matrix is singular")
        Tt = T.transpose()
        gram = Tt.mul(self.polar_gram()).mul(T)
        new_basis = Tt.mul(Matrix(F, self.s_basis, cols=self.n)).data
        diag = [self.eval_q(T.column(j)) for j in range(m)]
        upper = {(i, j): gram[i, j]
                 for i in range(m) for j in range(i + 1, m)}
        return MetricSpace(F, self.n, new_basis,
                           QuadraticForm(F, diag, upper),
                           subspace=self.subspace)

    def __eq__(self, other):
        return (isinstance(other, MetricSpace)
                and self.field == other.field and self.n == other.n
                and self.s_basis == other.s_basis and self.form == other.form)

    def __repr__(self):
        return (f"MetricSpace(n={self.n}, m={self.m}, "
                f"s_basis={[list(b) for b in self.s_basis]}, "
                f"form={self.form!r})")
