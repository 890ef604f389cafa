"""Exact linear algebra over a Field: matrices, row reduction with recorded
transforms, kernels, inverses, adjugates, subspaces, annihilators and basis
extension.

Dual-side vectors are plain coordinate rows relative to the standard dual
basis; the pairing is <a*, x> = sum_i a_i x_i.  Subspace bases are always kept
in canonical reduced row-echelon form, so subspace equality is structural.
"""

from fractions import Fraction
from math import gcd

from .errors import LengthMismatch, NotNested, Singular


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        self.data = tuple(tuple(field.scalar(x) for x in row) for row in data)
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise LengthMismatch("ragged matrix rows")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero
        return cls(field, [[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, field, columns):
        return cls(field, columns).transpose()

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self):
        return Matrix(self.field,
                      [self.column(j) for j in range(self.cols)],
                      cols=self.rows)

    def submatrix(self, row_idx, col_idx):
        return Matrix(self.field,
                      [[self.data[i][j] for j in col_idx] for i in row_idx],
                      cols=len(col_idx))

    def mul(self, other):
        if self.cols != other.rows:
            raise LengthMismatch("matrix product shape mismatch")
        F = self.field
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = F.zero
                for k in range(self.cols):
                    acc = F.add(acc, F.mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(F, out)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise LengthMismatch("matrix-vector shape mismatch")
        F = self.field
        out = []
        for i in range(self.rows):
            acc = F.zero
            for k in range(self.cols):
                acc = F.add(acc, F.mul(self.data[i][k], v[k]))
            out.append(acc)
        return tuple(out)

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, x) for x in row] for row in self.data])

    def is_zero(self):
        zero = self.field.zero
        return all(x == zero for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.data]})"


def dot(F, a, x):
    if len(a) != len(x):
        raise LengthMismatch("pairing length mismatch")
    acc = F.zero
    for u, v in zip(a, x):
        acc = F.add(acc, F.mul(u, v))
    return acc


def vec_add(F, x, y):
    return tuple(F.add(u, v) for u, v in zip(x, y))

def vec_sub(F, x, y):
    return tuple(F.sub(u, v) for u, v in zip(x, y))

def vec_scale(F, c, x):
    return tuple(F.mul(c, u) for u in x)


def combine(F, coeffs, rows, n):
    """sum_i coeffs[i] * rows[i] in F^n."""
    out = [F.zero] * n
    for c, row in zip(coeffs, rows):
        if not F.is_zero(c):
            out = [F.add(o, F.mul(c, x)) for o, x in zip(out, row)]
    return tuple(out)


def rref(M):
    """Reduced row echelon form.

    Returns (R, T, pivots) with R = T * M, T invertible and pivots the list
    of pivot column indices in order.
    """
    F = M.field
    a = [list(row) for row in M.data]
    t = [list(row) for row in Matrix.identity(F, M.rows).data]
    pivots = []
    r = 0
    for c in range(M.cols):
        pr = None
        for i in range(r, M.rows):
            if not F.is_zero(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        t[r], t[pr] = t[pr], t[r]
        inv = F.inv(a[r][c])
        a[r] = [F.mul(inv, x) for x in a[r]]
        t[r] = [F.mul(inv, x) for x in t[r]]
        for i in range(M.rows):
            if i != r and not F.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
                t[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    return Matrix(F, a, cols=M.cols), Matrix(F, t, cols=M.rows), pivots


def rank(M):
    return len(rref(M)[2])


def _bareiss_int(a):
    # Fraction-free elimination; a is a mutable list-of-lists of ints.
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(M):
    if M.rows != M.cols:
        raise LengthMismatch("determinant of a non-square matrix")
    F = M.field
    n = M.rows
    if n == 0:
        return F.one
    if F.characteristic() == 0:
        # Clear denominators row-wise, then run Bareiss on integers.
        scaled = []
        denom = 1
        for row in M.data:
            lcm = 1
            for x in row:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
            scaled.append([int(x * lcm) for x in row])
            denom *= lcm
        return Fraction(_bareiss_int(scaled), denom)
    p = F.characteristic()
    a = [[int(x) for x in row] for row in M.data]
    d = 1
    for k in range(n):
        pr = None
        for i in range(k, n):
            if a[i][k] % p != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            d = -d
        d = d * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return d % p


def invert_matrix(M):
    if M.rows != M.cols:
        raise LengthMismatch("inverse of a non-square matrix")
    R, T, pivots = rref(M)
    if len(pivots) != M.rows:
        raise Singular("matrix is not invertible")
    return T


def _cofactor_adjugate(M):
    F = M.field
    n = M.rows
    if n == 0:
        return M
    if n == 1:
        return Matrix.identity(F, 1)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            idx_r = [r for r in range(n) if r != i]
            idx_c = [c for c in range(n) if c != j]
            minor = det(M.submatrix(idx_r, idx_c))
            if (i + j) % 2:
                minor = F.neg(minor)
            out[j][i] = minor
    return Matrix(F, out)


def adjugate(M):
    """Transpose of the cofactor matrix; adj(M) * M = det(M) * I, defined
    also for singular M."""
    if M.rows != M.cols:
        raise LengthMismatch("adjugate of a non-square matrix")
    if M.rows <= 6:
        return _cofactor_adjugate(M)
    d = det(M)
    if M.field.is_zero(d):
        return _cofactor_adjugate(M)
    return invert_matrix(M).scale(d)


class Subspace:
    """A subspace of F^n given by its canonical RREF basis rows."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # Matrix, rows in canonical RREF, full row rank
        zero = field.zero
        self.pivots = [next(j for j, x in enumerate(row) if x != zero)
                       for row in basis.data]

    @classmethod
    def from_rows(cls, field, ambient_dim, rows):
        if rows:
            M = Matrix(field, rows)
            if M.cols != ambient_dim:
                raise LengthMismatch("row length != ambient dimension")
            R, _, pivots = rref(M)
            kept = [R.row(i) for i in range(len(pivots))]
        else:
            kept = []
        basis = Matrix(field, kept) if kept else Matrix.zeros(field, 0,
                                                              ambient_dim)
        return cls(field, ambient_dim, basis)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_rows(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim,
                   Matrix.identity(field, ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def contains(self, vec):
        return self.coordinates(vec) is not None

    def coordinates(self, vec):
        """Coefficients of vec over the stored basis rows, or None.

        In canonical RREF the coefficient of a row is vec's entry at that
        row's pivot column; recombining the rows tests membership.
        """
        if len(vec) != self.ambient_dim:
            raise LengthMismatch("vector length != ambient dimension")
        F = self.field
        vec = tuple(F.scalar(x) for x in vec)
        coeffs = tuple(vec[p] for p in self.pivots)
        if combine(F, coeffs, self.basis.data, self.ambient_dim) != vec:
            return None
        return coeffs

    def is_subspace_of(self, other):
        return all(other.contains(self.basis.row(i))
                   for i in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return (f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, "
                f"basis={[list(r) for r in self.basis.data]})")


def _null_space(F, R, pivots, cols):
    """Solution space of R x = 0 for R in reduced row-echelon form."""
    free = [c for c in range(cols) if c not in pivots]
    rows = []
    for f in free:
        v = [F.zero] * cols
        v[f] = F.one
        for r, p in enumerate(pivots):
            v[p] = F.neg(R[r, f])
        rows.append(v)
    return Subspace.from_rows(F, cols, rows)


def kernel(M):
    """Solution space of M x = 0 as a Subspace of F^cols."""
    R, _, pivots = rref(M)
    return _null_space(M.field, R, pivots, M.cols)


def solve(M, b):
    """All solutions of M x = b as (particular, homogeneous) or None."""
    F = M.field
    if len(b) != M.rows:
        raise LengthMismatch("rhs length != number of rows")
    R, T, pivots = rref(M)
    c = T.mul_vec(b)
    if not all(F.is_zero(x) for x in c[len(pivots):]):
        return None
    x = [F.zero] * M.cols
    for r, p in enumerate(pivots):
        x[p] = c[r]
    return tuple(x), _null_space(F, R, pivots, M.cols)


def annihilator(T):
    """Linear forms (dual coordinate rows) vanishing on T."""
    return _null_space(T.field, T.basis, T.pivots, T.ambient_dim)


def _complete_basis(field, prefix_rows, candidates):
    """The independent prefix rows, then each candidate outside the span of
    the vectors before it: the pivot columns of one rref of the column
    matrix [prefix | candidates]."""
    cols = Matrix.from_columns(field, list(prefix_rows) + list(candidates))
    return [cols.column(j) for j in rref(cols)[2]]


def extend_basis(inner, outer):
    """Ordered basis of outer starting with inner's stored basis rows.

    Completion appends outer's canonical basis rows in order, keeping each
    one that increases the rank.
    """
    if inner.ambient_dim != outer.ambient_dim or inner.field != outer.field:
        raise NotNested("subspaces live in different ambient spaces")
    if not inner.is_subspace_of(outer):
        raise NotNested("inner is not contained in outer")
    out = _complete_basis(inner.field, inner.basis.data, outer.basis.data)
    assert len(out) == outer.dim
    return out


def complete_to_ambient(field, prefix_rows, ambient_dim):
    """Extend independent prefix rows to a basis of F^n with standard
    basis vectors in index order."""
    return _complete_basis(field, prefix_rows,
                           Matrix.identity(field, ambient_dim).data)
