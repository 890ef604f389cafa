"""Exact linear algebra over a Field: matrices, row reduction with recorded
transforms, kernels, inverses, adjugates, subspaces, annihilators and basis
extension.

Dual-side vectors are plain coordinate rows relative to the standard dual
basis; the pairing is <a*, x> = sum_i a_i x_i.  Subspace bases are always kept
in canonical reduced row-echelon form, so subspace equality is structural.
"""

import operator
import sys
from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm, prod

from .errors import LengthMismatch, NotNested, Singular, ValidationError
from .fields import Field


def _sequence(x):
    """x, if it is a sequence other than text (a str, bytes or
    bytearray); ValidationError for anything else, a mapping or a set
    among them."""
    if type(x) is not list and type(x) is not tuple and (
            isinstance(x, (str, bytes, bytearray))
            or not isinstance(x, Sequence)):
        raise ValidationError(f"expected a sequence, got {type(x).__name__}")
    return x


def _instance(x, cls):
    """x, if it is an instance of cls; ValidationError for anything else,
    a Matrix or a list in place of a LinearMap among them."""
    if not isinstance(x, cls):
        raise ValidationError(f"{type(x).__name__} is not a {cls.__name__}")
    return x


def _dimension(n):
    """n, if it is an int >= 0 other than a bool; ValidationError for
    anything else."""
    if type(n) is not int or n < 0:
        raise ValidationError(f"dimension {n!r} is not an int >= 0")
    return n


def _canon(p, xs):
    """The entries of xs as a tuple, reduced into [0, p) over GF(p); over
    the rationals (p = 0) Fraction arithmetic keeps them canonical."""
    return tuple([x % p for x in xs]) if p else tuple(xs)


# Packed GF(p) rows: a row of non-negative ints is one int whose slot j,
# nb bytes wide, holds entry j at bit 8 * nb * j.  Slots are 1, 2, 4, 8 or
# 16 bytes; a 16-byte slot is two 8-byte array items, low half first, and
# is only ever packed from entries below 2^64.  _SLOTS[b] is (nb, code)
# for the narrowest slot of at least b bits, with code the array type
# code of its items; 1-byte slots convert through bytes, the cheapest way,
# and are reduced (and scaled) by bytes.translate with a _scaled table.
# A 16-byte slot is read folded.  Its value v <= p + k (p - 1)^2 < 2^94,
# for p < 2^31 and k < 2^32 rows or columns, is lo + hi 2^63 with
# hi < 2^31; with M the low 63 bits of every slot and r = 2^63 mod p,
# x = (x & M) + ((x >> 63) & M) r leaves lo + hi r < 2^64, congruent to v
# mod p, in the low 8 bytes of each slot.
_CODE = {array(c).itemsize: c for c in "BHILQ"}
_SLOTS = [next((nb, _CODE[min(nb, 8)]) for nb in (1, 2, 4, 8, 16)
               if 8 * nb >= b) for b in range(129)]
_SWAP = sys.byteorder == "big"  # array items are native, slots little-endian


def _slot(bound):
    """(nb, code) of the narrowest slot holding every int in [0, bound),
    for 1 <= bound <= 2^128."""
    return _SLOTS[(bound - 1).bit_length()]


def _pack(row, nb, code):
    """The entries of row, each below 2^min(8 nb, 64), as one packed int;
    a row of width 1 takes the general path, which packs it to its own
    entry."""
    if nb == 1:
        return int.from_bytes(bytes(row), "little")
    if nb == 16:
        a = array(code, bytes(16 * len(row)))
        a[::2] = array(code, row)
    else:
        a = array(code, row)
    if _SWAP:
        a.byteswap()
    return int.from_bytes(a, "little")


@cache
def _scaled(p, c):
    """The bytes.translate table of b -> c b mod p for b < 256, which reads
    1-byte GF(p) slots reduced and multiplied by c in one call; built once
    per process for each (p, c), p < 256 unless c = 1."""
    return bytes([c * b % p for b in range(256)])


def _fold(nb, count, p):
    """(M, r) to read count 16-byte slots over GF(p), else None."""
    if nb == 16:
        low = b"\xff" * 7 + b"\x7f" + bytes(8)
        return int.from_bytes(low * count, "little"), (1 << 63) % p


def _slots(x, count, nb, code, fold=None):
    """The count slot values of the packed int x, as an iterable of ints;
    16-byte ones up to multiples of p, folded by _fold(16, count, p)."""
    if fold:
        mask, r = fold
        x = (x & mask) + ((x >> 63) & mask) * r
    a = array(code, x.to_bytes(count * nb, "little"))
    if _SWAP:
        a.byteswap()
    return a[::2] if nb == 16 else a


def _int_rows(M):
    """The rows of the rational matrix M as (ints, dens): row i is
    ints[i] / dens[i], dens[i] the lcm of the denominators of its
    entries, so the form is canonical."""
    ints, dens = [], []
    for row in M.data:
        pairs = [x.as_integer_ratio() for x in row]
        dens.append(lcm(*[e for _, e in pairs]))
        ints.append([n * (dens[-1] // e) for n, e in pairs])
    return ints, dens


def _reduced(ints, dens):
    """Cleared rows made canonical in place: each int row and its positive
    denominator divided by their gcd."""
    for i, (row, d) in enumerate(zip(ints, dens)):
        g = gcd(d, *row)
        if g != 1:
            ints[i] = [x // g for x in row]
            dens[i] = d // g
    return ints, dens


class Matrix:
    """Dense matrix over a Field; rows are tuples of canonical scalars.

    ``Matrix(field, data, cols)`` is the public constructor and the one
    check of outside vectors: it raises ``ValidationError`` unless field
    is a Field, data and every row are sequences other than text (see
    _sequence) and a given ``cols`` is an int >= 0 (not a bool), and
    ``LengthMismatch`` unless every row has ``cols`` entries (by default,
    as many as the first row), before it coerces any entry.  It reads
    each row whole, by ``field._row``: a row of canonical scalars (all
    ``Fraction`` over the rationals, all ``int`` in [0, p) over GF(p),
    read by a type set and min and max) is kept as it is, and any other
    row goes through ``field.scalar`` entry by entry, with scalar's
    errors in their order; ``mul`` raises ``LengthMismatch`` for a
    product of matrices over different fields.  ``ValidationError``
    refuses a value of the wrong type where it enters: an operand of
    ``mul`` or an argument of the module's public functions that is not
    a Matrix (a Subspace for ``annihilator``), and a field or a size of
    ``identity`` or ``zeros`` that is not a Field or an int >= 0.  The
    public methods that take outside scalars read them the same way:
    ``mul_vec``, and so ``solve``'s right-hand side and
    ``LinearMap.apply``, through ``Matrix(field, [v], cols)``, and
    ``scale`` its factor through ``field.scalar``.  ``_mul_vec`` is
    ``mul_vec`` for a vector that is already canonical.
    ``Matrix._trusted`` is the internal constructor and checks nothing:
    its caller guarantees rows of length ``cols`` whose entries are
    already canonical (``Fraction`` over the rationals, ``int`` in
    [0, p) over GF(p)), as every result computed here from canonical
    operands is.  ``Matrix._cleared`` builds a computed matrix from int
    rows over their denominators, over either kind of field.

    Over the rationals a matrix may also hold its rows cleared of
    denominators, ``_q = (ints, dens)``: row i is ints[i] / dens[i], a list
    of ints over one positive int, divided by their gcd so the form is
    canonical.  Products, transposes, submatrices and the echelon loop
    read and return that form; a matrix built from ``Fraction`` rows
    clears them once, on first use, and keeps the result, and a matrix
    computed here builds its ``Fraction`` rows ``data`` only when an entry
    is first read.  ``_ints()`` reads the rows as (ints, dens) over either
    field: over the rationals the cleared rows, over GF(p) ``data`` over
    denominators 1, which it stores nowhere, so a GF(p) matrix keeps
    ``_q`` None and its transposes and submatrices read ``data``.
    Equality and hash depend on the shape and entries.  With
    e_k the denominators of B's cleared rows and L their lcm, row i of A B
    is the int dot products of A's row i, entry k times L / e_k, with the
    columns of B's int rows, over dens[i] * L.

    Over GF(p) the product A B packs each row of B (k x m) into one int
    with m slots, so row i of A B is sum_j A[i][j] * packed_j, one big-int
    multiply-add per entry of A, unpacked once.  A slot sums k products of
    residues, so it stays at most k (p - 1)^2 and never carries into the
    next: the slot is the narrowest of 1, 2, 4, 8 or 16 bytes that holds
    that bound.  A row of 1-byte slots is reduced mod p as it is unpacked,
    by one bytes.translate (see _scaled); wider slots are reduced entry by
    entry.
    """

    __slots__ = ("field", "rows", "cols", "data", "_q")

    def __init__(self, field, data, cols=None):
        _instance(field, Field)
        data = tuple(_sequence(data))
        if cols is None:
            cols = len(_sequence(data[0])) if data else 0
        else:
            _dimension(cols)
        for row in data:
            if type(row) is not list and type(row) is not tuple:
                _sequence(row)
            if len(row) != cols:
                raise LengthMismatch(f"matrix row length != {cols}")
        self.field = field
        self.data = tuple(map(field._row, data))
        self.rows = len(self.data)
        self.cols = cols
        self._q = None

    @classmethod
    def _trusted(cls, field, rows, cols):
        self = object.__new__(cls)
        self.field = field
        self.data = tuple(map(tuple, rows))
        self.rows = len(self.data)
        self.cols = cols
        self._q = None
        return self

    @classmethod
    def _cleared(cls, field, ints, dens, cols):
        """Internal constructor of a computed matrix from int rows over
        their denominators: over the rationals canonical cleared rows (see
        the class docstring), whose data is built on first read; over
        GF(p) rows of residues in [0, p), whose denominators are ignored."""
        if field.characteristic():
            return cls._trusted(field, ints, cols)
        self = object.__new__(cls)
        self.field = field
        self.rows = len(ints)
        self.cols = cols
        self._q = (ints, dens)
        return self

    def __getattr__(self, name):
        # Only a rational matrix held as cleared rows has no data yet.
        if name != "data":
            raise AttributeError(name)
        ints, dens = self._q
        zero = self.field.zero
        self.data = data = tuple([
            tuple([Fraction(x, d) if x else zero for x in row])
            for row, d in zip(ints, dens)])
        return data

    def _ints(self):
        """The rows as (ints, dens), row i being ints[i] / dens[i]: over
        the rationals the cleared rows, kept in _q; over GF(p) the
        residue rows data over denominators 1, stored nowhere."""
        q = self._q
        if q is None:
            if self.field.characteristic():
                return self.data, [1] * self.rows
            q = self._q = _int_rows(self)
        return q

    @classmethod
    def _units(cls, field, idx, n):
        """The unit vectors e_i of F^n for i in idx, as rows."""
        rows = []
        for i in idx:
            row = [0] * n
            row[i] = 1
            rows.append(row)
        return cls._cleared(field, rows, [1] * len(rows), n)

    @classmethod
    def identity(cls, field, n):
        return cls._units(_instance(field, Field), range(_dimension(n)), n)

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = _instance(field, Field).zero
        return cls._trusted(field, [[zero] * _dimension(cols)]
                            * _dimension(rows), cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self):
        F, q = self.field, self._q
        if q is None:
            cols = zip(*self.data) if self.data else [()] * self.cols
            return Matrix._trusted(F, cols, self.rows)
        ints, dens = q
        L = lcm(*dens)
        ints = [row if d == L else [x * (L // d) for x in row]
                for row, d in zip(ints, dens)]
        cols = list(map(list, zip(*ints))) if ints else \
            [[] for _ in range(self.cols)]
        return Matrix._cleared(F, *_reduced(cols, [L] * self.cols),
                               self.rows)

    def submatrix(self, row_idx, col_idx):
        q = self._q
        rows = self.data if q is None else q[0]
        if type(col_idx) is range and col_idx.step == 1:
            lo, hi = col_idx.start, col_idx.stop
            picked = [rows[i][lo:hi] for i in row_idx]
        else:
            picked = [[rows[i][j] for j in col_idx] for i in row_idx]
        if q is None:
            return Matrix._trusted(self.field, picked, len(col_idx))
        return Matrix._cleared(self.field, *_reduced(
            picked, [q[1][i] for i in row_idx]), len(col_idx))

    def _vstack(self, other):
        """The rows of self followed by the rows of other."""
        F = self.field
        if F.characteristic():
            return Matrix._trusted(F, self.data + other.data, self.cols)
        (a, da), (b, db) = self._ints(), other._ints()
        return Matrix._cleared(F, a + b, da + db, self.cols)

    def mul(self, other):
        if self.cols != _instance(other, Matrix).rows:
            raise LengthMismatch("matrix product shape mismatch")
        F, m = self.field, other.cols
        if F is not other.field and F != other.field:
            raise LengthMismatch("matrix product over different fields")
        p = F.characteristic()
        if not p:
            (a, da), (b, db) = self._ints(), other._ints()
            L = lcm(*db)
            if any(e != L for e in db):
                scale = [L // e for e in db]
                a = [list(map(operator.mul, row, scale)) for row in a]
            cols = list(zip(*b)) if b else [()] * m
            return Matrix._cleared(F, *_reduced(
                [[sum(map(operator.mul, row, col)) for col in cols]
                 for row in a], [d * L for d in da]), m)
        nb, code = _slot(self.cols * (p - 1) ** 2 + 1)
        if nb == 1:
            table = _scaled(p, 1)
            packed = [int.from_bytes(bytes(row), "little")
                      for row in other.data]
            return Matrix._trusted(F, [
                sum(map(operator.mul, row, packed)).to_bytes(
                    m, "little").translate(table) for row in self.data], m)
        fold = _fold(nb, m, p)
        packed = [_pack(row, nb, code) for row in other.data]
        return Matrix._trusted(F, [
            [x % p for x in _slots(sum(map(operator.mul, row, packed)), m,
                                   nb, code, fold)]
            for row in self.data], m)

    def mul_vec(self, v):
        """M v for an outside vector v, read by Matrix(field, [v], cols):
        LengthMismatch unless it has cols entries, each coerced through
        field.scalar."""
        return self._mul_vec(Matrix(self.field, [v], cols=self.cols).row(0))

    def _mul_vec(self, v):
        """mul_vec for a vector v of cols canonical scalars."""
        column = Matrix._trusted(self.field, [[x] for x in v], 1)
        return self.mul(column).column(0)

    def scale(self, c):
        """c M, for c coerced through field.scalar."""
        F = self.field
        p, c = F.characteristic(), F.scalar(c)
        return Matrix._trusted(F, [_canon(p, [c * x for x in row])
                                   for row in self.data], self.cols)

    def is_zero(self):
        return not any(map(any, self.data if self._q is None
                           else self._q[0]))

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols):
            return False
        if self.field.characteristic():
            return self.data == other.data
        return self._ints() == other._ints()

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.data]})"


def dot(F, a, x):
    if len(a) != len(x):
        raise LengthMismatch("pairing length mismatch")
    p = F.characteristic()
    s = sum(map(operator.mul, a, x), F.zero)
    return s % p if p else s


def _row_dots(A, B):
    """The diagonal of A B^t without the product."""
    p = A.field.characteristic()
    (a, da), (b, db) = A._ints(), B._ints()
    dots = [sum(map(operator.mul, x, y)) for x, y in zip(a, b)]
    if p:
        return [s % p for s in dots]
    return [Fraction(s, u * v) for s, u, v in zip(dots, da, db)]


def vec_add(F, x, y):
    return _canon(F.characteristic(), [u + v for u, v in zip(x, y)])

def vec_scale(F, c, x):
    return _canon(F.characteristic(), [c * u for u in x])


def _echelon(M, transform):
    """The one elimination loop: rref and adjugate, and without transform
    every rank, det, kernel, span and completion question.  Returns
    (W, pivots, d), W a Matrix.  With transform d is delta = 1/det(T) at
    every rank; without it d is det(M) if M is square and of full rank,
    else zero.  At full rank T M = I, so the two agree there.

    The pivot of each column is its first nonzero entry at or below the
    current row.  With transform each working row holds a row of M
    followed by the same row of T, and W holds all M.rows rows [R | T] of
    rref; without it no T is built and W holds the len(pivots) nonzero
    rows of R, the same as rref's.

    Over GF(p) each working row is one packed int (see _pack): entry j in
    slot j, T's entry j in slot k + j, so T's identity row i is the bit
    1 << w (k + i) for slots of w bits.  Only the pivot row is unpacked;
    it is reduced, multiplied by the inverse of its pivot and packed
    again, so its entries lie in [0, p): 1-byte slots by one
    bytes.translate of the row's bytes (see _scaled), wider ones entry by
    entry.  Every other row i, with f its
    slot c read by shift and mask and reduced mod p, takes
    row_i += (p - f) * pivot, one multiply-add that turns slot c into a
    multiple of p and adds at most (p - 1)^2 to any slot.  A row gets one
    such addition per pivot, at most min(n, k), after it starts below p or
    is repacked as a pivot, so every slot stays below
    p + min(n, k) (p - 1)^2; the slot is the narrowest that holds this
    bound, no slot carries into the next, and the rows are reduced mod p
    once, as they are unpacked at the end.  T is the product of the row
    swaps, the scalings by the inverses of the pivots and the row
    additions, so delta is the sign of the row swaps times the product of
    the pivots, at every rank.

    Over the rationals the rows are cleared of denominators, with T
    starting as the diagonal D of them, so the working rows start as
    [D M | D], and reduced by fraction-free Gauss-Jordan (Bareiss): with
    pv the pivot and prev the one before it (1 at first), every other row
    becomes (pv * row_i - f * row_r) / prev, f its entry in the pivot
    column (for f = 0 a rescaling).  By Sylvester's identity the division
    is exact: after s pivots every entry is a minor of the starting rows,
    of order s + 1 in a non-pivot row (on the pivot rows and its own, the
    pivot columns and its own) and s in a pivot row (its pivot column
    replaced by its own).  So every pivot row holds prev in its pivot
    column.  In the end a pivot row is divided by its pivot and any other
    row by its entry v_i in its own column own[i] of T, nonzero because no
    pivot row is nonzero there: each row is multiplied by the sign of its
    divisor, read off the int, and the divisor's size becomes the row's
    denominator, so no Field.inv is called and W holds the cleared rows.
    The right half starts with determinant prod(dens); each of the r
    pivots multiplies the n - 1 other rows by pv / prev, which telescopes
    to prev^(n-1), and the swaps give sign; the final divisions take
    prev^r and prod(v_i).  So
    delta = sign * prev^(r-n+1) * prod(v_i) / prod(dens), which at full
    rank, with no v_i, is det(M) = sign * prev / prod(dens).
    """
    F = M.field
    p, n, k = F.characteristic(), M.rows, M.cols
    pivots = []
    r, sign = 0, 1
    width = k + n if transform else k
    if p:
        nb, code = _slot(p + min(n, k) * (p - 1) ** 2)
        w = 8 * nb
        mask = (1 << w) - 1
        fold = _fold(nb, width, p)
        d = 1
        a = [_pack(row, nb, code) for row in M.data]
        if transform:
            a = [x + (1 << w * (k + i)) for i, x in enumerate(a)]
        for c in range(k):
            shift = w * c
            col = [((x >> shift) & mask) % p for x in a]
            for pr in range(r, n):
                if col[pr]:
                    break
            else:
                continue
            if pr != r:
                a[r], a[pr] = a[pr], a[r]
                sign = -sign
            d = d * col[pr] % p
            inv = F.inv(col[pr])
            col[pr], col[r] = col[r], 0
            if nb == 1:
                a[r] = pivot = int.from_bytes(a[r].to_bytes(
                    width, "little").translate(_scaled(p, inv)), "little")
            else:
                a[r] = pivot = _pack([inv * x % p for x in
                                      _slots(a[r], width, nb, code, fold)],
                                     nb, code)
            for i, f in enumerate(col):
                if f:
                    a[i] += (p - f) * pivot
            pivots.append(c)
            r += 1
            if r == n:
                break
        if not transform:
            del a[r:]
        if nb == 1:
            table = _scaled(p, 1)
            rows = [row.to_bytes(width, "little").translate(table)
                    for row in a]
        else:
            rows = [[x % p for x in _slots(row, width, nb, code, fold)]
                    for row in a]
        return (Matrix._trusted(F, rows, width), pivots,
                sign * d % p if transform or r == n == k else F.zero)
    rows, dens = M._ints()
    if transform:
        a = [row + [d if i == j else 0 for j in range(n)]
             for i, (row, d) in enumerate(zip(rows, dens))]
    else:
        a = list(rows)
    own = list(range(n))
    prev = 1
    for c in range(k):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            own[r], own[pr] = own[pr], own[r]
            sign = -sign
        pivot = a[r]
        pv = pivot[c]
        for i in range(n):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], pivot)]
            elif pv != prev:
                a[i] = [pv * x // prev for x in a[i]]
        prev = pv
        pivots.append(c)
        r += 1
        if r == n:
            break
    if not transform:
        del a[r:]
    v_prod = prod(a[i][k + own[i]] for i in range(r, len(a)))
    out = []
    for i, row in enumerate(a):
        v = row[pivots[i] if i < r else k + own[i]]
        num, d = (1, v) if v > 0 else (-1, -v)
        g = gcd(d, *row)
        if num != 1 or g != 1:
            a[i] = [num * x // g for x in row]
        out.append(d // g)
    e = r - n + 1
    return Matrix._cleared(F, a, out, width), pivots, Fraction(
        sign * v_prod * prev ** max(e, 0), prod(dens) * prev ** max(-e, 0)
    ) if transform or r == n == k else F.zero


def _rref(M):
    """rref's (R, T, pivots) followed by delta = 1/det(T), which is det(M)
    at full rank (see _echelon)."""
    W, pivots, delta = _echelon(M, True)
    rows = range(M.rows)
    return (W.submatrix(rows, range(M.cols)),
            W.submatrix(rows, range(M.cols, W.cols)), pivots, delta)


def rref(M):
    """Reduced row echelon form.

    Returns (R, T, pivots) with R = T * M, T invertible and pivots the list
    of pivot column indices in order, from one run of the echelon loop
    with its transform; rows of R below the rank are zero.
    """
    return _rref(_instance(M, Matrix))[:3]


def rank(M):
    return len(_echelon(_instance(M, Matrix), False)[1])


def det(M):
    """Determinant, read off one run of the echelon loop without its
    transform: over GF(p) the signed product of the pivots, over the
    rationals the last Bareiss pivot of the rows cleared of denominators,
    divided by the product of their denominators."""
    if _instance(M, Matrix).rows != M.cols:
        raise LengthMismatch("determinant of a non-square matrix")
    return _echelon(M, False)[2]


def invert_matrix(M):
    if _instance(M, Matrix).rows != M.cols:
        raise LengthMismatch("inverse of a non-square matrix")
    R, T, pivots = rref(M)
    if len(pivots) != M.rows:
        raise Singular("matrix is not invertible")
    return T


def adjugate(M):
    """Transpose of the cofactor matrix; adj(M) * M = det(M) * I, defined
    also for singular M.

    One run of the echelon loop gives R = T M, pivots and
    delta = 1/det(T), and adj(M) = delta * adj(R) * T at every rank:
    adj(T M) = adj(M) adj(T) and adj(T) = det(T) T^-1, so
    adj(M) = adj(R) T / det(T).  The rank r decides adj(R).  At r = n,
    R = I and the adjugate is delta * T.  Below n - 1, R has two zero rows,
    so every (n-1)-minor of R has one and the adjugate is zero.  At
    r = n - 1 only the minors without R's zero last row can be nonzero, so
    adj(R) is zero outside its last column; R adj(R) = det(R) I = 0 puts
    that column in the null space of R, spanned by the null vector x at
    R's free column j, and its entry j is (-1)^(j+n-1) times the minor of
    R without its last row and column j, the identity.  So the column is
    (-1)^(j+n-1) x and adj(M) = (-1)^(j+n-1) * delta * x * y^t, y the last
    row of T.
    """
    if _instance(M, Matrix).rows != M.cols:
        raise LengthMismatch("adjugate of a non-square matrix")
    F, n = M.field, M.rows
    R, T, pivots, delta = _rref(M)
    if len(pivots) == n:
        return T.scale(delta)
    if len(pivots) < n - 1:
        return Matrix.zeros(F, n, n)
    j = next(c for c in range(n) if c not in pivots)
    c = (-1) ** (j + n - 1) * delta
    return Matrix._trusted(F, [vec_scale(F, c * u, T.row(n - 1))
                               for u in _null_rows(R, pivots, [j]).row(0)], n)


class Subspace:
    """A subspace of F^n given by its canonical RREF basis rows.

    ``Subspace(field, ambient_dim, basis)`` raises ``ValidationError``
    unless ambient_dim is an int >= 0 and basis is a Matrix over field
    with ambient_dim columns whose rows are already in canonical RREF, of
    full row rank: equal to its own echelon.  ``from_rows`` spans any
    rows.  ``Subspace._trusted`` is the internal constructor and checks
    nothing: it reads each pivot as the first index of the row's leading
    value, 1 over GF(p) and the row's denominator in its cleared form
    (``_ints()``) over the rationals."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis):
        if not (isinstance(basis, Matrix) and basis.field == field
                and basis.cols == _dimension(ambient_dim)
                and basis.rows <= ambient_dim
                and _echelon(basis, False)[0] == basis):
            raise ValidationError("a subspace basis is a Matrix of "
                                  "ambient_dim columns over the field, in "
                                  "canonical RREF of full row rank")
        self.field, self.ambient_dim, self.basis = field, ambient_dim, basis
        self.pivots = list(map(operator.indexOf, *basis._ints()))

    @classmethod
    def _trusted(cls, field, ambient_dim, basis):
        self = object.__new__(cls)
        self.field, self.ambient_dim, self.basis = field, ambient_dim, basis
        self.pivots = list(map(operator.indexOf, *basis._ints()))
        return self

    @classmethod
    def from_rows(cls, field, ambient_dim, rows):
        """Span of the outside rows, read by Matrix(field, rows,
        ambient_dim); ValidationError unless ambient_dim is an int >= 0."""
        return cls._span(Matrix(field, rows, cols=_dimension(ambient_dim)))

    @classmethod
    def _span(cls, M):
        """Subspace spanned by the rows of M, which are canonical."""
        return cls._trusted(M.field, M.cols,
                            _echelon(M, False)[0] if M.rows else M)

    @property
    def dim(self):
        return self.basis.rows

    def coordinates(self, vec):
        """Coefficients of vec over the stored basis rows, or None."""
        P = self._coordinates(Matrix(self.field, [vec],
                                     cols=self.ambient_dim))
        return None if P is None else P.row(0)

    def _coordinates(self, V):
        """coordinates for the rows of the matrix V, by one product: in
        canonical RREF the coefficient of a basis row is V's entry at that
        row's pivot column, so the matrix of V's entries at the pivots, or
        None if it does not recombine the basis rows into V."""
        P = V.submatrix(range(V.rows), self.pivots)
        return P if P.mul(self.basis) == V else None

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


def _null_rows(R, pivots, free):
    """Solutions x of R x = 0, R in reduced row-echelon form, as rows: row
    i is 1 at the free column free[i], 0 at the other free columns and
    -R[r][free[i]] at the pivot column of row r.  Over the rationals row i
    is column free[i] of R, cleared, so it keeps that column's
    denominator.  The rows are built as columns, then transposed once:
    the pivot column of row r is row r of R's free columns negated (over
    the rationals column r of their cleared transpose, whose rows carry
    the denominators), and free column free[i] is the unit column i times
    row i's denominator.  Every column of R is a pivot or a free one."""
    F, k = R.field, R.cols
    p = F.characteristic()
    top = R.submatrix(range(len(pivots)), free)
    if p:
        dens = [1] * len(free)
        negated = (map(operator.mod, map(operator.neg, row), repeat(p))
                   for row in top.data)
    else:
        ints, dens = top.transpose()._ints()
        negated = (map(operator.neg, col) for col in zip(*ints))
    cols = [()] * k
    for c, col in zip(pivots, negated):
        cols[c] = col
    for i, (f, d) in enumerate(zip(free, dens)):
        cols[f] = unit = [0] * len(free)
        unit[i] = d
    rows = zip(*cols)
    return Matrix._cleared(F, rows if p else list(map(list, rows)), dens, k)


def _flipped(M):
    """M with its rows and its columns in reverse order."""
    ints, dens = M._ints()
    return Matrix._cleared(M.field, [row[::-1] for row in reversed(ints)],
                           dens[::-1], M.cols)


def kernel(M):
    """Solution space of M x = 0 as a Subspace of F^cols, from one echelon
    of M read from its last row and column: every kernel, annihilator and
    greedy completion comes from here.

    Let W be the reduced echelon form of the flipped M, with column f of
    M at k-1-f in W.  For a free column f' of W the null row (see
    _null_rows) is 1 at f', 0 at the other free columns, and nonzero
    elsewhere only at pivot columns before f', because a pivot row is
    zero before its pivot.  Flipped back, the row of f = k-1-f' is 1 at
    f, 0 at the other free columns and nonzero elsewhere only at pivot
    columns after f.  So its leading entry is that 1, every other row is
    zero in its column, and with the row order reversed the leading
    columns increase: the rows are already the canonical RREF of the null
    space, its pivots the free columns, and need no second echelon.
    """
    W, pivots, _ = _echelon(_flipped(_instance(M, Matrix)), False)
    taken = set(pivots)
    free = [f for f in range(M.cols) if f not in taken]
    return Subspace._trusted(M.field, M.cols,
                             _flipped(_null_rows(W, pivots, free)))


def _particular(M, b):
    """solve's particular solution, or None, without the null space, for
    a right-hand side b of M.rows canonical scalars."""
    R, T, pivots = rref(M)
    c = T._mul_vec(b)
    if any(c[len(pivots):]):
        return None
    x = [M.field.zero] * M.cols
    for r, p in enumerate(pivots):
        x[p] = c[r]
    return tuple(x)


def solve(M, b):
    """All solutions of M x = b as (particular, homogeneous) or None; the
    outside vector b is read like mul_vec's, with M.rows entries."""
    x = _particular(M, Matrix(_instance(M, Matrix).field, [b],
                              cols=M.rows).row(0))
    return None if x is None else (x, kernel(M))


def annihilator(T):
    """Linear forms (dual coordinate rows) vanishing on T, by one echelon
    without transform of min(dim, n - dim) rows: kernel's reverse echelon
    of T's canonical rows when dim <= n/2, else the echelon of the n - dim
    null rows of those rows (see _null_rows), which span the same space.
    Both give its canonical rows; at dim = n there are none to reduce."""
    n, dim = _instance(T, Subspace).ambient_dim, T.dim
    if 2 * dim <= n:
        return kernel(T.basis)
    taken = set(T.pivots)
    free = [f for f in range(n) if f not in taken]
    return Subspace._span(_null_rows(T.basis, T.pivots, free))


def _dual_rows(S, N):
    """The dim S x n rows V that vanish at the pivots of
    N = annihilator(S) and have V R^t = I for S's canonical rows R (see
    dual.adapted_basis for the proof): row i is e_c, c the pivot of R's
    row i, minus N's row led by c if there is one.  That row is 1 at c,
    so the difference is N's row negated with its entry at c cleared."""
    F, n = S.field, S.ambient_dim
    p = F.characteristic()
    led = dict(zip(N.pivots, zip(*N.basis._ints())))
    out, out_dens = [], []
    for c in S.pivots:
        if c in led:
            row, d = led[c]
            v = [-x % p for x in row] if p else [-x for x in row]
            v[c] = 0
        else:
            v, d = [0] * n, 1
            v[c] = 1
        out.append(v)
        out_dens.append(d)
    return Matrix._cleared(F, out, out_dens, n)


def extend_basis(inner, outer):
    """Ordered basis of outer starting with inner's stored basis rows.

    Completion appends outer's canonical basis rows in order, keeping each
    one that increases the rank.  Over outer's rows, inner's rows have as
    coordinates their entries at outer's pivots, so this is the completion
    of those d x dim(outer) coordinate rows with unit vectors (see
    complete_to_ambient).
    """
    if _instance(inner, Subspace).ambient_dim != _instance(
            outer, Subspace).ambient_dim or inner.field != outer.field:
        raise NotNested("subspaces live in different ambient spaces")
    coords = outer._coordinates(inner.basis)
    if coords is None:
        raise NotNested("inner is not contained in outer")
    return list(inner.basis._vstack(outer.basis.submatrix(
        kernel(coords).pivots, range(outer.ambient_dim))).data)


def complete_to_ambient(M):
    """The independent rows of M followed by the standard basis vectors,
    in index order, that greedy completion to a basis of F^k, k = M.cols,
    keeps: e_i, taken in index order, is kept when it lies outside the
    span of the vectors before it.

    The kept i are the pivots of the null space of M, the i that are not
    pivots of the rows' echelon form with the columns read from the last
    one (see kernel).  Proof: a skipped e_j lies in the span before
    it, so the span before e_i is P + <e_0, ..., e_(i-1)>, with P the
    span of the rows.  e_i lies in it exactly when some vector of P is 1
    at i and 0 after i, that is when dropping coordinate i from P
    restricted to the coordinates i, ..., k-1 has a nonzero kernel: when
    that restriction has a larger rank than the one to i+1, ..., k-1.
    Read from column k-1 down, these two ranks count the pivots up to and
    before column i, so e_i is skipped exactly when i is a pivot.
    """
    return M._vstack(Matrix._units(M.field, kernel(M).pivots, M.cols))
