"""Congruence normal forms for the non-radical block of the polar form.

Characteristic != 2: diagonalize by symmetric Gaussian steps, creating a
pivot via b_i <- b_i + b_j whenever the remaining diagonal is all zero.
Characteristic 2: greedy symplectic pairing, then the pairs are laid out so
the Gram block carries ones exactly on its minor (anti-) diagonal.

Both run on one array of rows [G | C]: row i of C holds the s_basis
coordinates of basis vector b_i, starting from the radical-first
completion b0_0, ..., b0_(m-1), and G starts as the polar Gram matrix on
those.  A step b_i <- b_i + f b_j is one row operation: it adds f times
row j to row i and writes nothing else.  With E the product of the steps'
elementary matrices, the array then holds E G, that is
G[i][j] = B(b_i, b0_j), where a congruence would hold E G E^t, that is
B(b_i, b_j).  The column half is never read, because the two agree on
the block of unprocessed vectors, and every entry a step reads lies in
it: the diagonal for the pivot search, the (i, j) entries for the
b_i <- b_i + b_j fallback and the pivot's row.  (A vector is processed
once it is a pivot, or one of a pair in characteristic 2; the radical
prefix, which no step touches, from the start.)

Proof: each unprocessed b_l is b0_l plus processed vectors, to all of
which it is B-orthogonal, so B(b_l, b_j) = B(b_l, b0_j) for unprocessed
l and j.  A pivot sweep keeps this, as b_l - (B(b_l, b_k) / B(b_k, b_k))
b_k is B-orthogonal to the pivot b_k.  In characteristic 2, where
B(u, u) = 0 and B(u, v) = 1, the sweep for the pair (u, v) makes every
remaining w' = w + B(u, w) v + B(v, w) u satisfy B(w', u) = B(w', v) = 0,
so the rows-only values are exact on the remaining block again.  The fallback
makes b_i = b0_i + b0_j plus processed vectors, and b_i turns pivot at
once: its row stays exact, and of the column half only its diagonal is
read, B(b_i, b_i) = G[i][i] + G[i][j] after the row operation.

Each pivot test reads one entry of G and each step costs O(m), so a normal
form costs O(m^3); its transform T is C transposed, its columns in the
pivot order.  The radical prefix is never touched, so the result's first d
basis vectors span the radical.
"""

from .dual import _check_radical_condition
from .errors import CharTwo, NotCharTwo
from .linalg import Matrix, _canon, complete_to_ambient

DIAGONAL = "diagonal"
MINOR_DIAGONAL_CHAR2 = "minor-diagonal-char2"


class NormalFormResult:
    __slots__ = ("T", "normalized", "kind")

    def __init__(self, T, normalized, kind):
        self.T = T
        self.normalized = normalized
        self.kind = kind


def _gram_array(inst):
    """Rows [G | C] for the radical-first basis, and the radical's dim."""
    rad = inst.radical()
    C = complete_to_ambient(rad.in_domain.basis)
    G = C.mul(inst.polar_gram()).mul(C.transpose())
    return [list(g + c) for g, c in zip(G.data, C.data)], rad.dim


def _add(a, i, j, f, p):
    """b_i <- b_i + f b_j on [G | C] over GF(p), or the rationals at p = 0:
    one row operation, which writes row i only (see the module
    docstring)."""
    a[i] = list(_canon(p, [x + f * y if y else x
                           for x, y in zip(a[i], a[j])]))


def _result(inst, a, order, kind):
    m = inst.m
    T = Matrix._trusted(inst.field, zip(*[a[i][m:] for i in order]), m)
    return NormalFormResult(T, inst._change_of_basis(T), kind)


def diagonalize(inst):
    """Diagonal congruence normal form (characteristic != 2)."""
    F, p = inst.field, inst.field.characteristic()
    if p == 2:
        raise CharTwo("diagonalization requires characteristic != 2")
    m = inst.m
    a, d = _gram_array(inst)
    order = list(range(m))  # order[k]: the row at pivot position k
    for k in range(d, m):
        pivot = next((l for l in order[k:] if a[l][l]), None)
        if pivot is None:  # the block is non-degenerate: some G[i][j] != 0
            pivot, j = next((i, j) for s, i in enumerate(order[k:], k)
                            for j in order[s + 1:] if a[i][j])
            _add(a, pivot, j, 1, p)
            # B(b_i, b_i) for the new b_i; F.inv reduces it mod p
            a[pivot][pivot] += a[pivot][j]
        # the pivot moves to position k, the row there to the pivot's place
        order[order.index(pivot)], order[k] = order[k], pivot
        inv = F.inv(a[pivot][pivot])
        for l in order[k + 1:]:
            if a[pivot][l]:
                _add(a, l, pivot, -a[pivot][l] * inv, p)
    return _result(inst, a, order, DIAGONAL)


def char2_normal_form(inst):
    """Minor-diagonal alternating normal form (characteristic 2)."""
    if inst.field.characteristic() != 2:
        raise NotCharTwo("this normal form requires characteristic 2")
    _check_radical_condition(inst)
    a, d = _gram_array(inst)
    remaining = list(range(d, inst.m))
    us, vs = [], []
    while remaining:
        u = remaining.pop(0)
        # the block is non-degenerate, so u pairs with a later vector v
        v = remaining.pop(next(k for k, w in enumerate(remaining) if a[u][w]))
        # GF(2) is make_field's only characteristic-2 field: B(u, v) = 1
        for w in remaining:
            cu, cv = a[u][w], a[v][w]
            if cu:
                _add(a, w, v, cu, 2)
            if cv:
                _add(a, w, u, cv, 2)
        us.append(u)
        vs.append(v)
    return _result(inst, a, list(range(d)) + us + vs[::-1],
                   MINOR_DIAGONAL_CHAR2)
