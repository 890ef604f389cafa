"""Congruence normal forms for the non-radical block of the polar form.

Characteristic != 2: diagonalize by symmetric Gaussian steps, creating a
pivot via b_i <- b_i + b_j whenever the remaining diagonal is all zero.
Characteristic 2: greedy symplectic pairing, then the pairs are laid out so
the Gram block carries ones exactly on its minor (anti-) diagonal.

Both run on one array of rows [G | C]: row i of C holds the s_basis
coordinates of basis vector b_i, starting from the radical-first
completion, and G is the polar Gram matrix on the b_i.  The step
b_i <- b_i + f b_j adds f times row j to row i, then f times column j of G
to column i; a swap exchanges two rows and the same two columns of G.
Each pivot test reads one entry of G and each step costs O(m), so a normal
form costs O(m^3); its transform T is C transposed.  The radical prefix is
never touched, so the result's first d basis vectors span the radical.
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
    """b_i <- b_i + f b_j on [G | C] over GF(p), or the rationals at p = 0."""
    a[i] = list(_canon(p, [x + f * y if y else x
                           for x, y in zip(a[i], a[j])]))
    column = _canon(p, [row[i] + f * row[j] if row[j] else row[i]
                        for row in a])
    for row, x in zip(a, column):
        row[i] = x


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
    for k in range(d, m):
        pivot = next((l for l in range(k, m) if a[l][l]), None)
        if pivot is None:  # the block is non-degenerate: some G[i][j] != 0
            pivot, j = next((i, j) for i in range(k, m)
                            for j in range(i + 1, m) if a[i][j])
            _add(a, pivot, j, 1, p)
        a[k], a[pivot] = a[pivot], a[k]
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
        inv = F.inv(a[k][k])
        for l in range(k + 1, m):
            if a[k][l]:
                _add(a, l, k, -a[k][l] * inv, p)
    return _result(inst, a, range(m), DIAGONAL)


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
