"""Congruence normal forms for the non-radical block of the polar form.

Characteristic != 2: diagonalize by symmetric Gaussian steps, creating a
pivot via b_i <- b_i + b_j whenever the remaining diagonal is all zero.
Characteristic 2: greedy symplectic pairing, then the pairs are laid out so
the Gram block carries ones exactly on its minor (anti-) diagonal.

Both transforms leave the radical prefix untouched, so the result's first d
basis vectors span the radical.
"""

from .errors import CharTwo, NotCharTwo, RadicalConditionViolated
from .linalg import Matrix, complete_to_ambient, vec_add, vec_scale

DIAGONAL = "diagonal"
MINOR_DIAGONAL_CHAR2 = "minor-diagonal-char2"


class NormalFormResult:
    __slots__ = ("T", "normalized", "kind")

    def __init__(self, T, normalized, kind):
        self.T = T
        self.normalized = normalized
        self.kind = kind


def _radical_first_transform(inst):
    """m x m matrix whose columns are a radical-first coordinate basis."""
    rad = inst.radical()
    cols = complete_to_ambient(inst.field, rad.in_domain.basis.data, inst.m)
    return Matrix.from_columns(inst.field, cols), rad.dim


def diagonalize(inst):
    """Diagonal congruence normal form (characteristic != 2)."""
    F = inst.field
    if F.characteristic() == 2:
        raise CharTwo("diagonalization requires characteristic != 2")
    m = inst.m
    T1, d = _radical_first_transform(inst)
    work = inst.change_of_basis(T1)
    # Coordinate columns of the evolving basis, radical part fixed.
    eye = Matrix.identity(F, m)
    cols = [list(eye.row(j)) for j in range(m)]
    b = work.eval_b
    for k in range(d, m):
        pivot = None
        for l in range(k, m):
            if not F.is_zero(b(cols[l], cols[l])):
                pivot = l
                break
        if pivot is None:
            found = None
            for i in range(k, m):
                for j in range(i + 1, m):
                    if not F.is_zero(b(cols[i], cols[j])):
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is zero; cannot happen off radical
            i, j = found
            cols[i] = list(vec_add(F, cols[i], cols[j]))
            pivot = i
        if pivot != k:
            cols[k], cols[pivot] = cols[pivot], cols[k]
        pk = b(cols[k], cols[k])
        for l in range(k + 1, m):
            f = F.div(b(cols[k], cols[l]), pk)
            cols[l] = [F.sub(x, F.mul(f, y))
                       for x, y in zip(cols[l], cols[k])]
    T = T1.mul(Matrix.from_columns(F, cols))
    return NormalFormResult(T, inst.change_of_basis(T), DIAGONAL)


def char2_normal_form(inst):
    """Minor-diagonal alternating normal form (characteristic 2)."""
    F = inst.field
    if F.characteristic() != 2:
        raise NotCharTwo("this normal form requires characteristic 2")
    if not inst.radical_condition_holds():
        raise RadicalConditionViolated(
            "form does not vanish on the radical")
    m = inst.m
    T1, d = _radical_first_transform(inst)
    work = inst.change_of_basis(T1)
    b = work.eval_b
    eye = Matrix.identity(F, m)
    remaining = [list(eye.row(j)) for j in range(d, m)]
    us, vs = [], []
    while remaining:
        u = remaining.pop(0)
        v_idx = None
        for idx, w in enumerate(remaining):
            if not F.is_zero(b(u, w)):
                v_idx = idx
                break
        assert v_idx is not None  # block is non-degenerate
        v = remaining.pop(v_idx)
        v = list(vec_scale(F, F.inv(b(u, v)), v))
        fixed = []
        for w in remaining:
            cu, cv = b(u, w), b(v, w)
            w = vec_add(F, w, vec_scale(F, cu, v))
            w = vec_add(F, w, vec_scale(F, cv, u))
            fixed.append(list(w))
        remaining = fixed
        us.append(u)
        vs.append(v)
    cols = [list(eye.row(j)) for j in range(d)] + us + vs[::-1]
    T = T1.mul(Matrix.from_columns(F, cols))
    return NormalFormResult(T, inst.change_of_basis(T),
                            MINOR_DIAGONAL_CHAR2)
