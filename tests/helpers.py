"""Shared builders for the test suite: the worked examples, seeded
random instance and matrix generators, and call and parse recorders."""

import operator
import sys
from fractions import Fraction

from dualform import (LengthMismatch, MetricSpace, QuadraticForm, Matrix,
                      make_field, rank)

FQ = make_field("rational")
F2 = make_field("prime", 2)
F3 = make_field("prime", 3)
F5 = make_field("prime", 5)

ALL_FIELDS = (FQ, F2, F3, F5)


def paper5():
    """Worked 5-dimensional example: S = <e1, e2, e3> inside F^5."""
    basis = [[1 if i == j else 0 for j in range(5)] for i in range(3)]
    form = QuadraticForm(FQ, [0, Fraction(1, 2), Fraction(3, 2)],
                         {(1, 2): 2})
    return MetricSpace(FQ, 5, basis, form)


def rad_char2(field):
    """dim V = 3, S = <e1, e2>, Q = x2^2."""
    return MetricSpace(field, 3, [[1, 0, 0], [0, 1, 0]],
                       QuadraticForm(field, [0, 1], {}))


def hyperbolic_gf2():
    return MetricSpace(F2, 2, [[1, 0], [0, 1]],
                       QuadraticForm(F2, [0, 0], {(0, 1): 1}))


def random_scalar(rng, F, nonzero=False):
    while True:
        if F.characteristic() == 0:
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            s = rng.randrange(F.p)
        if not nonzero or not F.is_zero(F.scalar(s)):
            return F.scalar(s)


def random_vector(rng, F, n):
    return tuple(random_scalar(rng, F) for _ in range(n))


def random_subspace_basis(rng, F, n, m):
    """m independent rows in F^n."""
    while True:
        rows = [random_vector(rng, F, n) for _ in range(m)]
        if m == 0 or rank(Matrix(F, rows, cols=n)) == m:
            return rows


def random_instance(rng, field=None, n_max=8, require_condition=False):
    """Random metric space; radical dimension is randomized by zeroing all
    coefficients that touch a leading block of basis vectors."""
    F = field if field is not None else rng.choice(ALL_FIELDS)
    n = rng.randint(1, n_max)
    m = rng.randint(0, n)
    rows = random_subspace_basis(rng, F, n, m)
    forced = rng.randint(0, m) if rng.random() < 0.5 else 0
    diag = [F.zero if i < forced else random_scalar(rng, F)
            for i in range(m)]
    upper = {}
    for i in range(forced, m):
        for j in range(i + 1, m):
            if rng.random() < 0.6:
                upper[(i, j)] = random_scalar(rng, F)
    inst = MetricSpace(F, n, rows, QuadraticForm(F, diag, upper))
    if require_condition and not inst.radical_condition_holds():
        return random_instance(rng, field, n_max, require_condition)
    return inst


def random_instance_with_condition(rng, field=None, n_max=8):
    return random_instance(rng, field, n_max, require_condition=True)


def wide_rational_matrix(rng, rows, cols):
    """Rows mixing integers, small denominators and denominators up to
    2^40, numerators up to 2^64, a quarter of the entries zero; with
    probability 1/2 some rows are rational combinations of earlier rows,
    so the matrix is rank deficient."""
    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        den = rng.choice([1, rng.randint(1, 9), rng.randint(1, 2**40)])
        return Fraction(rng.randint(-2**64, 2**64), den)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        for i in rng.sample(range(1, rows), rng.randint(1, rows - 1)):
            a, b = entry(), entry()
            j = rng.randrange(i)
            data[i] = [a * x + b * y for x, y in zip(data[j], data[i - 1])]
    return Matrix(FQ, data, cols=cols)


def wide_shapes(rng, count):
    """Empty, 1 x 1 and random shapes up to 6 x 6."""
    fixed = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (5, 5)]
    return fixed + [(rng.randint(0, 6), rng.randint(0, 6))
                    for _ in range(count)]


def matrix_of_rank(rng, F, n, r):
    """L * D * U with unit lower and upper triangular L, U and D the
    diagonal matrix of r ones, then n - r zeros: rank exactly r."""
    p = F.characteristic()

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if p == 0 \
            else rng.randrange(p)

    def unit(lower):
        return Matrix(F, [[1 if i == j else entry() if (i > j) == lower
                           else 0 for j in range(n)] for i in range(n)],
                      cols=n)

    D = Matrix(F, [[int(i == j < r) for j in range(n)] for i in range(n)],
               cols=n)
    return unit(True).mul(D).mul(unit(False))


def echelon_gfp_reference(M, transform):
    """Reference GF(p) elimination with the pivot rule of linalg._echelon,
    on lists of residues: the pivot row is scaled by the inverse of its
    pivot, then every other row with a nonzero entry f in the pivot column
    takes the entrywise (x - f * y) % p from that column on.  Returns
    (rows, pivots) like _echelon: all rows [R | T] with transform, the
    nonzero rows of R without."""
    F = M.field
    p, n, k = F.characteristic(), M.rows, M.cols
    a = [list(row) + ([int(i == j) for j in range(n)] if transform else [])
         for i, row in enumerate(M.data)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = F.inv(a[r][c])
        a[r][c:] = pivot = [inv * x % p for x in a[r][c:]]
        for i in range(n):
            f = a[i][c]
            if i != r and f:
                a[i][c:] = [(x - f * y) % p if y else x
                            for x, y in zip(a[i][c:], pivot)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    if not transform:
        del a[r:]
    return a, pivots


def mul_gfp_reference(A, B):
    """Reference GF(p) product: one dot product per entry, reduced mod p."""
    p = A.field.characteristic()
    cols = list(zip(*B.data)) if B.data else [()] * B.cols
    return Matrix(A.field, [[sum(map(operator.mul, row, col)) % p
                             for col in cols] for row in A.data],
                  cols=B.cols)


def quadratic_form_reference(field, diag, upper):
    """QuadraticForm's reading of diag and upper, item by item: each diag
    entry through field.scalar, then for each upper item in order its key
    checked for an index pair (i, j), 0 <= i < j < m, and its value
    coerced.  Returns (diag, upper without zeros)."""
    diag = tuple(field.scalar(x) for x in diag)
    m = len(diag)
    cleaned = {}
    for ij, v in upper.items():
        i, j = ij if type(ij) is tuple and len(ij) == 2 else (None, None)
        if not (type(i) is type(j) is int and 0 <= i < j < m):
            raise LengthMismatch(f"bad coefficient index {ij!r}")
        v = field.scalar(v)
        if not field.is_zero(v):
            cleaned[ij] = v
    return diag, cleaned


def record_calls(monkeypatch, *raws):
    """Rebind each dualform function in raws in every dualform module that
    imported it by name, so calls from any module are seen; returns the
    list that receives (name, rows, cols) for each call, with the shape of
    its matrix.  A call made inside another recorded call is not counted
    again: recording rref and the echelon loop _echelon, which rref runs,
    counts every elimination once."""
    calls = []
    active = []

    def recorder(raw):
        def recording(M, *args):
            if not active:
                calls.append((raw.__name__, M.rows, M.cols))
            active.append(raw)
            try:
                return raw(M, *args)
            finally:
                active.pop()
        return recording

    for raw in raws:
        wrapper = recorder(raw)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "dualform":
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def record_parses(monkeypatch, field):
    """Wrap field.parse on the field object; returns the list that
    receives each text it parses."""
    parsed = []
    raw = field.parse

    def parse(text):
        parsed.append(text)
        return raw(text)

    monkeypatch.setattr(field, "parse", parse)
    return parsed


def _radical_first_transform(inst):
    """m x m matrix whose columns are a radical-first coordinate basis."""
    from dualform.linalg import complete_to_ambient
    rad = inst.radical()
    return complete_to_ambient(rad.in_domain.basis).transpose(), rad.dim


def pairwise_diagonalize(inst):
    """Reference diagonalization: the same pivot rules as
    normal.diagonalize, with every test an eval_b on two coordinate
    columns of the evolving basis.  Returns (T, normalized)."""
    from dualform.linalg import vec_add, vec_scale, vec_sub
    F, m = inst.field, inst.m
    T1, d = _radical_first_transform(inst)
    b = inst.change_of_basis(T1).eval_b
    cols = [list(Matrix.identity(F, m).row(j)) for j in range(m)]
    for k in range(d, m):
        pivot = next((l for l in range(k, m)
                      if not F.is_zero(b(cols[l], cols[l]))), None)
        if pivot is None:
            found = next(((i, j) for i in range(k, m)
                          for j in range(i + 1, m)
                          if not F.is_zero(b(cols[i], cols[j]))), None)
            if found is None:
                break
            i, j = found
            cols[i] = list(vec_add(F, cols[i], cols[j]))
            pivot = i
        cols[k], cols[pivot] = cols[pivot], cols[k]
        pk = b(cols[k], cols[k])
        for l in range(k + 1, m):
            f = F.div(b(cols[k], cols[l]), pk)
            cols[l] = list(vec_sub(F, cols[l], vec_scale(F, f, cols[k])))
    T = T1.mul(Matrix(F, list(zip(*cols)), cols=m))
    return T, inst.change_of_basis(T)


def pairwise_char2_normal_form(inst):
    """Reference minor-diagonal form in characteristic 2: greedy pairing
    with eval_b on coordinate columns, v rescaled by B(u, v)^-1.  Returns
    (T, normalized)."""
    from dualform.linalg import vec_add, vec_scale
    F, m = inst.field, inst.m
    T1, d = _radical_first_transform(inst)
    b = inst.change_of_basis(T1).eval_b
    eye = Matrix.identity(F, m)
    remaining = [list(eye.row(j)) for j in range(d, m)]
    us, vs = [], []
    while remaining:
        u = remaining.pop(0)
        v = remaining.pop(next(k for k, w in enumerate(remaining)
                               if not F.is_zero(b(u, w))))
        v = list(vec_scale(F, F.inv(b(u, v)), v))
        fixed = []
        for w in remaining:
            cu, cv = b(u, w), b(v, w)
            w = vec_add(F, w, vec_scale(F, cu, v))
            fixed.append(list(vec_add(F, w, vec_scale(F, cv, u))))
        remaining = fixed
        us.append(u)
        vs.append(v)
    cols = [list(eye.row(j)) for j in range(d)] + us + vs[::-1]
    T = T1.mul(Matrix(F, list(zip(*cols)), cols=m))
    return T, inst.change_of_basis(T)
