"""Seeded, program-independent input generator and exact oracle.

Only the standard library is used here (``int`` and ``Fraction``), never
``dualform``, so the same seed yields byte-identical inputs on every commit
and the checks built from these helpers are independent of the code under
test.

A scalar lives in GF(p) as an ``int`` in ``[0, p)`` and, for ``p == 0``,
in the rationals as a ``Fraction``.

Every instance is built from a known structure.  In *structured*
coordinates y of S the form is a zero radical block of dimension d followed
by a non-degenerate block of size t = m - d: a diagonal with non-zero
entries in odd characteristic and over the rationals, hyperbolic pairs in
characteristic 2.  The structured basis of F^n is the columns of a random
invertible A (S is spanned by the first m columns) and the basis of S handed
to the program is mixed by a random invertible m x m matrix C.  Both are
products of a permutation and unit-triangular factors, so their inverses are
known without elimination, and radical dimension, the radical condition,
similarity truth and matrix singularity are known by construction.
"""

from fractions import Fraction

WORD_PRIME = 2**31 - 1


# ----------------------------------------------------------------- scalars

def red(p, x):
    return x % p if p else Fraction(x)


def inv(p, x):
    if p:
        return pow(x % p, p - 2, p)
    return 1 / Fraction(x)


def fmt(x):
    """Wire encoding of a scalar, as the CLI reads and writes it."""
    return str(x)


def parse(p, text):
    return int(text) % p if p else Fraction(text)


def rand_scalar(rng, p, nonzero=False):
    while True:
        if p == 0:
            x = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))
        else:
            x = rng.randrange(p)
        if x or not nonzero:
            return x


def rand_entry(rng, p, density=0.5):
    """Off-diagonal entry of a mixing factor; small integers over Q."""
    if rng.random() >= density:
        return red(p, 0)
    if p == 0:
        return Fraction(rng.choice((-1, 1)))
    return rng.randrange(1, p)


# ---------------------------------------------------------- linear algebra

def identity(p, n):
    one, zero = red(p, 1), red(p, 0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(p, a, b):
    bt = list(zip(*b))
    return [[red(p, sum(x * y for x, y in zip(row, col))) for col in bt]
            for row in a]


def matvec(p, a, v):
    return [red(p, sum(x * y for x, y in zip(row, v))) for row in a]


def vecmat(p, v, a):
    return [red(p, sum(x * row[j] for x, row in zip(v, a)))
            for j in range(len(a[0]))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def unit_lower(rng, p, n, density=0.5):
    out = identity(p, n)
    for i in range(n):
        for j in range(i):
            out[i][j] = rand_entry(rng, p, density)
    return out


def unit_lower_inverse(p, low):
    """Inverse of a unit lower-triangular matrix by forward substitution."""
    n = len(low)
    out = identity(p, n)
    for j in range(n):
        for i in range(j + 1, n):
            out[i][j] = red(p, -sum(low[i][k] * out[k][j]
                                    for k in range(j, i)))
    return out


def rand_invertible(rng, p, n, density=0.5):
    """Random P*L*U with unit-triangular L, U; returns (M, M^-1)."""
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[red(p, 1 if perm[i] == j else 0) for j in range(n)]
          for i in range(n)]
    low = unit_lower(rng, p, n, density)
    up_t = unit_lower(rng, p, n, density)
    m = matmul(p, pm, matmul(p, low, transpose(up_t)))
    m_inv = matmul(p, transpose(unit_lower_inverse(p, up_t)),
                   matmul(p, unit_lower_inverse(p, low), transpose(pm)))
    return m, m_inv


def solve_rows(p, rows, vec):
    """Coefficients c with sum_i c[i] * rows[i] == vec, or None."""
    k, n = len(rows), len(vec)
    # Augmented system: column i of the matrix is rows[i].
    a = [[red(p, rows[i][j]) for i in range(k)] + [red(p, vec[j])]
         for j in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        f = inv(p, a[r][c])
        a[r] = [red(p, f * x) for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [red(p, x - g * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if any(a[i][k] for i in range(r, n)):
        return None
    out = [red(p, 0)] * k
    for i, c in enumerate(pivots):
        out[c] = a[i][k]
    return out


# ------------------------------------------------------------------ forms

def form_value(p, diag, upper, y):
    """Q(y) for coefficients diag[i] and upper{(i, j): v}, i < j."""
    acc = sum(g * y[i] * y[i] for i, g in enumerate(diag))
    acc += sum(g * y[i] * y[j] for (i, j), g in upper.items())
    return red(p, acc)


def polar_value(p, diag, upper, y, z):
    acc = sum(2 * g * y[i] * z[i] for i, g in enumerate(diag))
    acc += sum(g * (y[i] * z[j] + y[j] * z[i])
               for (i, j), g in upper.items())
    return red(p, acc)


def polar_gram(p, diag, upper):
    m = len(diag)
    g = [[red(p, 2 * diag[i] if i == j else 0) for j in range(m)]
         for i in range(m)]
    for (i, j), v in upper.items():
        g[i][j] = g[j][i] = red(p, v)
    return g


class Instance:
    """(S, Q) in F^n with known radical dimension d and structure."""

    def __init__(self, rng, p, n, m, d, violate=False):
        if p == 2 and (m - d) % 2:
            raise ValueError("char 2 needs an even non-degenerate block")
        self.p, self.n, self.m, self.d, self.t = p, n, m, d, m - d
        zero = red(p, 0)
        # Structured form on F^m: radical block first.
        self.q0_diag = [zero] * m
        self.q0_upper = {}
        if p == 2:
            for k in range(d, m, 2):
                self.q0_upper[(k, k + 1)] = 1
                self.q0_diag[k] = 1 if k == d else rng.randrange(2)
                self.q0_diag[k + 1] = rng.randrange(2)
            if violate and d:
                # Q(r) = 1 on a radical vector: polar form unchanged.
                self.q0_diag[0] = 1
        else:
            for k in range(d, m):
                self.q0_diag[k] = rand_scalar(rng, p, nonzero=True)
        self.condition = not (violate and d and p == 2)
        self.a, self.a_inv = rand_invertible(rng, p, n)
        self.c, _ = rand_invertible(rng, p, m)
        # Columns of A[:, :m] * C are the S-basis handed to the program.
        a_s = [row[:m] for row in self.a]
        self.s_basis = transpose(matmul(p, a_s, self.c))
        cols = transpose(self.c)
        self.diag = [self.q0(col) for col in cols]
        self.upper = {(i, j): self.b0(cols[i], cols[j])
                      for i in range(m) for j in range(i + 1, m)}

    def q0(self, y):
        return form_value(self.p, self.q0_diag, self.q0_upper, y)

    def b0(self, y, z):
        return polar_value(self.p, self.q0_diag, self.q0_upper, y, z)

    def ambient(self, y):
        """Ambient vector with structured S-coordinates y."""
        return [red(self.p, sum(row[i] * y[i] for i in range(self.m)))
                for row in self.a]

    def structured(self, vec):
        """Structured ambient coordinates A^-1 * vec."""
        return matvec(self.p, self.a_inv, vec)

    def rand_coords(self, rng, anisotropic=False):
        """Structured S-coordinates of a random vector, optionally with
        Q != 0."""
        while True:
            y = [rand_scalar(rng, self.p) for _ in range(self.m)]
            if not anisotropic or self.q0(y):
                return y

    def linked_form(self, rng, y):
        """A form a* in standard dual coordinates agreeing with B(x, .) on
        S for x = ambient(y), with random values off S."""
        m, p = self.m, self.p
        unit = lambda k: [red(p, int(i == k)) for i in range(m)]
        w = [self.b0(y, unit(k)) for k in range(m)]
        w += [rand_scalar(rng, p) for _ in range(m, self.n)]
        return vecmat(p, w, self.a_inv)

    def similarity(self, rng, perturb=False):
        """(P, c, truth): an n x n map in standard coordinates preserving R
        and S, the claimed ratio, and whether it is a similarity of that
        ratio.  Unperturbed maps are similarities by construction; the
        perturbed one composes a shear inside the non-degenerate block."""
        p, n, m, d = self.p, self.n, self.m, self.d
        lam = 1 if p in (2, 3) else rng.choice((1, 2))
        lam = red(p, rng.choice((-1, 1)) * lam) if p != 2 else 1
        # Block upper triangular for R < S < F^n with invertible diagonal
        # blocks: unit upper triangular on R and on the trailing block.
        s = identity(p, n)
        for j in range(n):
            for i in range(n):
                if i < j and (i < d or j >= m):
                    s[i][j] = rand_entry(rng, p, 0.3)
        for k in range(d, m):
            if p == 2:
                s[k][k] = 1
            else:
                s[k][k] = red(p, lam * rng.choice((-1, 1)))
        if p == 2:
            for k in range(d, m, 2):
                if self.q0_diag[k] == self.q0_diag[k + 1] and rng.random() < .5:
                    s[k][k] = s[k + 1][k + 1] = 0
                    s[k][k + 1] = s[k + 1][k] = 1
        c = red(p, lam * lam)
        if perturb:
            e = identity(p, n)
            if self.t >= 2:
                e[d + 1][d] = red(p, 1)
            else:
                e[d][d] = red(p, 2)
            s = matmul(p, s, e)
        truth = self.similarity_truth(s, c)
        return matmul(p, self.a, matmul(p, s, self.a_inv)), c, truth

    def similarity_truth(self, s, c):
        """Whether the structured map s is a similarity of ratio c on S."""
        m, p = self.m, self.p
        if any(s[i][j] for i in range(m, self.n) for j in range(m)):
            return False
        imgs = [[s[i][j] for i in range(m)] for j in range(m)]
        unit = lambda k: [red(p, int(i == k)) for i in range(m)]
        for i in range(m):
            if self.q0(imgs[i]) != red(p, c * self.q0(unit(i))):
                return False
            for j in range(i + 1, m):
                if self.b0(imgs[i], imgs[j]) != \
                        red(p, c * self.b0(unit(i), unit(j))):
                    return False
        return True


def matrix_with_rank(rng, p, n, deficiency):
    """n x n matrix P1 * D * P2 with rank n - deficiency by construction."""
    left, _ = rand_invertible(rng, p, n)
    right, _ = rand_invertible(rng, p, n)
    zeros = set(rng.sample(range(n), deficiency))
    dmat = [[red(p, 0)] * n for _ in range(n)]
    for i in range(n):
        if i not in zeros:
            dmat[i][i] = rand_scalar(rng, p, nonzero=True)
    return matmul(p, left, matmul(p, dmat, right))


def digest_update(h, obj):
    """Feed a canonical text form of nested lists/dicts/scalars to h."""
    h.update(repr(canonical(obj)).encode())


def canonical(obj):
    if isinstance(obj, dict):
        return sorted((str(k), canonical(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj
