"""Reduction mod p between the two elimination kernels.

The rational kernel (fraction-free Bareiss on cleared int rows) and the
GF(p) kernel (packed int rows) are two implementations of one
elimination.  For a rational input whose denominators p does not divide,
call p lucky when every ``_echelon`` call of the rational run and of the
GF(p) run on the reduced input reports the same pivots, read by wrapping
``linalg._echelon``, never by comparing outputs.  For a lucky p the
GF(p) results equal the rational results reduced mod p, entry for entry:
the reduced row echelon form, the canonical kernel basis, the inverse,
the adjugate (a polynomial in the entries, so its reduction holds at
every p that divides no denominator), and ``dualize``'s g22^-1.

rref's T is compared at full row rank only, where T M = R fixes it.
Below full rank, T's rows under the rank depend on which rows the
elimination swapped, and that choice reads entries outside the pivot
columns, so two lucky runs may differ there.

Unlucky primes are skipped by the pivot rule only.  A GF(p) run that
raises must already have reported pivots that differ from the rational
run's.  Every instance needs at least one lucky prime; the counts are
printed.
"""

import random
import sys
from fractions import Fraction

import pytest

from dualform import (AlgebraError, Matrix, MetricSpace, QuadraticForm,
                      adjugate, dualize, invert_matrix, kernel, linalg,
                      make_field, rank, rref)

FQ = make_field("rational")
PRIMES = (3, 5, 7, 11, 13, 257, 65521, 2**31 - 1)


@pytest.fixture
def pivot_log(monkeypatch):
    """The list that receives the pivots of every _echelon call, from any
    dualform module that imported it by name."""
    log, raw = [], linalg._echelon

    def echelon(M, transform):
        out = raw(M, transform)
        log.append(list(out[1]))
        return out

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dualform" and \
                vars(mod).get("_echelon") is raw:
            monkeypatch.setattr(mod, "_echelon", echelon)
    return log


def _ints(rng, rows, cols, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _small(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def _matrices(rng):
    """Small-integer matrices at n = 16, 24, 32: one of full rank and one
    of rank n - 1, a product through n - 1 dimensions."""
    for n in (16, 24, 32):
        M = Matrix(FQ, _ints(rng, n, n), cols=n)
        assert rank(M) == n
        yield M
        A, B = _ints(rng, n, n - 1), _ints(rng, n - 1, n)
        M = Matrix(FQ, [[sum(a * b for a, b in zip(row, col))
                         for col in zip(*B)] for row in A], cols=n)
        assert rank(M) == n - 1
        yield M


def _instances(rng):
    """Spaces at n = 16, 24, 32: m = 3n/4 small-integer basis vectors and
    a form whose first ceil(n/8) coordinates it never reads, so its
    radical is at least that large; coefficients have denominators 1, 2
    and 3."""
    for n in (16, 24, 32):
        m, d = 3 * n // 4, -(-n // 8)
        diag = [Fraction(0)] * d + [_small(rng) for _ in range(d, m)]
        upper = {(i, j): _small(rng) for i in range(d, m)
                 for j in range(i + 1, m) if rng.random() < 0.5}
        yield MetricSpace(FQ, n, _ints(rng, m, n),
                          QuadraticForm(FQ, diag, upper))


def _matrix_results(M):
    R, T, pivots = rref(M)
    out = [R, kernel(M).basis, adjugate(M)]
    if len(pivots) == M.rows:
        out += [T, invert_matrix(M)]
    return out


def _dual_results(inst):
    return [dualize(inst).g22_hat]


def _reduce(inst, F):
    """inst, a rational Matrix or MetricSpace, built anew over F with
    every entry reduced into it, so that over the rationals too the
    space's constructor runs inside the recorded run."""
    if isinstance(inst, Matrix):
        return Matrix(F, inst.data, cols=inst.cols)
    form = inst.form
    return MetricSpace(F, inst.n, inst.s_basis,
                       QuadraticForm(F, form.diag, form.upper))


def _denominators(inst):
    if isinstance(inst, Matrix):
        return {x.denominator for row in inst.data for x in row}
    return {x.denominator for x in (*inst.form.diag,
                                    *inst.form.upper.values())}


def _lucky_primes(pivot_log, inst, results):
    """The primes at which results(reduced inst) equals results(inst)
    reduced; asserts the equality at every lucky prime."""
    del pivot_log[:]
    want = results(_reduce(inst, FQ))
    rational = list(pivot_log)
    lucky = []
    dens = _denominators(inst)
    for p in PRIMES:
        if any(den % p == 0 for den in dens):
            continue
        F = make_field("prime", p)
        del pivot_log[:]
        try:
            got = results(_reduce(inst, F))
        except AlgebraError:
            # only an elimination that has already gone another way
            # may make the GF(p) run fail
            assert pivot_log != rational[:len(pivot_log)], p
            continue
        if pivot_log != rational:
            continue
        assert got == [Matrix(F, M.data, cols=M.cols) for M in want], p
        lucky.append(p)
    return lucky


@pytest.mark.parametrize("kind", ["matrix", "dualize"])
def test_lucky_primes_reduce_rational_results(pivot_log, kind):
    rng = random.Random(251)
    cases, results = ((_matrices(rng), _matrix_results) if kind == "matrix"
                      else (_instances(rng), _dual_results))
    counts = []
    for inst in cases:
        lucky = _lucky_primes(pivot_log, inst, results)
        counts.append(len(lucky))
        assert lucky, inst
    print(f"{kind}: lucky primes per instance {counts} of {len(PRIMES)}")
