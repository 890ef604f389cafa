"""Shared hypothesis strategies and settings for the property tests.
Import this module after ``pytest.importorskip("hypothesis")``."""

from fractions import Fraction

import hypothesis
from hypothesis import strategies as st

from dualform import Matrix, MetricSpace, QuadraticForm, rank

# derandomize fixes the seed, yet hypothesis also draws from the literals
# of every loaded module, which it has no switch to turn off, so an example
# can depend on the code and on the tests run before; print_blob prints
# the @reproduce_failure line that replays a failure seen in the full
# suite on its own.
PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None,
                               print_blob=True)


def scalars(F):
    if F.characteristic() == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, F.p - 1)


def coordinates(F, count):
    return st.lists(scalars(F), min_size=count, max_size=count)


@st.composite
def matrices(draw, F, rows, cols):
    return Matrix(F, draw(st.lists(coordinates(F, cols), min_size=rows,
                                   max_size=rows)), cols=cols)


@st.composite
def instances(draw, F):
    """(S, Q) in F^n, n <= 8, with the radical condition.  S keeps the
    drawn rows that raise the rank, and the form vanishes on a drawn
    number of leading basis vectors, so radicals are common."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(coordinates(F, n), min_size=k, max_size=k))
    basis = []
    for row in rows:
        if rank(Matrix(F, basis + [row], cols=n)) > len(basis):
            basis.append(row)
    m = len(basis)
    forced = draw(st.one_of(st.just(0), st.integers(0, m)))
    diag = [F.zero] * forced + draw(coordinates(F, m - forced))
    pairs = [(i, j) for i in range(forced, m) for j in range(i + 1, m)]
    values = draw(coordinates(F, len(pairs)))
    inst = MetricSpace(F, n, basis,
                       QuadraticForm(F, diag, dict(zip(pairs, values))))
    hypothesis.assume(inst.radical_condition_holds())
    return inst
