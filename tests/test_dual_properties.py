"""Property tests of the paper's identities, with shrinking: over the
rationals, GF(2), GF(3) and GF(2^31 - 1), for instances with n <= 8,
dualizing twice gives the instance back, linking on the dual side is the
converse of linking, linked pairs share their value Q^(a*) = Q(x), and the
adjugate of the middle Gram block is its determinant times the dual's
Gram block."""

import pytest

from dualform import (adjugate, b_linked, det, double_dual_check, dualize,
                      linked_forms, make_field)
from helpers import F2, F3, FQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY, coordinates, instances  # noqa: E402

FIELDS = pytest.mark.parametrize(
    "F", [FQ, F2, F3, make_field("prime", 2**31 - 1)],
    ids=["Q", "GF2", "GF3", "GF(2^31-1)"])


def linked_form(data, inst, x):
    """A form linked to x: the representative shifted by a drawn member
    of ann(S)."""
    coset = linked_forms(inst, x)
    return coset.members(data.draw(coordinates(inst.field,
                                               coset.radical.dim)))


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_double_dual_is_the_identity(F, data):
    assert double_dual_check(data.draw(instances(F))) is True


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_linking_on_the_dual_is_the_converse(F, data):
    """b_linked(inst, a*, x) == b_linked(dual, x, a*) for x in S and a* in
    S^, with a* linked to x or drawn over the dual basis."""
    inst = data.draw(instances(F))
    dual = dualize(inst).dual
    x = inst.from_coords(data.draw(coordinates(F, inst.m)))
    if data.draw(st.booleans()):
        a_star = linked_form(data, inst, x)
        assert b_linked(inst, a_star, x) is True
    else:
        a_star = dual.from_coords(data.draw(coordinates(F, dual.m)))
    assert b_linked(inst, a_star, x) == b_linked(dual, x, a_star)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_linked_pairs_share_their_value(F, data):
    inst = data.draw(instances(F))
    dual = dualize(inst).dual
    coords = data.draw(coordinates(F, inst.m))
    a_star = linked_form(data, inst, inst.from_coords(coords))
    assert dual.eval_q(dual.coords_of(a_star)) == inst.eval_q(coords)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_adjugate_of_the_gram_block_is_det_times_the_dual_gram(F, data):
    """adj(G) = det(G) G^ for the middle Gram block G and the Gram matrix
    G^ of the dual form on the first t = dim S - dim R dual basis rows."""
    res = dualize(data.draw(instances(F)))
    t = range(res.g22.rows)
    g_hat = res.dual.polar_gram().submatrix(t, t)
    assert adjugate(res.g22) == g_hat.scale(det(res.g22))
