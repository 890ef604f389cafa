"""Property tests of the congruence normal forms, with shrinking: over the
rationals, GF(2) and GF(3), for instances with n <= 8, the normal form is
congruent to the input, its Gram block is diagonal or minor-diagonal, its
basis lists the radical first, and its dual inverts the diagonal or, in
characteristic 2, mirrors it."""

import pytest

from dualform import char2_normal_form, diagonalize, dualize
from helpers import F2, F3, FQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY, instances  # noqa: E402

FIELDS = pytest.mark.parametrize("F", [FQ, F2, F3], ids=["Q", "GF2", "GF3"])


def normal_form(inst):
    if inst.field.characteristic() == 2:
        return char2_normal_form(inst)
    return diagonalize(inst)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_normalized_is_the_change_of_basis(F, data):
    inst = data.draw(instances(F))
    res = normal_form(inst)
    assert res.normalized == inst.change_of_basis(res.T)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_gram_block_is_diagonal_or_minor_diagonal(F, data):
    inst = data.draw(instances(F))
    res = normal_form(inst)
    g, m, d = res.normalized.polar_gram(), inst.m, inst.radical().dim
    assert not any(g[i, j] for i in range(m) for j in range(d))
    for i in range(d, m):
        for j in range(d, m):
            if F.characteristic() == 2:
                assert g[i, j] == (F.one if i + j == d + m - 1 else F.zero)
            else:
                assert (g[i, j] != F.zero) == (i == j)


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_basis_lists_the_radical_first(F, data):
    inst = data.draw(instances(F))
    res = normal_form(inst)
    rad = inst.radical()
    assert res.normalized.radical().dim == rad.dim
    assert all(rad.subspace.coordinates(b) is not None
               for b in res.normalized.s_basis[:rad.dim])


@FIELDS
@PROPERTY
@hypothesis.given(data=st.data())
def test_dual_inverts_or_mirrors_the_diagonal(F, data):
    inst = data.draw(instances(F))
    res = normal_form(inst)
    d, t = inst.radical().dim, inst.m - inst.radical().dim
    g = res.normalized.polar_gram()
    dual = dualize(res.normalized).dual
    g_hat = dual.polar_gram()
    for i in range(t):
        for j in range(t):
            if F.characteristic() == 2:
                want = g[d + i, d + j]
            else:
                want = F.inv(g[d + i, d + i]) if i == j else F.zero
            assert g_hat[i, j] == want
    if F.characteristic() == 2:
        for i in range(t):
            assert dual.form.diag[i] == res.normalized.form.diag[d + t - 1 - i]
