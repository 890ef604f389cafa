"""Property test of the library's outside inputs, the counterpart of
tests/test_cli_fuzz.py: every public function that takes values from
outside is sent malformed scalars, vectors of the wrong width, matrices
and forms over another field, or a field descriptor that is not one, next
to otherwise valid arguments built on a drawn instance.  Every call must
raise an ``AlgebraError`` subclass, and nothing else: no ``TypeError``,
``AttributeError`` or ``ValueError`` from deeper down, and no result
computed from a value it should have refused.

A malformed scalar is one ``Field.scalar`` refuses: a float (integral,
NaN or infinite ones too), a complex number, ``None``, bytes, a list, an
object, a ``Decimal`` NaN or infinity, text outside the field's grammar
or with a zero denominator, and over GF(p) a fraction whose denominator p
divides.

A malformed container is a value that stands where a vector, a matrix,
a form's diagonal, a map, a form, a subspace or a list of pairs belongs
and is none: ``None``, an int, text or bytes (of the right length, too),
a mapping or a set in place of a sequence, a bare ``list`` in place of a
``Matrix``, a ``Matrix`` or a bare list in place of a ``LinearMap`` or a
``Subspace``, a diagonal in place of a ``QuadraticForm``, a pair of
another length, and an ambient dimension or column count that is not an
int of at least 0, with rows it would otherwise fit.  Each is
refused where it enters, not read by its length, keys or characters.  A
``Subspace`` basis is refused unless it is a ``Matrix`` over the field,
of the ambient width, equal to its own canonical echelon."""

from decimal import Decimal
from fractions import Fraction

import pytest

from dualform import (AlgebraError, LinearMap, Matrix, MetricSpace,
                      PrimeField, QuadraticForm, Subspace, b_linked,
                      converse_relation_check, extend_basis, linked_coset,
                      linked_forms, make_field, reflection, solve,
                      theorem_psi_check, transpose_map, verify_similarity)
from dualform import fields
from helpers import F2, F3, FQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from strategies import PROPERTY, coordinates, instances, scalars  # noqa: E402

FIELDS = (FQ, F2, F3, make_field("prime", 2**31 - 1))
F7 = make_field("prime", 7)
FUZZ = hypothesis.settings(PROPERTY, max_examples=25)
ODD = [None, 1.0, 0.5, -0.0, float("nan"), float("inf"), 1j, b"1", [1],
       (), object(), Decimal("NaN"), Decimal("-Infinity"), "", "x", "1.5",
       "--1", "+1", "1/2/3", "1/0", "0/0"]


def bad_scalars(F):
    grammar = fields._RESIDUE if F.characteristic() else fields._RATIONAL
    text = st.text(max_size=4).filter(
        lambda t: not grammar.fullmatch(t.strip()))
    odd = st.sampled_from(ODD)
    if F.characteristic():
        odd = st.one_of(odd, st.integers(1, 5).map(
            lambda k: Fraction(k * F.p + 1, F.p)))
    return st.one_of(odd, text)


@st.composite
def bad_vectors(draw, F, width):
    """A vector not in F^width: of another length, with entries good or
    bad, or of this length with one entry a malformed scalar."""
    if width == 0 or draw(st.booleans()):
        k = draw(st.integers(0, 9).filter(lambda k: k != width))
        return draw(st.lists(st.one_of(scalars(F), bad_scalars(F)),
                             min_size=k, max_size=k))
    v = draw(coordinates(F, width))
    v[draw(st.integers(0, width - 1))] = draw(bad_scalars(F))
    return v


@st.composite
def bad_rows(draw, F, count, width):
    """count >= 1 rows of which one is a bad vector, the rest in F^width."""
    rows = draw(st.lists(coordinates(F, width), min_size=count,
                         max_size=count))
    rows[draw(st.integers(0, count - 1))] = draw(bad_vectors(F, width))
    return rows


def bad_containers(width):
    """Values that are not a vector of width scalars, though some have
    width entries."""
    return st.sampled_from([None, 7, "1" * width, b"1" * width,
                            {j: 1 for j in range(width)}, {"1"}])


def bad_matrices(width):
    """Matrix data that is a bad container, or holds one as a row."""
    return st.one_of(bad_containers(width), st.lists(
        st.one_of(bad_containers(width), st.just([0] * width)),
        min_size=1, max_size=3).filter(
            lambda rows: not all(isinstance(r, list) for r in rows)))


def other_field(draw, F):
    return draw(st.sampled_from([G for G in FIELDS if G != F]))


def _map(draw, F, inst):
    """A map the similarity checks refuse: over another field, or of the
    wrong size."""
    if draw(st.booleans()):
        return LinearMap(Matrix.identity(other_field(draw, F), inst.n))
    return LinearMap(Matrix.identity(F, inst.n + 1))


def _form(draw, F, m):
    """QuadraticForm arguments with one bad scalar, key or table."""
    diag = draw(coordinates(F, m))
    how = draw(st.sampled_from(["diag", "value", "key", "table"]))
    if how == "diag" or m < 2 and how == "value":
        diag.insert(draw(st.integers(0, m)), draw(bad_scalars(F)))
        return diag, {}
    if how == "value":
        return diag, {(0, 1): draw(bad_scalars(F))}
    if how == "key":
        return diag, {draw(st.sampled_from([
            0, (0,), (0, 1, 2), "01", (0, "1"), (0, 1.0), (1, 0), (0, m),
            (-1, 0), (False, True)])): 1}
    return diag, draw(st.sampled_from([[(0, 1, 1)], [((0, 1), 1)], 5, "01"]))


def _vec(draw, F, width):
    return draw(bad_vectors(F, width))


def _zero_form(inst):
    return (inst.field.zero,) * inst.n


def _identity(F, n):
    return LinearMap(Matrix.identity(F, n))


def _not_a_map(draw, F, inst):
    """A Matrix or a bare list of rows in place of a LinearMap."""
    eye = Matrix.identity(F, inst.n)
    return draw(st.sampled_from([eye, [list(r) for r in eye.data]]))


# name -> builder(draw, F, inst) of (function, *arguments), a call that
# must raise.
ENTRIES = {
    "Matrix": lambda draw, F, inst: (
        Matrix, F, draw(bad_rows(F, draw(st.integers(1, 3)), inst.n)),
        inst.n),
    "Matrix.mul_vec": lambda draw, F, inst: (
        inst.subspace.basis.mul_vec, _vec(draw, F, inst.n)),
    "Matrix.scale": lambda draw, F, inst: (
        inst.subspace.basis.scale, draw(bad_scalars(F))),
    "Matrix.mul": lambda draw, F, inst: (
        Matrix.identity(F, inst.n).mul,
        Matrix.identity(other_field(draw, F), inst.n)),
    "solve": lambda draw, F, inst: (
        solve, inst.subspace.basis, _vec(draw, F, inst.subspace.dim)),
    "LinearMap.apply": lambda draw, F, inst: (
        _identity(F, inst.n).apply, _vec(draw, F, inst.n)),
    "Subspace.from_rows": lambda draw, F, inst: (
        Subspace.from_rows, F, inst.n, draw(bad_rows(F, 2, inst.n))),
    "Subspace.coordinates": lambda draw, F, inst: (
        inst.subspace.coordinates, _vec(draw, F, inst.n)),
    "Subspace": lambda draw, F, inst: (Subspace, *draw(st.sampled_from([
        (F7, 3, Matrix(F7, [[0, 0, 0]])),
        (FQ, 2, Matrix(FQ, [[2, 0]])),
        (F7, 3, Matrix(F7, [[0, 3, 1]])),
        (FQ, 2, Matrix(FQ, [[1, 1], [0, 1]])),
        (F, inst.n + 1, inst.subspace.basis),
        (other_field(draw, F), inst.n, inst.subspace.basis),
        (F, inst.n, list(inst.subspace.basis.data))]))),
    "extend_basis": lambda draw, F, inst: (
        extend_basis, Subspace.from_rows(other_field(draw, F), inst.n, []),
        inst.subspace),
    "QuadraticForm": lambda draw, F, inst: (
        QuadraticForm, F, *_form(draw, F, inst.m)),
    "MetricSpace": lambda draw, F, inst: (
        MetricSpace, F, inst.n, inst.s_basis, draw(st.sampled_from([
            QuadraticForm(other_field(draw, F), [0] * inst.m),
            QuadraticForm(F, [0] * (inst.m + 1))]))),
    "MetricSpace.s_basis": lambda draw, F, inst: (
        MetricSpace, F, inst.n, draw(bad_rows(F, max(inst.m, 1), inst.n)),
        inst.form),
    "change_of_basis": lambda draw, F, inst: (
        inst.change_of_basis, draw(st.sampled_from([
            Matrix.identity(other_field(draw, F), inst.m),
            Matrix.identity(F, inst.m + 1)]))),
    "coords_of": lambda draw, F, inst: (
        inst.coords_of, _vec(draw, F, inst.n)),
    "coords_matrix": lambda draw, F, inst: (
        inst.coords_matrix, draw(bad_rows(F, 2, inst.n))),
    "from_coords": lambda draw, F, inst: (
        inst.from_coords, _vec(draw, F, inst.m)),
    "eval_q": lambda draw, F, inst: (inst.eval_q, _vec(draw, F, inst.m)),
    "eval_b": lambda draw, F, inst: (
        inst.eval_b, *draw(st.permutations([_vec(draw, F, inst.m),
                                            draw(coordinates(F, inst.m))]))),
    "b_linked": lambda draw, F, inst: (
        b_linked, inst, *draw(st.sampled_from([
            (_vec(draw, F, inst.n), inst.from_coords([0] * inst.m)),
            (_zero_form(inst), _vec(draw, F, inst.n))]))),
    "converse_relation_check": lambda draw, F, inst: (
        converse_relation_check, inst,
        [(_zero_form(inst), _vec(draw, F, inst.n))]),
    "linked_coset": lambda draw, F, inst: (
        linked_coset, inst, _vec(draw, F, inst.n)),
    "LinkedCoset.members": lambda draw, F, inst: (
        linked_coset(inst, _zero_form(inst)).members,
        _vec(draw, F, inst.radical().dim)),
    "linked_forms": lambda draw, F, inst: (
        linked_forms, inst, _vec(draw, F, inst.n)),
    "reflection": lambda draw, F, inst: (
        reflection, inst, _vec(draw, F, inst.n)),
    "verify_similarity": lambda draw, F, inst: (
        verify_similarity, inst, _identity(F, inst.n), draw(bad_scalars(F))),
    "verify_similarity.map": lambda draw, F, inst: (
        verify_similarity, inst, _map(draw, F, inst), 1),
    "theorem_psi_check": lambda draw, F, inst: (
        theorem_psi_check, inst, _identity(F, inst.n), draw(bad_scalars(F))),
    "theorem_psi_check.map": lambda draw, F, inst: (
        theorem_psi_check, inst, _map(draw, F, inst), 1),
    "Field.scalar": lambda draw, F, inst: (F.scalar, draw(bad_scalars(F))),
    "Field.parse": lambda draw, F, inst: (
        F.parse, draw(bad_scalars(F).filter(lambda x: isinstance(x, str)))),
    "PrimeField": lambda draw, F, inst: (PrimeField, draw(st.sampled_from(
        [7.0, 11.0, "7", True, Fraction(7), Decimal(7), None, 4, 1, -7,
         2**31]))),
    "Matrix.container": lambda draw, F, inst: (
        Matrix, F, draw(bad_matrices(inst.n))),
    "Subspace.from_rows.container": lambda draw, F, inst: (
        Subspace.from_rows, F, inst.n, draw(bad_matrices(inst.n))),
    "Matrix.cols": lambda draw, F, inst: (
        Matrix, F, *draw(st.sampled_from(
            [([], -3), ([], "x"), ([], 1.0), ([[F.one]], True),
             ([], False)]))),
    "MetricSpace.n": lambda draw, F, inst: (
        MetricSpace, *draw(st.sampled_from(
            [(F, -2, [], QuadraticForm(F, [])),
             (F, True, [[F.one]], QuadraticForm(F, [F.one])),
             (F, False, [], QuadraticForm(F, []))]))),
    "Subspace.from_rows.ambient_dim": lambda draw, F, inst: (
        Subspace.from_rows, F, draw(st.sampled_from(
            [None, True, -1, 1.0, "1"])), [[F.one]]),
    "coords_of.container": lambda draw, F, inst: (
        inst.coords_of, draw(bad_containers(inst.n))),
    "eval_q.container": lambda draw, F, inst: (
        inst.eval_q, draw(bad_containers(inst.m))),
    "QuadraticForm.container": lambda draw, F, inst: (
        QuadraticForm, F, draw(bad_containers(inst.m))),
    "LinearMap.container": lambda draw, F, inst: (
        LinearMap, draw(st.sampled_from(
            [[[F.one] * inst.n] * inst.n, None, ((1,),), "1"]))),
    "MetricSpace.form": lambda draw, F, inst: (
        MetricSpace, F, inst.n, inst.s_basis, draw(st.sampled_from(
            [None, {}, list(inst.form.diag), "0" * inst.m]))),
    "Field.parse.container": lambda draw, F, inst: (
        F.parse, draw(st.sampled_from([None, 3, b"1", ["1"], Fraction(1)]))),
    "converse_relation_check.container": lambda draw, F, inst: (
        converse_relation_check, inst, draw(st.sampled_from(
            [None, 5, "ab", [5], [(_zero_form(inst),) * 3],
             [(_zero_form(inst),)], {(): 1}]))),
    "verify_similarity.container": lambda draw, F, inst: (
        verify_similarity, inst, _not_a_map(draw, F, inst), 1),
    "theorem_psi_check.container": lambda draw, F, inst: (
        theorem_psi_check, inst, _not_a_map(draw, F, inst), 1),
    "transpose_map": lambda draw, F, inst: (
        transpose_map, _not_a_map(draw, F, inst)),
    "change_of_basis.container": lambda draw, F, inst: (
        inst.change_of_basis, draw(st.sampled_from(
            [[list(r) for r in Matrix.identity(F, inst.m).data], None]))),
    "extend_basis.container": lambda draw, F, inst: (
        extend_basis, *draw(st.sampled_from(
            [(inst.subspace.basis, inst.subspace.basis),
             (inst.subspace, inst.subspace.basis),
             (inst.subspace.basis, inst.subspace)]))),
    "make_field": lambda draw, F, inst: (make_field, *draw(st.sampled_from(
        [(3,), (None,), (b"prime", 7), ("prime", 7.0), ("prime", "7"),
         ("prime",), ("prime", 9), ("finite", 7)]))),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
@FUZZ
@hypothesis.given(data=st.data())
def test_every_public_entry_refuses_bad_outside_values(name, data):
    F = data.draw(st.sampled_from(FIELDS))
    inst = data.draw(instances(F))
    func, *args = ENTRIES[name](data.draw, F, inst)
    with pytest.raises(AlgebraError):
        func(*args)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rows_of_text_scalars_stay_valid(F):
    """The container check refuses text in place of a row, not text
    scalars in a row."""
    assert Matrix(F, [["1", "2"]]) == Matrix(F, [[1, 2]])
    inst = MetricSpace(F, 2, [("1", "0"), ["0", "1"]],
                       QuadraticForm(F, ("1", "2")))
    assert inst.eval_q(["1", "1"]) == F.scalar(3)
    assert inst.coords_of(("1", "1")) == (F.one, F.one)
