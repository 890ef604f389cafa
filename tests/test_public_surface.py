"""The package's public surface, pinned: each module's public names and
each public class's own public methods and properties.  A change that
adds or removes a public name must edit SURFACE and say why in
CHANGES.md.  Every function the traced benchmark wraps (bench/tracer.py's
TARGETS) must resolve, since a target that is gone drops its metrics from
the traced result line."""

import importlib
import inspect
import os
import sys
import types

import pytest

import dualform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracer  # noqa: E402  (bench module)

SURFACE = {
    "dualform": {
        "AdaptedBasis", "AlgebraError", "CharTwo", "DIAGONAL",
        "DivisionByZero", "DualFormResult", "Field", "IsotropicVector",
        "LengthMismatch", "LinearMap", "LinkedCoset", "MINOR_DIAGONAL_CHAR2",
        "Matrix", "MetricSpace", "NormalFormResult", "NotCharTwo",
        "NotInSHat", "NotInSubspace", "NotNested", "NotPrime", "ParseError",
        "PrimeField", "QuadraticForm", "Radical", "RadicalConditionViolated",
        "RationalField", "SimilarityReport", "Singular", "Subspace",
        "ValidationError", "ZeroRatio", "adapted_basis", "adjugate",
        "annihilator", "b_linked", "char2_normal_form",
        "converse_relation_check", "det", "diagonalize", "double_dual_check",
        "dualize", "extend_basis", "invert_matrix", "kernel", "linked_coset",
        "linked_forms", "make_field", "rank", "reflection", "rref", "solve",
        "theorem_psi_check", "transpose_map", "verify_similarity"},
    "cli": {"MAX_DIGITS", "MAX_DIM", "build_parser", "main", "parse_problem",
            "run"},
    "dual": {
        "AdaptedBasis", "DualFormResult", "adapted_basis", "b_linked",
        "converse_relation_check", "double_dual_check", "dualize",
        "linked_coset", "linked_forms",
        "LinkedCoset", "LinkedCoset.members"},
    "errors": {
        "AlgebraError", "CharTwo", "DivisionByZero", "IsotropicVector",
        "LengthMismatch", "NotCharTwo", "NotInSHat", "NotInSubspace",
        "NotNested", "NotPrime", "ParseError", "RadicalConditionViolated",
        "Singular", "ValidationError", "ZeroRatio"},
    "fields": {
        "PRIME_BOUND", "make_field",
        "Field", "Field.characteristic", "Field.format", "Field.halve",
        "Field.is_zero", "Field.parse",
        "PrimeField", "PrimeField.characteristic", "PrimeField.inv",
        "PrimeField.mul", "PrimeField.parse", "PrimeField.scalar",
        "RationalField", "RationalField.characteristic", "RationalField.inv",
        "RationalField.mul", "RationalField.parse", "RationalField.scalar"},
    "linalg": {
        "adjugate", "annihilator", "complete_to_ambient", "det", "dot",
        "extend_basis", "invert_matrix", "kernel", "rank", "rref", "solve",
        "vec_add", "vec_scale",
        "Matrix", "Matrix.column", "Matrix.identity", "Matrix.is_zero",
        "Matrix.mul", "Matrix.mul_vec", "Matrix.row", "Matrix.scale",
        "Matrix.submatrix", "Matrix.transpose", "Matrix.zeros",
        "Subspace", "Subspace.coordinates", "Subspace.dim",
        "Subspace.from_rows"},
    "normal": {"DIAGONAL", "MINOR_DIAGONAL_CHAR2", "NormalFormResult",
               "char2_normal_form", "diagonalize"},
    "quadform": {
        "Radical", "Radical.dim",
        "MetricSpace", "MetricSpace.change_of_basis",
        "MetricSpace.coords_matrix", "MetricSpace.coords_of",
        "MetricSpace.eval_b", "MetricSpace.eval_q", "MetricSpace.from_coords",
        "MetricSpace.m", "MetricSpace.polar_gram", "MetricSpace.radical",
        "MetricSpace.radical_condition_holds", "MetricSpace.s_basis",
        "QuadraticForm", "QuadraticForm.is_zero", "QuadraticForm.matrix",
        "QuadraticForm.polar_gram"},
    "similarity": {
        "SimilarityReport", "reflection", "theorem_psi_check",
        "transpose_map", "verify_similarity",
        "LinearMap", "LinearMap.apply"},
}
MEMBERS = (types.FunctionType, classmethod, staticmethod, property)


def _public(names):
    return (n for n in names if not n.startswith("_"))


def defined(module):
    """The public names module defines, not those it imports, and
    "Class.member" for each public method or property a class defines."""
    out = set()
    for name in _public(vars(module)):
        value = vars(module)[name]
        if inspect.ismodule(value) or getattr(
                value, "__module__", module.__name__) != module.__name__:
            continue
        out.add(name)
        if inspect.isclass(value):
            out.update(f"{name}.{m}" for m in _public(vars(value))
                       if isinstance(vars(value)[m], MEMBERS))
    return out


def same(got, pinned):
    assert got == pinned, (f"not pinned: {sorted(got - pinned)}; "
                           f"pinned but gone: {sorted(pinned - got)}")


@pytest.mark.parametrize("name", sorted(set(SURFACE) - {"dualform"}))
def test_module_defines_exactly_its_pinned_names(name):
    same(defined(importlib.import_module("dualform." + name)),
         SURFACE[name])


def test_package_exports_exactly_its_pinned_names():
    same({n for n in _public(vars(dualform))
          if not inspect.ismodule(vars(dualform)[n])}, SURFACE["dualform"])


def test_every_traced_benchmark_target_resolves():
    importlib.import_module("dualform.cli")
    missing = [f"{metric}: dualform.{mod}.{path}"
               for metric, (mod, path) in tracer.TARGETS.items()
               if tracer._resolve(sys.modules.get("dualform." + mod),
                                  path)[2] is None]
    assert missing == [], f"traced targets gone: {missing}"
