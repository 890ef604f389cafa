"""Batch front end: JSON problem files in, JSON documents out.

Scalars travel as strings ("-3/2", "4"; decimal residues over GF(p)) so the
wire format stays exact.  Indices in files are 0-based.  Exit codes: 0 on
success, 1 on parse/validation errors, 2 when no dual form exists because
the form fails to vanish on its radical.
"""

import argparse
import json
import sys

from .dual import double_dual_check, dualize, linked_coset, linked_forms
from .errors import (AlgebraError, ParseError, RadicalConditionViolated,
                     ValidationError)
from .fields import make_field
from .linalg import Matrix, adjugate, det
from .normal import char2_normal_form, diagonalize
from .quadform import MetricSpace, QuadraticForm
from .similarity import LinearMap, theorem_psi_check


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _document(doc):
    if not isinstance(doc, dict):
        raise ValidationError("top-level document must be an object")
    return doc


def _field_from_doc(doc):
    if isinstance(doc, str):
        doc = {"kind": doc}
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ValidationError("field descriptor needs a 'kind'")
    p = doc.get("p")
    if p is not None and not _is_int(p):
        raise ValidationError("field 'p' must be an integer")
    return make_field(doc["kind"], p)


def _field_from_flag(text):
    if text.lower() == "rational":
        return make_field("rational")
    try:
        p = int(text)
    except ValueError:
        raise ValidationError(f"--field must be 'rational' or a prime, "
                              f"got {text!r}")
    return make_field("prime", p)


def _parse_scalar(field, value, where):
    try:
        if isinstance(value, str):
            return field.parse(value)
        if _is_int(value):
            return field.scalar(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"bad scalar {value!r} in {where}")


def parse_problem(text, field_override=None):
    """Problem file -> MetricSpace; location-carrying errors otherwise."""
    doc = _document(_load_json(text) if isinstance(text, str) else text)
    for key in ("field", "n", "S", "Q"):
        if key not in doc:
            raise ValidationError(f"missing top-level key {key!r}")
    field = field_override or _field_from_doc(doc["field"])
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise ValidationError("'n' must be a non-negative integer")
    rows = doc["S"]
    if not isinstance(rows, list):
        raise ValidationError("'S' must be a list of vectors")
    basis = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"S[{r}] must be a vector of length {n}")
        basis.append([_parse_scalar(field, x, f"S[{r}]") for x in row])
    q = doc["Q"]
    if not isinstance(q, dict) or "diag" not in q:
        raise ValidationError("'Q' must be an object with 'diag'")
    m = len(basis)
    diag = q["diag"]
    if not isinstance(diag, list) or len(diag) != m:
        raise ValidationError(f"Q.diag must list {m} scalars")
    diag = [_parse_scalar(field, x, "Q.diag") for x in diag]
    entries = q.get("upper", [])
    if not isinstance(entries, list):
        raise ValidationError("Q.upper must be a list")
    upper = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValidationError("Q.upper entries must be [i, j, value]")
        i, j, v = entry
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < m):
            raise ValidationError(f"Q.upper index ({i}, {j}) out of order "
                                  f"or range")
        upper[(i, j)] = _parse_scalar(field, v, f"Q.upper[{i},{j}]")
    try:
        return MetricSpace(field, n, basis, QuadraticForm(field, diag, upper))
    except AlgebraError as exc:
        raise ValidationError(str(exc))


def _fmt_vec(field, v):
    return [field.format(x) for x in v]


def _fmt_mat(M):
    return [_fmt_vec(M.field, M.row(i)) for i in range(M.rows)]


def _fmt_form(field, form):
    return {
        "diag": _fmt_vec(field, form.diag),
        "upper": [[i, j, field.format(v)]
                  for (i, j) in sorted(form.upper)
                  for v in [form.upper[(i, j)]]],
    }


def _half_gram(inst):
    F = inst.field
    return _fmt_mat(inst.polar_gram().scale(F.halve(F.one)))


def _parse_vector_flag(field, text, n, name):
    parts = [p for p in text.split(",")] if text else []
    if len(parts) != n:
        raise ValidationError(f"{name} must have {n} comma-separated entries")
    return tuple(_parse_scalar(field, p.strip(), name) for p in parts)


def _cmd_radical(inst, args):
    rad = inst.radical()
    return {
        "dimension": rad.dim,
        "radical_basis": _fmt_mat(rad.subspace.basis),
        "radical_in_s_coords": _fmt_mat(rad.in_domain.basis),
    }


def _cmd_check_condition(inst, args):
    return {"condition": inst.radical_condition_holds()}


def _cmd_dualize(inst, args):
    res = dualize(inst)
    ab = res.adapted
    F = inst.field
    doc = {
        "S_hat": _fmt_mat(res.s_hat.basis),
        "R_hat": _fmt_mat(res.r_hat.basis),
        "dual_coefficients": _fmt_form(F, res.dual.form),
        "dual_basis": [_fmt_vec(F, b) for b in res.dual.s_basis],
        "adapted_basis_columns": _fmt_mat(ab.a.transpose()),
        "index_sets": {"I1": list(ab.i1), "I2": list(ab.i2),
                       "I3": list(ab.i3)},
        "G22": _fmt_mat(res.g22),
        "G22_hat": _fmt_mat(res.g22_hat),
    }
    if args.half_gram:
        doc["half_gram"] = _half_gram(inst)
        doc["dual_half_gram"] = _half_gram(res.dual)
    return doc


def _cmd_double_dual(inst, args):
    return {"double_dual_equals_original": double_dual_check(inst)}


def _cmd_linked(inst, args):
    f_star = _parse_vector_flag(inst.field, args.form, inst.n, "--form")
    coset = linked_coset(inst, f_star)
    return {
        "representative": _fmt_vec(inst.field, coset.representative),
        "radical_basis": _fmt_mat(coset.radical.basis),
    }


def _cmd_linked_forms(inst, args):
    s = _parse_vector_flag(inst.field, args.vector, inst.n, "--vector")
    coset = linked_forms(inst, s)
    return {
        "representative": _fmt_vec(inst.field, coset.representative),
        "radical_basis": _fmt_mat(coset.radical.basis),
    }


def _cmd_normalize(inst, args):
    if inst.field.characteristic() == 2:
        res = char2_normal_form(inst)
    else:
        res = diagonalize(inst)
    doc = {
        "kind": res.kind,
        "T": _fmt_mat(res.T),
        "coefficients": _fmt_form(inst.field, res.normalized.form),
        "gram": _fmt_mat(res.normalized.polar_gram()),
    }
    if args.half_gram:
        doc["half_gram"] = _half_gram(res.normalized)
    return doc


def _cmd_similarity(inst, args):
    if not args.map:
        raise ValidationError("similarity needs --map FILE")
    with open(args.map, "r", encoding="utf-8") as fh:
        mdoc = _load_json(fh.read())
    if not isinstance(mdoc, dict) or "P" not in mdoc:
        raise ValidationError("map file must contain key 'P'")
    rows = mdoc["P"]
    if not (isinstance(rows, list) and len(rows) == inst.n
            and all(isinstance(r, list) and len(r) == inst.n
                    for r in rows)):
        raise ValidationError(f"P must be a {inst.n} x {inst.n} matrix")
    P = Matrix(inst.field,
               [[_parse_scalar(inst.field, x, "P") for x in row]
                for row in rows], cols=inst.n)
    c = _parse_scalar(inst.field, args.ratio, "--ratio")
    try:
        psi = LinearMap(P)
    except AlgebraError:
        raise ValidationError("P is singular")
    report = theorem_psi_check(inst, psi, c)
    F = inst.field
    return {
        "preserves_S": report.preserves_s,
        "ratio": F.format(report.ratio),
        "primal_ok": report.primal_ok,
        "dual_ok": report.dual_ok,
        "verdicts_agree": report.primal_ok == report.dual_ok,
        "zero_blocks_ok": {f"P{r}{s}": ok for (r, s), ok
                           in sorted(report.zero_blocks_ok.items())},
        "blocks": {f"P{r}{s}": _fmt_mat(report.blocks[(r, s)])
                   for (r, s) in sorted(report.blocks)},
    }


def _cmd_adjugate(doc, args, field):
    if "M" not in doc:
        raise ValidationError("adjugate input needs key 'M'")
    rows = doc["M"]
    if not isinstance(rows, list) or any(
            not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise ValidationError("M must be a square matrix")
    M = Matrix(field, [[_parse_scalar(field, x, "M") for x in row]
                       for row in rows], cols=len(rows))
    return {
        "det": field.format(det(M)),
        "adjugate": _fmt_mat(adjugate(M)),
    }


_COMMANDS = {
    "radical": _cmd_radical,
    "check-condition": _cmd_check_condition,
    "dualize": _cmd_dualize,
    "double-dual": _cmd_double_dual,
    "linked": _cmd_linked,
    "linked-forms": _cmd_linked_forms,
    "normalize": _cmd_normalize,
    "similarity": _cmd_similarity,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dualform",
        description="Exact quadratic forms on subspaces and their duals.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["adjugate"]:
        p = sub.add_parser(name)
        p.add_argument("input", help="problem file (JSON), or - for stdin")
        p.add_argument("--field", default=None,
                       help="override the declared field: 'rational' or p")
        p.add_argument("--output", default=None,
                       help="write the result document to a file")
        if name in ("dualize", "normalize"):
            p.add_argument("--half-gram", action="store_true",
                           help="also print half-Gram matrices (char != 2)")
        if name == "linked":
            p.add_argument("--form", required=True,
                           help="dual vector, comma-separated scalars")
        if name == "linked-forms":
            p.add_argument("--vector", required=True,
                           help="vector of S, comma-separated scalars")
        if name == "similarity":
            p.add_argument("--map", required=True,
                           help="JSON file with the matrix P")
            p.add_argument("--ratio", default="1",
                           help="similarity ratio (default 1)")
    return ap


def run(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    override = _field_from_flag(args.field) if args.field else None
    if getattr(args, "half_gram", False):
        probe = override
        if probe is None:
            probe = _field_from_doc(_document(_load_json(text)).get("field"))
        if probe.characteristic() == 2:
            raise ValidationError("--half-gram requires characteristic != 2")
    if args.command == "adjugate":
        doc = _document(_load_json(text))
        field = override or _field_from_doc(doc.get("field"))
        out = _cmd_adjugate(doc, args, field)
    else:
        inst = parse_problem(text, field_override=override)
        out = _COMMANDS[args.command](inst, args)
    payload = json.dumps(out, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except RadicalConditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
