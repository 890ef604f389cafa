"""Batch front end: JSON problem files in, JSON documents out.

Scalars travel as strings ("-3/2", "4"; decimal residues over GF(p)) so the
wire format stays exact.  Indices in files are 0-based.  Exit codes: 0 on
success, 1 on parse/validation errors, 2 when no dual form exists because
the form fails to vanish on its radical.

A row of wire scalars (an S vector, Q's diagonal, Q's upper values, a row
of P or M, --form or --vector) is read by one match of the row grammar,
the field's scalar grammar between optional whitespace with the entries
joined by a comma, and converted by builtins.  A row that the grammar
refuses, or that holds a non-text entry, an entry longer than MAX_DIGITS
characters or a zero denominator, is read scalar by scalar, so every
error and its order are those of the scalar reader.  The result document
goes to stdout as the indent-2 JSON that ``json.dumps(doc, indent=2)``
would print, followed by a newline.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .dual import double_dual_check, dualize, linked_coset, linked_forms
from .errors import (AlgebraError, ParseError, RadicalConditionViolated,
                     ValidationError)
from .fields import _RATIONAL, _RESIDUE, make_field
from .linalg import Matrix, adjugate, dot
from .normal import char2_normal_form, diagonalize
from .quadform import MetricSpace, QuadraticForm
from .similarity import LinearMap, theorem_psi_check

# Largest n and adjugate size accepted: far above every tested size (n <= 32),
# small enough that the n x n matrices a command builds fit in memory.
MAX_DIM = 512
# Most decimal digits in one wire scalar, a JSON int or the text of a
# rational (numerator and denominator together): far above every tested
# scalar and well below the 4300 digits of Python's int/str limit.  A longer
# scalar is refused before any arithmetic on it.
MAX_DIGITS = 1000
_INT_LIMIT = 10 ** MAX_DIGITS
# Neither the scalar grammars nor whitespace accept the comma, so in a row
# that the row grammar matches each comma separates two tokens.
_ROW = {g: re.compile(rf"\s*(?:{g.pattern})\s*(?:,\s*(?:{g.pattern})\s*)*")
        for g in (_RATIONAL, _RESIDUE)}


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    except ValueError:  # an int literal over the int/str digit limit
        raise ParseError("invalid JSON: integer literal has too many digits")
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply")


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
    """The field --field names: 'rational', in any case, or a prime in
    ASCII digits, [0-9]+, the grammar of a file's scalars without sign."""
    if text.lower() == "rational":
        return make_field("rational")
    try:
        if text.isascii() and text.isdigit():
            return make_field("prime", int(text))
    except ValueError:  # past Python's int/str conversion digit limit
        pass
    raise ValidationError(f"--field must be 'rational' or a prime, "
                          f"got {text!r}")


def _too_long(where):
    return ValidationError(f"scalar in {where} has more than the limit of "
                           f"{MAX_DIGITS} digits")


def _parse_scalar(field, value, where):
    """A wire scalar, a JSON int or the text of one, as a field element.
    Only a text longer than MAX_DIGITS has its digits counted."""
    if isinstance(value, str):
        if len(value) > MAX_DIGITS and \
                sum(map(value.count, "0123456789")) > MAX_DIGITS:
            raise _too_long(where)
    elif _is_int(value) and abs(value) >= _INT_LIMIT:
        raise _too_long(where)
    try:
        if isinstance(value, str):
            return field.parse(value)
        if _is_int(value):
            return field.scalar(value)
    except AlgebraError:
        pass
    raise ValidationError(f"bad scalar {value!r} in {where}")


def _read_row(field, row):
    """The wire scalars of the list row as field elements, equal to
    _parse_scalar's, by one match of the row grammar; None for an empty
    row, or if an entry is not text, is longer than MAX_DIGITS
    characters, contains a comma or does not match, or over the rationals
    has a zero denominator."""
    try:
        text = ",".join(row)
    except TypeError:  # an entry that is not text
        return None
    if len(text) > MAX_DIGITS and max(map(len, row)) > MAX_DIGITS:
        return None
    p = field.characteristic()
    if not _ROW[_RESIDUE if p else _RATIONAL].fullmatch(text):
        return None
    tokens = text.replace(",", " ").split()
    if len(tokens) != len(row):  # an entry contained a comma
        return None
    if p:
        return [x % p for x in map(int, tokens)]
    try:
        return [Fraction(int(num), int(den)) if den else Fraction(int(num))
                for num, _, den in (t.partition("/") for t in tokens)]
    except ZeroDivisionError:
        return None


def _parse_row(field, row, where):
    """The list row of wire scalars as a list of field elements."""
    return _read_row(field, row) or [_parse_scalar(field, x, where)
                                     for x in row]


def parse_problem(text, field_override=None):
    """Problem file -> MetricSpace; location-carrying errors otherwise."""
    doc = _document(_load_json(text) if isinstance(text, str) else text)
    for key in ("field", "n", "S", "Q"):
        if key not in doc:
            raise ValidationError(f"missing top-level key {key!r}")
    field = field_override or _field_from_doc(doc["field"])
    n = doc["n"]
    if not _is_int(n) or not 0 <= n <= MAX_DIM:
        raise ValidationError(f"'n' must be an integer from 0 to the limit "
                              f"{MAX_DIM}")
    rows = doc["S"]
    if not isinstance(rows, list):
        raise ValidationError("'S' must be a list of vectors")
    basis = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"S[{r}] must be a vector of length {n}")
        basis.append(_parse_row(field, row, f"S[{r}]"))
    q = doc["Q"]
    if not isinstance(q, dict) or "diag" not in q:
        raise ValidationError("'Q' must be an object with 'diag'")
    m = len(basis)
    diag = q["diag"]
    if not isinstance(diag, list) or len(diag) != m:
        raise ValidationError(f"Q.diag must list {m} scalars")
    diag = _parse_row(field, diag, "Q.diag")
    entries = q.get("upper", [])
    if not isinstance(entries, list):
        raise ValidationError("Q.upper must be a list")
    # The values read as one row: when that succeeds no scalar error can
    # come first, so the loop raises the first error of an entry's shape
    # or indices, as it does when it reads each value after its indices.
    values = _read_row(field, [e[2] if isinstance(e, list) and len(e) == 3
                               else None for e in entries])
    upper = {}
    for k, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValidationError("Q.upper entries must be [i, j, value]")
        i, j, v = entry
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < m):
            raise ValidationError(f"Q.upper index ({i}, {j}) out of order "
                                  f"or range")
        if (i, j) in upper:
            raise ValidationError(f"Q.upper pair ({i}, {j}) listed twice")
        upper[(i, j)] = values[k] if values else _parse_scalar(
            field, v, f"Q.upper[{i},{j}]")
    try:
        return MetricSpace(field, n, basis, QuadraticForm(field, diag, upper))
    except AlgebraError as exc:
        raise ValidationError(str(exc))


def _fmt_vec(v, den=1):
    """The scalars of v over den as wire text; over the rationals v may be
    the ints of a cleared row (see Matrix), each written as reduced
    num/den text, as str writes its Fraction."""
    try:
        if den == 1:
            return list(map(str, v))
        return [str(x // den) if (g := gcd(x, den)) == den
                else f"{x // g}/{den // g}" for x in v]
    except ValueError:  # over Python's int/str conversion digit limit
        raise ValidationError("result scalar has too many digits to print")


def _fmt_mat(M):
    """The rows of M as wire text, written from its rows as (ints, dens)
    (see Matrix._ints), so that no Fraction is built."""
    return list(map(_fmt_vec, *M._ints()))


def _fmt_form(field, form):
    return {
        "diag": _fmt_vec(form.diag),
        "upper": [[i, j, field.format(form.upper[(i, j)])]
                  for (i, j) in sorted(form.upper)],
    }


def _half_gram(inst):
    F = inst.field
    return _fmt_mat(inst.polar_gram().scale(F.halve(F.one)))


def _fmt_coset(coset):
    return {
        "representative": _fmt_vec(coset.representative),
        "radical_basis": _fmt_mat(coset.radical.basis),
    }


def _parse_vector_flag(field, text, n, name):
    parts = [p.strip() for p in text.split(",")] if text else []
    if len(parts) != n:
        raise ValidationError(f"{name} must have {n} comma-separated entries")
    return tuple(_parse_row(field, parts, name))


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
        "dual_basis": _fmt_mat(res.dual._basis),
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
    return _fmt_coset(linked_coset(inst, f_star))


def _cmd_linked_forms(inst, args):
    s = _parse_vector_flag(inst.field, args.vector, inst.n, "--vector")
    return _fmt_coset(linked_forms(inst, s))


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


def _parse_square(field, rows, n, name):
    """rows, n lists of n wire scalars, as a Matrix; shape checked first."""
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValidationError(f"{name} must be a {n} x {n} matrix")
    return Matrix(field, [_parse_row(field, row, name) for row in rows],
                  cols=n)


def _cmd_similarity(inst, args):
    with open(args.map, "r", encoding="utf-8") as fh:
        mdoc = _load_json(fh.read())
    if not isinstance(mdoc, dict) or "P" not in mdoc:
        raise ValidationError("map file must contain key 'P'")
    P = _parse_square(inst.field, mdoc["P"], inst.n, "P")
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
    if not isinstance(rows, list):
        raise ValidationError("M must be a square matrix")
    if len(rows) > MAX_DIM:
        raise ValidationError(f"M: {len(rows)} rows, over the limit {MAX_DIM}")
    M = _parse_square(field, rows, len(rows), "M")
    adj = adjugate(M)
    # adj * M = det * I, so det is entry (0, 0) of that product
    d = dot(field, adj.row(0), M.column(0)) if M.rows else field.one
    return {
        "det": field.format(d),
        "adjugate": _fmt_mat(adj),
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


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    call in the process; callers must not mutate it."""
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


def _dumps(doc, indent="\n"):
    """json.dumps(doc, indent=2) for the values the commands build: dicts
    with text keys, lists, text, bools and ints; the lines of a nested
    value are led by indent."""
    if isinstance(doc, str):
        return _quote(doc)
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if not isinstance(doc, (dict, list)):
        raise TypeError(f"cannot write {type(doc).__name__} as JSON")
    if not doc:
        return "{}" if isinstance(doc, dict) else "[]"
    inner = indent + "  "
    if isinstance(doc, dict):
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    try:  # a row of text, the most common list
        items = list(map(_quote, doc))
    except TypeError:
        items = [_dumps(v, inner) for v in doc]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def run(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    # the --field override, or the field the --half-gram probe built
    field = _field_from_flag(args.field) if args.field else None
    doc = None
    if getattr(args, "half_gram", False):
        if field is None:
            doc = _document(_load_json(text))
            field = _field_from_doc(doc.get("field"))
        if field.characteristic() == 2:
            raise ValidationError("--half-gram requires characteristic != 2")
    if doc is None:
        doc = _document(_load_json(text))
    if args.command == "adjugate":
        field = field or _field_from_doc(doc.get("field"))
        out = _cmd_adjugate(doc, args, field)
    else:
        inst = parse_problem(doc, field_override=field)
        out = _COMMANDS[args.command](inst, args)
    payload = _dumps(out) + "\n"
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
    except (AlgebraError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
