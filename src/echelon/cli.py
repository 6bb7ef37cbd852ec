"""Command-line surface: parse matrices and systems from files, run the
toolkit operations, and print deterministic plain text (or the same data as
JSON). Exit status is 0 for success/true verdicts, 1 for false verdicts, and
2 for usage, parse, or data errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import EchelonError, ParseError
from .gauche import gauche_rref
from .matrices import Matrix, Vector
from .nullspace import graph_relations, null_basis
from .rowops import equivalence_script, format_op, rref_violation
from .scalars import GF, QQ, FieldSpec, format_values, parse_value
from .systems import Affine, Inconsistent, LinearSystem, row_equivalent, solve, solution_equivalent


def _scalar_rows(text: str, field: FieldSpec, augmented: bool) -> Matrix:
    """The line loop shared by both input formats: `#` starts a comment,
    blank lines are skipped, and every error names its line. Each row of an
    augmented system carries its right-hand-side entry last; the coefficient
    part must have the same width on every line."""
    rows: list[list] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = _augmented_tokens(line.split()) if augmented else line.split()
            row = [parse_value(tok, field) for tok in tokens]
        except (ParseError, ZeroDivisionError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries = len(row) - augmented
        if width is None:
            width = entries
        elif entries != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {entries}")
        rows.append(row)
    if not rows:
        raise ParseError(f"no {'system' if augmented else 'matrix'} rows in input")
    return Matrix._raw(len(rows), len(rows[0]), tuple(x for row in rows for x in row), field)


def _augmented_tokens(tokens: list[str]) -> list[str]:
    """A system row's coefficient tokens followed by its right-hand side."""
    if tokens.count("|") != 1:
        raise ParseError("expected exactly one '|' separator")
    cut = tokens.index("|")
    left, right = tokens[:cut], tokens[cut + 1 :]
    if not left:
        raise ParseError("empty coefficient row")
    if len(right) != 1:
        raise ParseError("expected one right-hand-side entry")
    return left + right


def parse_matrix(text: str, field: FieldSpec) -> Matrix:
    """One matrix row per nonempty line of whitespace-separated scalar
    literals; `#` starts a comment. All rows must have the same length."""
    return _scalar_rows(text, field, augmented=False)


def parse_system(text: str, field: FieldSpec) -> LinearSystem:
    """Augmented format: a matrix row, a lone `|` token, then one
    right-hand-side entry, per line."""
    aug = _scalar_rows(text, field, augmented=True)
    return LinearSystem(aug.take_columns(range(1, aug.cols)), aug.column(aug.cols))


def format_matrix(m: Matrix) -> str:
    return str(m)


def format_vector(v: Vector) -> str:
    return str(v)


def _parse_field_flag(flag: str) -> FieldSpec:
    if flag.lower() == "q":
        return QQ
    if flag.lower().startswith("gf:"):
        digits = flag[3:]
        # ASCII digits only, as for row indices: int() would also take
        # spellings such as `3_1`, `+7`, ` 7` or non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad field flag {flag!r}: modulus must be an integer")
        return GF(int(digits))
    raise ParseError(f"bad field flag {flag!r}: expected 'q' or 'gf:<p>'")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_rref(m, fmt) -> tuple[int, str]:
    res = gauche_rref(m)
    if fmt == "json":
        return 0, json.dumps({"rref": [format_values(row) for row in res.rref.raw_rows()]})
    return 0, format_matrix(res.rref)


def _cmd_pivots(m, fmt) -> tuple[int, str]:
    pivots = gauche_rref(m).pivot_set
    if fmt == "json":
        return 0, json.dumps({"pivots": list(pivots)})
    return 0, " ".join(str(i) for i in pivots)


def _cmd_basis(m, fmt) -> tuple[int, str]:
    indices = gauche_rref(m).pivot_set
    columns = [m.column(j) for j in indices]
    if fmt == "json":
        return 0, json.dumps(
            {"indices": list(indices), "columns": [format_values(c.values) for c in columns]}
        )
    return 0, "\n".join(format_vector(c) for c in columns)


def _cmd_null(m, fmt) -> tuple[int, str]:
    nb = null_basis(m)
    if fmt == "json":
        return 0, json.dumps(
            {"free": list(nb.free_indices), "basis": [format_values(v.values) for v in nb.basis]}
        )
    return 0, "\n".join(format_vector(v) for v in nb.basis)


def _cmd_graph(m, fmt) -> tuple[int, str]:
    rel = graph_relations(m)
    if fmt == "json":
        return 0, json.dumps(
            {
                "free": list(rel.free_indices),
                "relations": [
                    {"pivot": pivot, "coefficients": format_values(coeffs)}
                    for pivot, coeffs in rel.pivot_exprs
                ],
            }
        )
    return 0, "\n".join(rel.lines())


def _cmd_check(m, fmt) -> tuple[int, str]:
    violated = rref_violation(m)
    if fmt == "json":
        payload = {"rref": violated is None}
        if violated is not None:
            payload["violated"] = violated
        return (0 if violated is None else 1), json.dumps(payload)
    if violated is None:
        return 0, "RREF"
    return 1, f"NOT RREF: {violated}"


def _cmd_equiv(a, b, fmt) -> tuple[int, str]:
    verdict = row_equivalent(a, b)
    if fmt == "json":
        return (0 if verdict else 1), json.dumps({"row_equivalent": verdict})
    return (0, "ROW-EQUIVALENT") if verdict else (1, "NOT ROW-EQUIVALENT")


def _cmd_script(m, fmt) -> tuple[int, str]:
    ops = equivalence_script(m)
    if fmt == "json":
        return 0, json.dumps({"ops": [format_op(op) for op in ops]})
    return 0, "\n".join(format_op(op) for op in ops)


def _cmd_solve(system, fmt) -> tuple[int, str]:
    sol = solve(system)
    if isinstance(sol, Inconsistent):
        if fmt == "json":
            return 1, json.dumps({"consistent": False})
        return 1, "INCONSISTENT"
    assert isinstance(sol, Affine)
    if fmt == "json":
        return 0, json.dumps(
            {
                "consistent": True,
                "particular": format_values(sol.particular.values),
                "basis": [format_values(v.values) for v in sol.homogeneous.basis],
            }
        )
    lines = [f"particular: {format_vector(sol.particular)}"]
    lines.extend(f"homogeneous: {format_vector(v)}" for v in sol.homogeneous.basis)
    return 0, "\n".join(lines)


def _cmd_syseq(a, b, fmt) -> tuple[int, str]:
    verdict = solution_equivalent(a, b)
    if fmt == "json":
        return (0 if verdict else 1), json.dumps({"solution_equivalent": verdict})
    return (0, "SOLUTION-EQUIVALENT") if verdict else (1, "NOT SOLUTION-EQUIVALENT")


_ONE_INPUT = {
    "rref": (_cmd_rref, "print the reduced row echelon form"),
    "pivots": (_cmd_pivots, "print the pivot column indices"),
    "basis": (_cmd_basis, "print the column-space basis columns of the input"),
    "null": (_cmd_null, "print a null-space basis, one vector per line"),
    "graph": (_cmd_graph, "print pivot variables as expressions in the free variables"),
    "check": (_cmd_check, "report RREF or the first violated condition"),
    "script": (_cmd_script, "print a row-operation log reducing the input"),
    "solve": (_cmd_solve, "solve an augmented system (rows like 'a b c | d')"),
}

_TWO_INPUT = {
    "equiv": (_cmd_equiv, "decide row equivalence of two matrices"),
    "syseq": (_cmd_syseq, "decide solution equivalence of two consistent systems"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default="q",
        metavar="FIELD",
        help="scalar field: 'q' for rationals (default), 'gf:<p>' for a prime field",
    )
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("plain", "json"),
        default="plain",
        help="output format (default plain)",
    )
    parser = argparse.ArgumentParser(
        prog="echelon",
        description="Exact linear algebra: reduced echelon forms, null spaces, and systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _ONE_INPUT.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path", help="input file")
    for name, (_, help_text) in _TWO_INPUT.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path_a", help="first input file")
        p.add_argument("path_b", help="second input file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = (_ONE_INPUT | _TWO_INPUT)[args.command][0]
    paths = [args.path] if args.command in _ONE_INPUT else [args.path_a, args.path_b]
    parse = parse_system if args.command in ("solve", "syseq") else parse_matrix
    try:
        field = _parse_field_flag(args.field)
        inputs = [parse(_read(path), field) for path in paths]
        # answers print in full; input literals keep the interpreter's int
        # digit limit (Python 3.11+), as reading a long one takes quadratic time
        lift = getattr(sys, "set_int_max_str_digits", None)
        limit = lift and sys.get_int_max_str_digits()
        if lift:
            lift(0)
        try:
            code, output = handler(*inputs, args.fmt)
        finally:
            if lift:
                lift(limit)
    except (EchelonError, OSError, ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return code


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
