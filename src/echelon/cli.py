"""Command-line surface: parse matrices and systems from files, run the
toolkit operations, and print deterministic plain text or the same data as
JSON. Each command returns its exit code, JSON payload and plain text, built
from one set of formatted strings; main prints one of the two. Exit status is
0 for success/true verdicts, 1 for false verdicts, and 2 for usage, parse, or
data errors.
"""
from __future__ import annotations

import os
import sys
from functools import cache, partial
from itertools import chain

from .errors import EchelonError, ParseError
from .gauche import gauche_rref
from .matrices import Matrix
from .nullspace import basis_rows, graph_relations, relation_lines
from .rowops import _gauss_jordan, rref_violation
from .scalars import GF, QQ, FieldSpec, data_lines, format_values, parse_value, text_lines
from .systems import Inconsistent, LinearSystem, row_equivalent, solve, solution_equivalent


def _scalar_rows(text: str, field: FieldSpec, augmented: bool) -> Matrix:
    """The line loop shared by both input formats: `#` starts a comment,
    blank lines are skipped, and every error names its line. Each row of an
    augmented system carries its right-hand-side entry last; the coefficient
    part must have the same width on every line.

    An ASCII line without `/`, `+` or `_` is read by int() in one call. If
    int() rejects it, or the line holds other literals, its tokens go
    through parse_value, so every diagnostic is the same on either path."""
    rows: list[list] = []
    width = None
    # each distinct literal of the file is parsed once: parse_value depends
    # on nothing but the token and the field
    p, literal = field.modulus, cache(partial(parse_value, field=field))
    for lineno, line in data_lines(text):
        try:
            tokens = _augmented_tokens(line.split()) if augmented else line.split()
            row = None
            if line.isascii() and not ("/" in line or "+" in line or "_" in line):
                try:
                    row = list(map(int, tokens))
                    row = row if p is None else [x % p for x in row]
                except ValueError:
                    pass
            if row is None:
                row = list(map(literal, tokens))
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
    return Matrix._raw(len(rows), len(rows[0]), tuple(chain.from_iterable(rows)), field)


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
    """The file as UTF-8 text; a bad byte names its line, as data_lines counts lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(text_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(f"line {line}: not UTF-8: {exc.reason} 0x{data[exc.start]:02x}") from None


def _rows_text(rows: list[list[str]]) -> str:
    return "\n".join(map(" ".join, rows))


def _verdict(key: str, text: str, holds: bool) -> tuple[int, dict, str]:
    return (0 if holds else 1), {key: holds}, text if holds else f"NOT {text}"


def _cmd_rref(m) -> tuple[int, dict, str]:
    rows = [format_values(row) for row in gauche_rref(m).rref.raw_rows()]
    return 0, {"rref": rows}, _rows_text(rows)


def _cmd_pivots(m) -> tuple[int, dict, str]:
    pivots = list(gauche_rref(m).pivot_set)
    return 0, {"pivots": pivots}, " ".join(map(str, pivots))


def _cmd_basis(m) -> tuple[int, dict, str]:
    indices = list(gauche_rref(m).pivot_set)
    columns = [format_values(m.values[j - 1 :: m.cols]) for j in indices]
    return 0, {"indices": indices, "columns": columns}, _rows_text(columns)


def _null_rows(rel) -> list[list[str]]:
    """The literal rows of the null basis, laid out from the relations."""
    return basis_rows(rel.free_indices, rel.literals(), "0", "1")


def _cmd_null(m) -> tuple[int, dict, str]:
    rel = graph_relations(m)
    basis = _null_rows(rel)
    return 0, {"free": list(rel.free_indices), "basis": basis}, _rows_text(basis)


def _cmd_graph(m) -> tuple[int, dict, str]:
    rel = graph_relations(m)
    exprs = rel.literals()
    relations = [{"pivot": p, "coefficients": c} for p, c in exprs]
    text = "\n".join(relation_lines(rel.free_indices, exprs))
    return 0, {"free": list(rel.free_indices), "relations": relations}, text


def _cmd_check(m) -> tuple[int, dict, str]:
    violated = rref_violation(m)
    if violated is None:
        return 0, {"rref": True}, "RREF"
    return 1, {"rref": False, "violated": violated}, f"NOT RREF: {violated}"


def _cmd_equiv(a, b) -> tuple[int, dict, str]:
    return _verdict("row_equivalent", "ROW-EQUIVALENT", row_equivalent(a, b))


def _cmd_script(m) -> tuple[int, dict, str]:
    # each raw log entry, its fields separated by spaces, is its line: %s of
    # a raw value is its literal, as format_op writes a Scalar; finish, which
    # builds the RREF, is never called
    ops = [
        ("%s %s %s" if len(entry) == 3 else "%s %s %s %s") % entry
        for entry in _gauss_jordan(m)[0]
    ]
    return 0, {"ops": ops}, "\n".join(ops)


def _cmd_solve(system) -> tuple[int, dict, str]:
    sol = solve(system)
    if isinstance(sol, Inconsistent):
        return 1, {"consistent": False}, "INCONSISTENT"
    particular = format_values(sol.particular.values)
    basis = _null_rows(sol.homogeneous)
    text = _rows_text([["particular:", *particular]] + [["homogeneous:", *v] for v in basis])
    return 0, {"consistent": True, "particular": particular, "basis": basis}, text


def _cmd_syseq(a, b) -> tuple[int, dict, str]:
    return _verdict("solution_equivalent", "SOLUTION-EQUIVALENT", solution_equivalent(a, b))


_COMMANDS = {
    "rref": (_cmd_rref, parse_matrix, 1, "print the reduced row echelon form"),
    "pivots": (_cmd_pivots, parse_matrix, 1, "print the pivot column indices"),
    "basis": (_cmd_basis, parse_matrix, 1, "print the column-space basis columns of the input"),
    "null": (_cmd_null, parse_matrix, 1, "print a null-space basis, one vector per line"),
    "graph": (
        _cmd_graph, parse_matrix, 1, "print pivot variables as expressions in the free variables"
    ),
    "check": (_cmd_check, parse_matrix, 1, "report RREF or the first violated condition"),
    "script": (_cmd_script, parse_matrix, 1, "print a row-operation log reducing the input"),
    "solve": (_cmd_solve, parse_system, 1, "solve an augmented system (rows like 'a b c | d')"),
    "equiv": (_cmd_equiv, parse_matrix, 2, "decide row equivalence of two matrices"),
    "syseq": (
        _cmd_syseq, parse_system, 2, "decide solution equivalence of two consistent systems"
    ),
}


def _plain_args(argv: list[str]) -> tuple[str, list[str], str, str] | None:
    """(command, files, field flag, format) of an argv in the plain form,
    else None: the command first, then exactly its number of FILEs and
    `--field V`, `--format V`, `--field=V` or `--format=V` in any order,
    where V does not start with `-`, every format given is plain or json
    (argparse checks each, not only the last), and no other argument starts
    with `-`. argparse reads such an argv the same way; it reads every
    other one, and so stays the one author of help, usage and error text."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    files, field, fmt = [], "q", "plain"
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if not eq:
            value = next(rest, "-")  # a trailing option has no value
        if value.startswith("-"):
            return None
        if name == "--field":
            field = value
        elif name == "--format" and value in ("plain", "json"):
            fmt = value
        else:
            return None
    if len(files) != _COMMANDS[argv[0]][2]:
        return None
    return argv[0], files, field, fmt


@cache
def build_parser():
    """The one argparse.ArgumentParser of the process, built on first use;
    only an argv that is not in the plain form loads argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="echelon",
        description="Exact linear algebra: reduced echelon forms, null spaces, and systems.",
        epilog="commands:\n"
        + "\n".join(
            f"  {name:<7} {' '.join(['FILE'] * count):<10} {help_text}"
            for name, (_, _, count, help_text) in _COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("files", nargs="+", metavar="FILE", help="input file")
    parser.add_argument(
        "--field",
        default="q",
        metavar="FIELD",
        help="scalar field: 'q' for rationals (default), 'gf:<p>' for a prime field",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("plain", "json"),
        default="plain",
        help="output format (default plain)",
    )
    # preset, or parse_intermixed_args renders the usage text on every call
    parser.usage = parser.format_usage()[7:]
    return parser


def _parsed_args(argv: list[str]) -> tuple[str, list[str], str, str]:
    """What _plain_args gives, read by the parser; a usage error, or help,
    raises SystemExit once argparse has printed it."""
    parser = build_parser()
    # intermixed: parse_args ends FILE at the first option, so in
    # `equiv A --field gf:7 B` the B would be an unrecognized argument
    args = parser.parse_intermixed_args(argv)
    count = _COMMANDS[args.command][2]
    if len(args.files) != count:
        parser.error(
            f"{args.command} takes {count} FILE{'s' * (count > 1)}, got {len(args.files)}"
        )
    return args.command, args.files, args.field, args.fmt


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parsed_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    command, files, flag, fmt = args
    handler, parse, _, _ = _COMMANDS[command]
    try:
        field = _parse_field_flag(flag)
        inputs = [parse(_read(path), field) for path in files]
        # answers print in full; input literals keep the interpreter's int
        # digit limit (Python 3.11+), as reading a long one takes quadratic time
        lift = getattr(sys, "set_int_max_str_digits", None)
        limit = lift and sys.get_int_max_str_digits()
        if lift:
            lift(0)
        try:
            code, payload, text = handler(*inputs)
            output = text
            if fmt == "json":
                import json  # plain output never loads it
                output = json.dumps(payload)
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
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, as `head` does: stdout goes to devnull so the
        # flush at exit raises nothing, and 141 is 128 + SIGPIPE, as in a shell
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
