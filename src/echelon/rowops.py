"""Classical Gauss-Jordan elimination with a recorded, replayable operation
log, plus the four-condition RREF validator.

The log witnesses row equivalence: replaying it through apply_ops takes the
input to its reduced form, and every operation is invertible. Operations that
would do nothing (unit scales, zero-coefficient subtractions, self swaps) are
never emitted, so an input already in reduced form yields an empty script.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatchError, InvalidOperationError, ParseError
from .matrices import Matrix
from .scalars import FieldSpec, Scalar, parse_scalar


def _check_row_index(i: int) -> None:
    if i < 1:
        raise IndexError(f"row index {i} out of range (rows are 1-based)")


@dataclass(frozen=True)
class Swap:
    """Interchange rows i and j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        _check_row_index(self.i)
        _check_row_index(self.j)
        if self.i == self.j:
            raise InvalidOperationError("swap of a row with itself")


@dataclass(frozen=True)
class Scale:
    """Multiply row i by the nonzero scalar c."""

    i: int
    c: Scalar

    def __post_init__(self) -> None:
        _check_row_index(self.i)
        if not self.c:
            raise InvalidOperationError("scale by zero is not invertible")


@dataclass(frozen=True)
class Axpy:
    """Subtract c times row `source` from row `target` (the workhorse)."""

    target: int
    source: int
    c: Scalar

    def __post_init__(self) -> None:
        _check_row_index(self.target)
        _check_row_index(self.source)
        if self.target == self.source:
            raise InvalidOperationError("axpy of a row against itself")


RowOp = Swap | Scale | Axpy

# check order is fixed so the first reported violation is deterministic
RREF_CONDITIONS = ("Pivots", "Insecurity", "Downright", "Bottom-zeros")


def rref_violation(m: Matrix) -> str | None:
    """Name the first violated RREF condition, or None if m is in RREF.

    Pivots: the first nonzero entry of every row is a 1. Insecurity: that 1
    is the only nonzero entry in its column. Downright: pivots further right
    sit in lower rows. Bottom-zeros: all-zero rows come last.
    """
    rows = m.raw_rows()
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    for row, lead in zip(rows, leads):
        if lead is not None and row[lead] != 1:
            return "Pivots"
    for i, lead in enumerate(leads):
        if lead is None:
            continue
        for i2, row in enumerate(rows):
            if i2 != i and row[lead]:
                return "Insecurity"
    prev = 0
    for lead in leads:
        if lead is not None:
            if lead < prev:
                return "Downright"
            prev = lead
    seen_zero_row = False
    for lead in leads:
        if lead is None:
            seen_zero_row = True
        elif seen_zero_row:
            return "Bottom-zeros"
    return None


def is_rref(m: Matrix) -> bool:
    return rref_violation(m) is None


@dataclass(frozen=True)
class ReductionResult:
    rref: Matrix
    ops: tuple[RowOp, ...]
    pivot_set: tuple[int, ...]


def gauss_jordan(m: Matrix) -> ReductionResult:
    """Eliminate left to right, clearing above and below each pivot as it is
    placed. Pivot choice is the first nonzero entry scanning top to bottom;
    exact arithmetic needs no magnitude pivoting.

    Row i is held as an integer row over the denominator prev * mus[i],
    which divides to the classical row: prev is the last pivot placed (1
    before the first), and mus[i] the least common denominator of input
    row i until that row becomes a pivot row, then 1. Over Q the steps are
    fraction-free Gauss-Jordan (Bareiss): with pivot p in the pivot row u,
    every other row w becomes (p*w - w[col]*u) / prev, a division that is
    always exact, and p becomes prev. Over GF(p) the pivot row is scaled to
    1, so the steps are the classical ones. The logged coefficients are the
    classical ones."""
    field = m.field
    work, mus = [], []
    for row in m.raw_rows():
        xs, d = field.clear(row)
        work.append(xs)
        mus.append(d)
    ops: list[RowOp] = []
    pivots: list[int] = []
    pivot_row = 0
    prev = 1
    for col in range(m.cols):
        pick = None
        for r in range(pivot_row, m.rows):
            if work[r][col]:
                pick = r
                break
        if pick is None:
            continue
        if pick != pivot_row:
            work[pick], work[pivot_row] = work[pivot_row], work[pick]
            mus[pick], mus[pivot_row] = mus[pivot_row], mus[pick]
            ops.append(Swap(pivot_row + 1, pick + 1))
        pv, d = work[pivot_row][col], prev * mus[pivot_row]
        if pv != d:
            ops.append(Scale(pivot_row + 1, Scalar._make(field, field.quotient(d, pv))))
            work[pivot_row], pv = field.pivot_row(work[pivot_row], col)
        mus[pivot_row] = 1
        prow = work[pivot_row]
        for r in range(m.rows):
            if r == pivot_row:
                continue
            f = work[r][col]
            if f:
                c = field.quotient(f, prev * mus[r])
                ops.append(Axpy(r + 1, pivot_row + 1, Scalar._make(field, c)))
            if f or pv != prev:
                work[r] = field.combine_row(pv, work[r], f, prow, prev)
        prev = pv
        pivots.append(col + 1)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    values = tuple(x for row, mu in zip(work, mus) for x in field.quotients(row, prev * mu))
    return ReductionResult(
        rref=Matrix._raw(m.rows, m.cols, values, field),
        ops=tuple(ops),
        pivot_set=tuple(pivots),
    )


def apply_ops(m: Matrix, ops) -> Matrix:
    """Apply a sequence of row operations, in order, to a copy of m."""
    field, p = m.field, m.field.modulus
    work = m.raw_rows()

    def row_of(i: int) -> list:
        if not 1 <= i <= m.rows:
            raise IndexError(f"row index {i} out of range 1..{m.rows}")
        return work[i - 1]

    for op in ops:
        if isinstance(op, Swap):
            row_of(op.i)
            row_of(op.j)
            work[op.i - 1], work[op.j - 1] = work[op.j - 1], work[op.i - 1]
        elif isinstance(op, Scale):
            if op.c.spec != field:
                raise FieldMismatchError(f"scale in {op.c.spec} applied over {field}")
            work[op.i - 1] = field.scale_row(op.c.value, row_of(op.i))
        elif isinstance(op, Axpy):
            if op.c.spec != field:
                raise FieldMismatchError(f"axpy in {op.c.spec} applied over {field}")
            c, src = op.c.value, row_of(op.source)
            row = [x - c * y for x, y in zip(row_of(op.target), src)]
            work[op.target - 1] = row if p is None else [x % p for x in row]
        else:
            raise TypeError(f"not a row operation: {op!r}")
    return Matrix._raw(m.rows, m.cols, tuple(x for row in work for x in row), field)


def equivalence_script(m: Matrix) -> tuple[RowOp, ...]:
    """A row-operation sequence taking m to its RREF, witnessing that the
    column-sweep result is row equivalent to m (uniqueness makes the two
    reduction routes land on the same matrix)."""
    return gauss_jordan(m).ops


def format_op(op: RowOp) -> str:
    if isinstance(op, Swap):
        return f"swap {op.i} {op.j}"
    if isinstance(op, Scale):
        return f"scale {op.i} {op.c}"
    if isinstance(op, Axpy):
        return f"axpy {op.target} {op.source} {op.c}"
    raise TypeError(f"not a row operation: {op!r}")


def _row_index(token: str) -> int:
    """A row index written in ASCII digits only; int() would also take
    spellings such as `1_0`, `+1` or non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"malformed row index {token!r}")
    return int(token)


def parse_ops(text: str, field: FieldSpec) -> tuple[RowOp, ...]:
    """Parse the one-op-per-line text form: `swap i j`, `scale i c`,
    `axpy i j c` (row i minus c times row j). `#` starts a comment."""
    ops: list[RowOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "swap" and len(parts) == 3:
                op: RowOp = Swap(_row_index(parts[1]), _row_index(parts[2]))
            elif parts[0] == "scale" and len(parts) == 3:
                op = Scale(_row_index(parts[1]), parse_scalar(parts[2], field))
            elif parts[0] == "axpy" and len(parts) == 4:
                op = Axpy(_row_index(parts[1]), _row_index(parts[2]), parse_scalar(parts[3], field))
            else:
                raise InvalidOperationError(f"unrecognized row operation {line!r}")
        except (
            ValueError, IndexError, ZeroDivisionError, InvalidOperationError, ParseError
        ) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        ops.append(op)
    return tuple(ops)
