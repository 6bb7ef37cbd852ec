"""Classical Gauss-Jordan elimination with a recorded, replayable operation
log, plus the four-condition RREF validator.

The log witnesses row equivalence: replaying it through apply_ops takes the
input to its reduced form, and every operation is invertible. Operations that
would do nothing (unit scales, zero-coefficient subtractions, self swaps) are
never emitted, so an input already in reduced form yields an empty script.
"""
from __future__ import annotations

from itertools import compress, count

from .errors import FieldMismatchError, InvalidOperationError, ParseError
from .matrices import Matrix, index_offset
from .scalars import FieldSpec, Frozen, Scalar, as_scalar, data_lines


def _check_row_indices(*rows: int) -> None:
    for i in rows:
        if i < 1:
            raise IndexError(f"row index {i} out of range (rows are 1-based)")


class Swap(Frozen):
    """Interchange rows i and j."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        _check_row_indices(i, j)
        if i == j:
            raise InvalidOperationError("swap of a row with itself")
        self._freeze(i, j)


class Scale(Frozen):
    """Multiply row i by the nonzero scalar c."""

    __slots__ = ("i", "c")

    def __init__(self, i: int, c: Scalar):
        _check_row_indices(i)
        if not c:
            raise InvalidOperationError("scale by zero is not invertible")
        self._freeze(i, c)


class Axpy(Frozen):
    """Subtract c times row `source` from row `target` (the workhorse)."""

    __slots__ = ("target", "source", "c")

    def __init__(self, target: int, source: int, c: Scalar):
        _check_row_indices(target, source)
        if target == source:
            raise InvalidOperationError("axpy of a row against itself")
        self._freeze(target, source, c)


RowOp = Swap | Scale | Axpy

# check order is fixed so the first reported violation is deterministic
RREF_CONDITIONS = ("Pivots", "Insecurity", "Downright", "Bottom-zeros")


def rref_violation(m: Matrix) -> str | None:
    """Name the first violated RREF condition, or None if m is in RREF.

    Pivots: the first nonzero entry of every row is a 1. Insecurity: that 1
    is the only nonzero entry in its column. Downright: pivots further right
    sit in lower rows. Bottom-zeros: all-zero rows come last.
    """
    values, cols = m.values, m.cols
    rows = [values[i : i + cols] for i in range(0, len(values), cols)]
    # (row index, pivot column) of each nonzero row, top to bottom
    pivots = [(i, next(compress(count(), row))) for i, row in enumerate(rows) if any(row)]
    if any(rows[i][j] != 1 for i, j in pivots):
        return "Pivots"
    if any(row[j] for i, j in pivots for k, row in enumerate(rows) if k != i):
        return "Insecurity"
    if pivots != sorted(pivots, key=lambda pivot: pivot[1]):
        return "Downright"
    if [i for i, _ in pivots] != list(range(len(pivots))):
        return "Bottom-zeros"
    return None


def is_rref(m: Matrix) -> bool:
    return rref_violation(m) is None


class ReductionResult(Frozen):
    __slots__ = ("rref", "ops", "pivot_set")

    def __init__(self, rref: Matrix, ops: tuple[RowOp, ...], pivot_set: tuple[int, ...]):
        self._freeze(rref, ops, pivot_set)


def gauss_jordan(m: Matrix) -> ReductionResult:
    """Eliminate left to right, clearing above and below each pivot as it is
    placed. Pivot choice is the first nonzero entry scanning top to bottom;
    exact arithmetic needs no magnitude pivoting. The logged coefficients
    are the classical ones. The kernel logs raw tuples; each becomes a
    RowOp here, its coefficient a Scalar."""
    log, pivot_set, finish = _gauss_jordan(m)
    field = m.field

    def op(kind, *args) -> RowOp:
        if kind == "swap":
            return Swap._raw(*args)
        *rows, c = args
        return (Scale if kind == "scale" else Axpy)._raw(*rows, Scalar._raw(field, c))

    return ReductionResult(finish(), tuple([op(*entry) for entry in log]), pivot_set)


def _gauss_jordan(m: Matrix):
    """The raw op log and the pivot set of m, from the kernel of its field,
    and finish(), which builds the RREF from the kernel's rows when called.
    The log holds ("swap", i, j), ("scale", i, c) and ("axpy", i, j, c), c a
    raw value, so each entry joined by spaces is the op's line in the text
    form parse_ops reads."""
    return (_fraction_free_gauss_jordan if m.field.modulus is None else _packed_gauss_jordan)(m)


def _fraction_free_gauss_jordan(m: Matrix):
    """_gauss_jordan over Q. Row i is held as an integer row over the
    denominator prev * mus[i], which divides to the classical row: prev is
    the last pivot placed (1 before the first), and mus[i] the least common
    denominator of input row i until that row becomes a pivot row, then 1.
    The steps are fraction-free Gauss-Jordan (Bareiss): with pivot p in the
    pivot row u, every other row w becomes (p*w - w[col]*u) / prev, a
    division that is always exact, and p becomes prev. Each logged
    coefficient is one quotient, a raw value; finish divides every row once."""
    field = m.field
    cleared = [field.clear(row) for row in m.raw_rows()]
    work, mus = [xs for xs, _ in cleared], [d for _, d in cleared]
    log: list[tuple] = []
    pivots: list[int] = []
    pivot_row = 0
    prev = 1
    for col in range(m.cols):
        pick = next((r for r in range(pivot_row, m.rows) if work[r][col]), None)
        if pick is None:
            continue
        if pick != pivot_row:
            work[pick], work[pivot_row] = work[pivot_row], work[pick]
            mus[pick], mus[pivot_row] = mus[pivot_row], mus[pick]
            log.append(("swap", pivot_row + 1, pick + 1))
        pv, d = work[pivot_row][col], prev * mus[pivot_row]
        if pv != d:
            log.append(("scale", pivot_row + 1, field.quotient(d, pv)))
        mus[pivot_row] = 1
        prow = work[pivot_row]
        for r in range(m.rows):
            if r == pivot_row:
                continue
            f = work[r][col]
            if f:
                log.append(("axpy", r + 1, pivot_row + 1, field.quotient(f, prev * mus[r])))
            if f or pv != prev:
                work[r] = [(pv * x - f * y) // prev for x, y in zip(work[r], prow)]
        prev = pv
        pivots.append(col + 1)
        pivot_row += 1
        if pivot_row == m.rows:
            break

    def finish() -> Matrix:
        values = tuple(x for row, mu in zip(work, mus) for x in field.quotients(row, prev * mu))
        return Matrix._raw(m.rows, m.cols, values, field)

    return log, tuple(pivots), finish


def _packed_gauss_jordan(m: Matrix):
    """_gauss_jordan over GF(p). Every row is packed into one int (see
    FieldSpec), and slot col of a row is read inline as its least residue.
    The pivot row is unpacked, reduced and scaled to pivot 1 when it is
    chosen; every other row w with residue f in the pivot column takes one
    multiply-add, w + (p - f)*u, and f is the logged coefficient. A row
    takes at most one update per pivot, so slot_bits(min(rows, cols)) bounds
    every slot; finish unpacks every row once."""
    field, p, cols = m.field, m.field.modulus, m.cols
    w = field.slot_bits(min(m.rows, cols))
    mask = (1 << w) - 1
    work = [field.pack(row, w) for row in m.raw_rows()]
    log: list[tuple] = []
    pivots: list[int] = []
    pivot_row = 0
    for col in range(cols):
        shift = col * w
        pick = next((r for r in range(pivot_row, m.rows) if (work[r] >> shift & mask) % p), None)
        if pick is None:
            continue
        if pick != pivot_row:
            work[pick], work[pivot_row] = work[pivot_row], work[pick]
            log.append(("swap", pivot_row + 1, pick + 1))
        prow = field.unpack(work[pivot_row], cols, w)
        if prow[col] != 1:
            c = field.inverse(prow[col])
            log.append(("scale", pivot_row + 1, c))
            prow = field.scale_row(c, prow)
        u = work[pivot_row] = field.pack(prow, w)
        for r in range(m.rows):
            if r == pivot_row:
                continue
            f = (work[r] >> shift & mask) % p
            if f:
                log.append(("axpy", r + 1, pivot_row + 1, f))
                work[r] += (p - f) * u
        pivots.append(col + 1)
        pivot_row += 1
        if pivot_row == m.rows:
            break

    def finish() -> Matrix:
        values = tuple(x for row in work for x in field.unpack(row, cols, w))
        return Matrix._raw(m.rows, cols, values, field)

    return log, tuple(pivots), finish


def apply_ops(m: Matrix, ops) -> Matrix:
    """Apply a sequence of row operations, in order, to a copy of m; every
    entry an op writes is canonical, as FieldSpec.raw gives it."""
    field, raw = m.field, m.field.raw
    work = m.raw_rows()

    def row_of(i: int) -> list:
        return work[index_offset("row", i, m.rows)]

    for op in ops:
        if isinstance(op, Swap):
            i, j = index_offset("row", op.i, m.rows), index_offset("row", op.j, m.rows)
            work[i], work[j] = work[j], work[i]
        elif isinstance(op, Scale):
            if op.c.spec != field:
                raise FieldMismatchError(f"scale in {op.c.spec} applied over {field}")
            work[op.i - 1] = [raw(op.c.value * x) for x in row_of(op.i)]
        elif isinstance(op, Axpy):
            if op.c.spec != field:
                raise FieldMismatchError(f"axpy in {op.c.spec} applied over {field}")
            c, src = op.c.value, row_of(op.source)
            work[op.target - 1] = [raw(x - c * y) for x, y in zip(row_of(op.target), src)]
        else:
            raise TypeError(f"not a row operation: {op!r}")
    return Matrix._raw(m.rows, m.cols, tuple(x for row in work for x in row), field)


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
    for lineno, line in data_lines(text):
        parts = line.split()
        try:
            if parts[0] == "swap" and len(parts) == 3:
                op: RowOp = Swap(_row_index(parts[1]), _row_index(parts[2]))
            elif parts[0] == "scale" and len(parts) == 3:
                op = Scale(_row_index(parts[1]), as_scalar(parts[2], field))
            elif parts[0] == "axpy" and len(parts) == 4:
                op = Axpy(_row_index(parts[1]), _row_index(parts[2]), as_scalar(parts[3], field))
            else:
                raise InvalidOperationError(f"unrecognized row operation {line!r}")
        except (
            ValueError, IndexError, ZeroDivisionError, InvalidOperationError, ParseError
        ) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        ops.append(op)
    return tuple(ops)
