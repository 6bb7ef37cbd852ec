"""Dense exact matrices and column vectors.

Storage is row-major and immutable: a tuple of raw values (see scalars),
set once through `__dict__`, as the classes are frozen. The public
constructors take Scalars and reject entries from another field; internal
code builds from raw values with `_raw`, unchecked. `entries` and `entry`
make Scalars on demand. All external indices are 1-based, so "column 1" is
the leftmost column and "entry 1" the top of a vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ShapeError
from .scalars import FieldSpec, Scalar, as_scalar, format_values


def _raw_values(entries: Iterable[Scalar], field: FieldSpec, kind: str) -> tuple:
    """The raw values of Scalars, each of which must lie in the field."""
    values = []
    for e in entries:
        if e.spec is not field and e.spec != field:
            raise FieldMismatchError(f"entry in {e.spec} inside a {field} {kind}")
        values.append(e.value)
    return tuple(values)


@dataclass(frozen=True, init=False)
class Vector:
    values: tuple
    field: FieldSpec

    def __init__(self, entries: Sequence[Scalar], field: FieldSpec):
        if not entries:
            raise ShapeError("a vector needs at least one entry")
        self.__dict__.update(values=_raw_values(entries, field, "vector"), field=field)

    @classmethod
    def _raw(cls, values: tuple, field: FieldSpec) -> Vector:
        v = cls.__new__(cls)
        v.__dict__.update(values=values, field=field)
        return v

    @classmethod
    def from_values(cls, values: Iterable, field: FieldSpec) -> Vector:
        return cls(tuple(as_scalar(v, field) for v in values), field)

    @classmethod
    def zero(cls, dim: int, field: FieldSpec) -> Vector:
        return cls((field.zero(),) * dim, field)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.field, v) for v in self.values)

    @property
    def dim(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeError(f"cannot add vectors of dimension {self.dim} and {other.dim}")
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)), self.field)

    def __rmul__(self, scalar):
        if not isinstance(scalar, Scalar):
            return NotImplemented
        return Vector(tuple(scalar * e for e in self.entries), self.field)

    def __str__(self) -> str:
        return " ".join(format_values(self.values))


def std_basis(dim: int, i: int, field: FieldSpec) -> Vector:
    """The unit vector with a 1 in slot i (1-based) and zeros elsewhere."""
    if not 1 <= i <= dim:
        raise IndexError(f"basis index {i} out of range 1..{dim}")
    return Vector._raw(tuple(int(k == i) for k in range(1, dim + 1)), field)


@dataclass(frozen=True, init=False)
class Matrix:
    rows: int
    cols: int
    values: tuple  # row-major
    field: FieldSpec

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar], field: FieldSpec):
        if rows < 1 or cols < 1:
            raise ShapeError("matrices must have at least one row and one column")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        values = _raw_values(entries, field, "matrix")
        self.__dict__.update(rows=rows, cols=cols, values=values, field=field)

    @classmethod
    def _raw(cls, rows: int, cols: int, values: tuple, field: FieldSpec) -> Matrix:
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, values=values, field=field)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field: FieldSpec) -> Matrix:
        if not rows:
            raise ShapeError("no rows given")
        width = len(rows[0])
        entries: list[Scalar] = []
        for row in rows:
            if len(row) != width:
                raise ShapeError(f"ragged rows: expected {width} entries, got {len(row)}")
            entries.extend(as_scalar(v, field) for v in row)
        return cls(len(rows), width, tuple(entries), field)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> Matrix:
        if not columns:
            raise ShapeError("no columns given")
        dim = columns[0].dim
        field = columns[0].field
        for c in columns:
            if c.dim != dim:
                raise ShapeError("columns differ in dimension")
            if c.field is not field and c.field != field:
                raise FieldMismatchError(f"entry in {c.field} inside a {field} matrix")
        values = tuple(x for row in zip(*[c.values for c in columns]) for x in row)
        return cls._raw(dim, len(columns), values, field)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> Matrix:
        zero, one = field.zero(), field.one()
        entries = tuple(one if r == c else zero for r in range(n) for c in range(n))
        return cls(n, n, entries, field)

    @classmethod
    def zero(cls, rows: int, cols: int, field: FieldSpec) -> Matrix:
        return cls(rows, cols, (field.zero(),) * (rows * cols), field)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.field, v) for v in self.values)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not 1 <= i <= self.rows:
            raise IndexError(f"row index {i} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise IndexError(f"column index {j} out of range 1..{self.cols}")
        return Scalar(self.field, self.values[(i - 1) * self.cols + (j - 1)])

    def row(self, i: int) -> Vector:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row index {i} out of range 1..{self.rows}")
        start = (i - 1) * self.cols
        return Vector._raw(self.values[start : start + self.cols], self.field)

    def column(self, j: int) -> Vector:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column index {j} out of range 1..{self.cols}")
        return Vector._raw(self.values[j - 1 :: self.cols], self.field)

    def __matmul__(self, v):
        if not isinstance(v, Vector):
            return NotImplemented
        if v.dim != self.cols:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} matrix by a {v.dim}-vector"
            )
        if v.field != self.field:
            raise FieldMismatchError(f"vector in {v.field} against a {self.field} matrix")
        p, xs = self.field.modulus, v.values
        out = []
        for row in self.raw_rows():
            acc = sum([a * x for a, x in zip(row, xs) if x])
            out.append(acc if p is None else acc % p)
        return Vector._raw(tuple(out), self.field)

    def raw_rows(self) -> list[list]:
        """Mutable row-of-lists copy of the raw values, for the working
        storage of the kernels."""
        values, cols = self.values, self.cols
        return [list(values[i : i + cols]) for i in range(0, len(values), cols)]

    def with_entry(self, i: int, j: int, value) -> Matrix:
        """Copy of the matrix with one entry replaced (1-based indices)."""
        self.entry(i, j)  # bounds check
        s = as_scalar(value, self.field)
        k = (i - 1) * self.cols + (j - 1)
        return Matrix(self.rows, self.cols, self.entries[:k] + (s,) + self.entries[k + 1 :], self.field)

    def take_columns(self, js: Sequence[int]) -> Matrix:
        """Submatrix of the given columns, in the given order (1-based)."""
        return Matrix.from_columns([self.column(j) for j in js])

    def augment(self, rhs: Vector) -> Matrix:
        if rhs.dim != self.rows:
            raise ShapeError(f"cannot augment {self.rows} rows with a {rhs.dim}-vector")
        if rhs.field != self.field:
            raise FieldMismatchError(f"right-hand side in {rhs.field} against {self.field}")
        values = []
        for row, b in zip(self.raw_rows(), rhs.values):
            values.extend(row)
            values.append(b)
        return Matrix._raw(self.rows, self.cols + 1, tuple(values), self.field)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(1, self.rows + 1))
