"""Dense exact matrices and column vectors.

Storage is row-major and immutable; all external indices are 1-based, so
"column 1" is the leftmost column and "entry 1" the top of a vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ShapeError
from .scalars import FieldSpec, Scalar, as_scalar


@dataclass(frozen=True)
class Vector:
    entries: tuple[Scalar, ...]
    field: FieldSpec

    def __post_init__(self) -> None:
        if not self.entries:
            raise ShapeError("a vector needs at least one entry")
        field = self.field
        for e in self.entries:
            if e.spec is not field and e.spec != field:
                raise FieldMismatchError(f"entry in {e.spec} inside a {field} vector")

    @classmethod
    def from_values(cls, values: Iterable, field: FieldSpec) -> Vector:
        return cls(tuple(as_scalar(v, field) for v in values), field)

    @classmethod
    def zero(cls, dim: int, field: FieldSpec) -> Vector:
        return cls((field.zero(),) * dim, field)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

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
        return " ".join(str(e) for e in self.entries)


def std_basis(dim: int, i: int, field: FieldSpec) -> Vector:
    """The unit vector with a 1 in slot i (1-based) and zeros elsewhere."""
    if not 1 <= i <= dim:
        raise IndexError(f"basis index {i} out of range 1..{dim}")
    entries = [field.zero()] * dim
    entries[i - 1] = field.one()
    return Vector(tuple(entries), field)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[Scalar, ...]  # row-major
    field: FieldSpec

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ShapeError("matrices must have at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        field = self.field
        for e in self.entries:
            if e.spec is not field and e.spec != field:
                raise FieldMismatchError(f"entry in {e.spec} inside a {field} matrix")

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
        entries = tuple(c.entries[r] for r in range(dim) for c in columns)
        return cls(dim, len(columns), entries, field)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> Matrix:
        zero, one = field.zero(), field.one()
        entries = tuple(one if r == c else zero for r in range(n) for c in range(n))
        return cls(n, n, entries, field)

    @classmethod
    def zero(cls, rows: int, cols: int, field: FieldSpec) -> Matrix:
        return cls(rows, cols, (field.zero(),) * (rows * cols), field)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not 1 <= i <= self.rows:
            raise IndexError(f"row index {i} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise IndexError(f"column index {j} out of range 1..{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> Vector:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row index {i} out of range 1..{self.rows}")
        start = (i - 1) * self.cols
        return Vector(self.entries[start : start + self.cols], self.field)

    def column(self, j: int) -> Vector:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column index {j} out of range 1..{self.cols}")
        return Vector(self.entries[j - 1 :: self.cols], self.field)

    def __matmul__(self, v):
        if not isinstance(v, Vector):
            return NotImplemented
        if v.dim != self.cols:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} matrix by a {v.dim}-vector"
            )
        if v.field != self.field:
            raise FieldMismatchError(f"vector in {v.field} against a {self.field} matrix")
        field, p = self.field, self.field.modulus
        zero = field.zero().value
        xs = [e.value for e in v.entries]
        out = []
        for row in self.raw_rows():
            acc = sum([a * x for a, x in zip(row, xs) if x], zero)
            out.append(Scalar._make(field, acc if p is None else acc % p))
        return Vector(tuple(out), field)

    def to_rows(self) -> list[list[Scalar]]:
        """Mutable row-of-lists copy, for elimination working storage."""
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def raw_rows(self) -> list[list]:
        """Mutable row-of-lists copy of the raw values (residues or
        Fractions), for the working storage of the raw-value kernels."""
        values = [e.value for e in self.entries]
        return [values[i : i + self.cols] for i in range(0, len(values), self.cols)]

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
        entries = []
        for i in range(self.rows):
            entries.extend(self.entries[i * self.cols : (i + 1) * self.cols])
            entries.append(rhs.entries[i])
        return Matrix(self.rows, self.cols + 1, tuple(entries), self.field)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(1, self.rows + 1))
