"""Dense exact matrices and column vectors.

Storage is row-major and immutable: a tuple of raw values (see scalars),
set once through `__dict__`, as the classes are frozen. The public
constructors take ints, Fractions, literals or Scalars, coerce each entry
once with as_raw and reject Scalars from another field; internal code
builds from raw values with `_raw`, unchecked. `entries` and `entry` make
Scalars on demand. All external indices are 1-based, so "column 1" is
the leftmost column and "entry 1" the top of a vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ShapeError
from .scalars import FieldSpec, Scalar, as_raw, format_values


@dataclass(frozen=True, init=False)
class Vector:
    values: tuple
    field: FieldSpec

    def __init__(self, entries: Sequence, field: FieldSpec):
        if not entries:
            raise ShapeError("a vector needs at least one entry")
        self.__dict__.update(values=tuple(as_raw(e, field) for e in entries), field=field)

    @classmethod
    def _raw(cls, values: tuple, field: FieldSpec) -> Vector:
        v = cls.__new__(cls)
        v.__dict__.update(values=values, field=field)
        return v

    @classmethod
    def from_values(cls, values: Iterable, field: FieldSpec) -> Vector:
        return cls(tuple(values), field)

    @classmethod
    def zero(cls, dim: int, field: FieldSpec) -> Vector:
        return cls((0,) * dim, field)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar._make(self.field, v) for v in self.values)

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

    def __init__(self, rows: int, cols: int, entries: Sequence, field: FieldSpec):
        if rows < 1 or cols < 1:
            raise ShapeError("matrices must have at least one row and one column")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        values = tuple(as_raw(e, field) for e in entries)
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
        for row in rows:
            if len(row) != width:
                raise ShapeError(f"ragged rows: expected {width} entries, got {len(row)}")
        return cls(len(rows), width, [v for row in rows for v in row], field)

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
        return cls(n, n, [int(r == c) for r in range(n) for c in range(n)], field)

    @classmethod
    def zero(cls, rows: int, cols: int, field: FieldSpec) -> Matrix:
        return cls(rows, cols, (0,) * (rows * cols), field)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar._make(self.field, v) for v in self.values)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not 1 <= i <= self.rows:
            raise IndexError(f"row index {i} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise IndexError(f"column index {j} out of range 1..{self.cols}")
        return Scalar._make(self.field, self.values[(i - 1) * self.cols + (j - 1)])

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
        """The product with the column vector v. The vector is cleared once
        to integers over its least common denominator (1 over GF(p)), its
        zero entries dropped; each row's dot product runs on raw values, so
        an integer matrix needs only int arithmetic, and each output entry
        is divided once: an int where the quotient is whole, else a
        Fraction; over GF(p) its least residue."""
        if not isinstance(v, Vector):
            return NotImplemented
        if v.dim != self.cols:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} matrix by a {v.dim}-vector"
            )
        if v.field != self.field:
            raise FieldMismatchError(f"vector in {v.field} against a {self.field} matrix")
        field, values, cols = self.field, self.values, self.cols
        xs, d = field.clear(v.values)
        nonzero = [(j, x) for j, x in enumerate(xs) if x]
        accs = [
            sum([values[i + j] * x for j, x in nonzero]) for i in range(0, len(values), cols)
        ]
        p = field.modulus
        out = field.quotients(accs, d) if p is None else [acc % p for acc in accs]
        return Vector._raw(tuple(out), field)

    def raw_rows(self) -> list[list]:
        """Mutable row-of-lists copy of the raw values, for the working
        storage of the kernels."""
        values, cols = self.values, self.cols
        return [list(values[i : i + cols]) for i in range(0, len(values), cols)]

    def with_entry(self, i: int, j: int, value) -> Matrix:
        """Copy of the matrix with one entry replaced (1-based indices)."""
        self.entry(i, j)  # bounds check
        k = (i - 1) * self.cols + (j - 1)
        values = self.values[:k] + (as_raw(value, self.field),) + self.values[k + 1 :]
        return Matrix._raw(self.rows, self.cols, values, self.field)

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
