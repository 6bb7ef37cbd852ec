"""RREF by a left-to-right column sweep, with one journal vector per column.

Each column is classified against the keeper columns to its left: a column
inside their span is subordinate and journaled with its unique combination
coefficients, while a column outside the span becomes the next keeper and is
journaled with the next standard basis vector. The journals, concatenated in
column order, are exactly the reduced row echelon form, so no row operation
is ever performed. The keeper columns of the input form a basis (the Gauche
basis) for its column space, indexed by the pivot set.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatchError, ShapeError
from .matrices import Matrix, Vector, std_basis
from .scalars import FieldSpec, Scalar


@dataclass(frozen=True)
class Keeper:
    """The column lies outside the span of the keepers to its left."""


@dataclass(frozen=True)
class Subordinate:
    """The column equals the keeper combination with these coefficients."""

    coefficients: tuple[Scalar, ...]


LLQAnswer = Keeper | Subordinate


class KeeperState:
    """Keeper columns admitted so far, plus an eliminated copy of them.

    The eliminated copy holds one normalized vector per keeper, with pairwise
    distinct leading slots; each carries, after its dim entries, its
    expression over the original keepers, negated. One forward pass against
    the copy, O(dim * keepers), settles whether a candidate column lies in
    the keeper span and recovers the exact combination coefficients. Those
    coefficients are unique because the keeper set stays linearly
    independent by construction: a column is only admitted when it falls
    outside the current span. The copy holds raw values (residues or
    Fractions); Scalars appear only in the answers.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._zero = field.zero().value
        self._leads: list[int] = []
        self._reduced: list[list] = []

    def llq(self, col: Vector) -> LLQAnswer:
        """Can this column be written over the keepers to its left?

        With no keepers yet the span is the zero space, so the answer is
        Subordinate(()) exactly when the column is zero. A Keeper answer
        also admits the column as the next keeper, so a sweep eliminates
        each column once.
        """
        if col.dim != self.dim:
            raise ShapeError(f"column of dimension {col.dim}, keeper state expects {self.dim}")
        if col.field != self.field:
            raise FieldMismatchError(f"column in {col.field} against a {self.field} state")
        # the residual of col against the reduced keepers, followed by the
        # coefficients expressing the eliminated part over the original keepers
        field = self.field
        work = [e.value for e in col.entries]
        work += [self._zero] * len(self._reduced)
        for lead, u in zip(self._leads, self._reduced):
            factor = work[lead]
            if factor:
                # u stops at its own keeper's coefficient; later ones stay
                work[: len(u)] = field.axpy_row(work, factor, u)
        lead = next((r for r in range(self.dim) if work[r]), None)
        if lead is None:
            return Subordinate(tuple(Scalar._make(field, c) for c in work[self.dim :]))
        self._leads.append(lead)
        self._reduced.append(field.scale_row(field.inverse(work[lead]), work + [-1]))
        return Keeper()


def journal_vector(answer: LLQAnswer, keepers_before: int, dim: int, field: FieldSpec) -> Vector:
    """The per-column record: e_{l+1} for the (l+1)th keeper, or the
    subordinate coefficients padded with zeros to the full dimension."""
    if isinstance(answer, Keeper):
        assert keepers_before + 1 <= dim, "more keepers than rows is impossible"
        return std_basis(dim, keepers_before + 1, field)
    coeffs = answer.coefficients
    assert len(coeffs) == keepers_before <= dim
    return Vector(coeffs + (field.zero(),) * (dim - len(coeffs)), field)


@dataclass(frozen=True)
class GaucheResult:
    rref: Matrix
    pivot_set: tuple[int, ...]
    journals: tuple[Vector, ...]


def gauche_rref(m: Matrix) -> GaucheResult:
    """Sweep the columns once, left to right, and assemble the RREF."""
    state = KeeperState(m.field, m.rows)
    journals: list[Vector] = []
    pivots: list[int] = []
    for n in range(1, m.cols + 1):
        answer = state.llq(m.column(n))
        journals.append(journal_vector(answer, len(pivots), m.rows, m.field))
        if isinstance(answer, Keeper):
            pivots.append(n)
    return GaucheResult(
        rref=Matrix.from_columns(journals),
        pivot_set=tuple(pivots),
        journals=tuple(journals),
    )
