"""RREF by a left-to-right column sweep, with one journal per column.

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
from .matrices import Matrix, Vector
from .scalars import FieldSpec, Scalar


@dataclass(frozen=True)
class Keeper:
    """The column lies outside the span of the keepers to its left."""


@dataclass(frozen=True)
class Subordinate:
    """The column equals the keeper combination with these coefficients,
    held as raw values of the field."""

    values: tuple
    field: FieldSpec

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.field, v) for v in self.values)


LLQAnswer = Keeper | Subordinate


class KeeperState:
    """Keeper columns admitted so far, plus an eliminated copy of them.

    A column enters as an integer vector: its raw values times its scale,
    the least common denominator over Q (1 over GF(p)). The eliminated copy
    holds one integer row per keeper, with pairwise distinct leading slots
    and pivot p_k, the row's entry there. After its dim residual entries a
    row carries coefficients over the original keeper columns: for a keeper
    row the residual plus that combination is zero. A candidate w is
    eliminated against keeper k fraction-free (Bareiss):
    w <- (p_k*w - w[lead_k]*u_k) / p_{k-1}, with p_{-1} = 1, where every
    division is exact. Past the last keeper, with pivot p, the residual plus
    the combination is p times the scaled candidate; so the candidate lies
    in the keeper span exactly when its residual is zero, and its
    coefficients are the rest divided by p times its scale. Over GF(p) each
    keeper row is scaled to pivot 1, so the steps are the classical ones.
    One forward pass, O(dim * keepers), settles the question. The
    coefficients are unique because the keeper set stays linearly
    independent by construction: a column is only admitted when it falls
    outside the current span. No Scalar is made.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._leads: list[int] = []
        self._pivots: list[int] = []
        self._reduced: list[list[int]] = []

    def llq(self, col: Vector) -> LLQAnswer:
        """Can this column be written over the keepers to its left?

        With no keepers yet the span is the zero space, so the answer is
        Subordinate((), field) exactly when the column is zero. A Keeper answer
        also admits the column as the next keeper, so a sweep eliminates
        each column once.
        """
        if col.dim != self.dim:
            raise ShapeError(f"column of dimension {col.dim}, keeper state expects {self.dim}")
        if col.field != self.field:
            raise FieldMismatchError(f"column in {col.field} against a {self.field} state")
        # the residual of the scaled column against the reduced keepers,
        # followed by the coefficients of the eliminated part
        field = self.field
        work, scale = field.clear(list(col.values))
        work += [0] * len(self._reduced)
        prev = 1
        for lead, pivot, u in zip(self._leads, self._pivots, self._reduced):
            factor = work[lead]
            if factor or pivot != prev:
                # u stops at its own keeper's coefficient; later ones stay 0
                work[: len(u)] = field.combine_row(pivot, work, factor, u, prev)
            prev = pivot
        lead = next((r for r in range(self.dim) if work[r]), None)
        if lead is None:
            return Subordinate(tuple(field.quotients(work[self.dim :], prev * scale)), field)
        # the keeper's own coefficient cancels its scaled, eliminated column
        row, pivot = field.pivot_row(work + [-prev * scale], lead)
        self._leads.append(lead)
        self._pivots.append(pivot)
        self._reduced.append(row)
        return Keeper()


@dataclass(frozen=True)
class GaucheResult:
    """The RREF and its pivot set. The journals are not stored apart: they
    are the RREF's columns, in order."""

    rref: Matrix
    pivot_set: tuple[int, ...]

    @property
    def journals(self) -> tuple[Vector, ...]:
        return tuple(self.rref.column(n) for n in range(1, self.rref.cols + 1))


def gauche_rref(m: Matrix) -> GaucheResult:
    """Sweep the columns once, left to right, and write each journal into
    its column of the RREF: the (l+1)th keeper journals as e_{l+1}, a
    subordinate column as its coefficients over the keepers, zero below."""
    dim, cols, field = m.rows, m.cols, m.field
    state = KeeperState(field, dim)
    values = [0] * (dim * cols)
    pivots: list[int] = []
    for j in range(cols):
        answer = state.llq(m.column(j + 1))
        if isinstance(answer, Keeper):
            values[len(pivots) * cols + j] = 1
            pivots.append(j + 1)
        else:
            values[j : len(answer.values) * cols : cols] = answer.values
    return GaucheResult(
        rref=Matrix._raw(dim, cols, tuple(values), field), pivot_set=tuple(pivots)
    )
