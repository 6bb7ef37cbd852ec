"""Linear systems M x = b: exact solving and solution-set comparison.

A system is read off one sweep of its augmented matrix; it is inconsistent
exactly when the right-hand-side column earns a pivot. Otherwise its solutions
are a particular solution plus the coefficient null space, and two systems
compare by the null spaces of their augmented matrices: M = M_K·R off the
first one's RREF, M_K its keeper columns, and the rank of the second one's
columns at its pivots. solve and solution equivalence take their RREF
from gauche._reader_rref, which over Q may build it from the GF(P) image
under a certificate.
When they differ, the second must still be shown consistent: its right-hand
side must lie in the span of its coefficient columns. Both the rank
(_keepers) and the span (_consistent) are asked of gauche, which over Q
proves the rank by the certificate's loop mod a second prime q and, from
16 rows (gauche._imaged), takes the span's coefficients from the GF(P)
image, checked by one exact product. Row equivalence sweeps two matrices
in lockstep and stops at the first column whose journals differ.
"""
from __future__ import annotations

__all__ = [
    "Affine", "Inconsistent", "LinearSystem", "SolutionSet", "row_equivalent",
    "solution_equivalent", "solve"
]

from operator import eq

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .gauche import _answers, _consistent, _factors_through, _keepers, _reader_rref
from .matrices import Matrix, Vector
from .nullspace import GraphRelations, _relations
from .scalars import Frozen


class LinearSystem(Frozen):
    __slots__ = ("coeff", "rhs")

    def __init__(self, coeff: Matrix, rhs: Vector):
        if rhs.dim != coeff.rows:
            raise ShapeError(f"{coeff.rows}-row system with a {rhs.dim}-entry right-hand side")
        if rhs.field != coeff.field:
            raise FieldMismatchError(f"right-hand side in {rhs.field} against {coeff.field}")
        self._freeze(coeff, rhs)

    def augmented(self) -> Matrix:
        return self.coeff.augment(self.rhs)


class Inconsistent(Frozen):
    """No solution: the reduced augmented matrix has a pivot in the RHS column."""

    __slots__ = ()


class Affine(Frozen):
    """All solutions: the particular solution plus any point of the null
    space of the coefficient matrix, held as its graph relations, whose
    .basis is the homogeneous basis."""

    __slots__ = ("particular", "homogeneous")

    def __init__(self, particular: Vector, homogeneous: GraphRelations):
        self._freeze(particular, homogeneous)


SolutionSet = Inconsistent | Affine


def solve(system: LinearSystem) -> SolutionSet:
    """Solve exactly. The particular solution pins every free variable to
    zero and reads the pivot variables off the reduced right-hand side; the
    homogeneous part is the graph relations of the same RREF, restricted to
    the coefficient columns, as graph_relations gives them for the
    coefficient matrix."""
    q = system.coeff.cols
    res = _reader_rref(system.augmented())
    if q + 1 in res.pivot_set:
        return Inconsistent()
    values = [0] * q
    for s, b in zip(res.pivot_set, res.rref.values[q :: q + 1]):
        values[s - 1] = b
    particular = Vector._raw(tuple(values), system.coeff.field)
    return Affine(particular=particular, homogeneous=_relations(res, q))


def solution_equivalent(a: LinearSystem, b: LinearSystem) -> bool:
    """Do two consistent systems of the same size have the same solutions?

    x solves A x = c exactly when (x, -1) lies in the null space of [A | c],
    so consistent systems of one size have the same solutions exactly when
    their augmented matrices share a null space (null_equal). A system is
    consistent when its right-hand-side column is free; inconsistent inputs
    are rejected, as two empty solution sets are not "equal". Only [A | c]
    is reduced, by the readers' RREF (gauche._reader_rref: over Q, on a
    large integer system, R built from the image sweep and certified, else
    the exact sweep), as [A | c] = [A | c]_K·R, K its keeper columns. When
    [B | d] = [B | d]_K·R too, d is B_K times R's last column, K lying among
    the coefficient columns, so [B | d] is consistent and a rank decides.
    Otherwise the solution sets differ, and it is left to show [B | d]
    consistent, d in the span of B's columns, or to reject it as
    inconsistent.
    """
    if a.coeff.rows != b.coeff.rows or a.coeff.cols != b.coeff.cols:
        raise ShapeError("solution equivalence needs systems of the same size")
    if a.coeff.field != b.coeff.field:
        raise FieldMismatchError("solution equivalence needs a common field")
    q, aug_b = a.coeff.cols, b.augmented()
    res_a = _reader_rref(a.augmented())
    if q + 1 not in res_a.pivot_set:
        if _factors_through(res_a, aug_b):
            return _keepers(aug_b, res_a.pivot_set) == res_a.pivot_set
        if _consistent(aug_b):
            return False
    raise InconsistentSystemError("solution equivalence is only defined for consistent systems")


def row_equivalent(a: Matrix, b: Matrix) -> bool:
    """Are two same-shaped matrices related by row operations?

    Decided by comparing canonical reduced forms, which characterize the
    row-equivalence class, column by column: the two matrices are swept in
    lockstep, and each column's answers, None for a keeper or the tuple of
    its coefficients over the keepers, are its journals. Equal answers in
    every column mean equal RREFs; the sweeps stop at the first column
    whose answers differ, and no RREF is built.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError("row equivalence needs matrices of the same shape")
    if a.field != b.field:
        raise FieldMismatchError("row equivalence needs a common field")
    js = range(1, a.cols + 1)
    return all(map(eq, _answers(a, js), _answers(b, js)))
