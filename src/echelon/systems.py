"""Linear systems M x = b: exact solving and solution-set comparison.

A system is read off one sweep of its augmented matrix; it is inconsistent
exactly when the right-hand-side column earns a pivot. Otherwise its
solutions are one particular solution plus the coefficient null space, and
two systems compare by the null spaces of their augmented matrices.
"""
from __future__ import annotations

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .gauche import gauche_rref
from .matrices import Matrix, Vector
from .nullspace import GraphRelations, _mutually_annihilate, _relations, graph_relations
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
    homogeneous part is the graph relations of the same sweep, restricted to
    the coefficient columns, as graph_relations gives them for the
    coefficient matrix."""
    q = system.coeff.cols
    res = gauche_rref(system.augmented())
    if res.pivot_set and res.pivot_set[-1] == q + 1:
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
    their augmented matrices share a null space, each read off one sweep; a
    system is consistent when its right-hand-side column is free. Inconsistent
    inputs are rejected, as two empty solution sets are not "equal".
    """
    if a.coeff.rows != b.coeff.rows or a.coeff.cols != b.coeff.cols:
        raise ShapeError("solution equivalence needs systems of the same size")
    if a.coeff.field != b.coeff.field:
        raise FieldMismatchError("solution equivalence needs a common field")
    aug_a, aug_b = a.augmented(), b.augmented()
    rel_a, rel_b = graph_relations(aug_a), graph_relations(aug_b)
    if aug_a.cols not in rel_a.free_indices or aug_b.cols not in rel_b.free_indices:
        raise InconsistentSystemError("solution equivalence is only defined for consistent systems")
    return _mutually_annihilate(aug_a, rel_a, aug_b, rel_b)


def row_equivalent(a: Matrix, b: Matrix) -> bool:
    """Are two same-shaped matrices related by row operations?

    Decided by comparing canonical reduced forms, which characterize the
    row-equivalence class.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError("row equivalence needs matrices of the same shape")
    if a.field != b.field:
        raise FieldMismatchError("row equivalence needs a common field")
    return gauche_rref(a).rref == gauche_rref(b).rref
