"""Linear systems M x = b: exact solving and solution-set comparison.

A system is read off one sweep of its augmented matrix; it is inconsistent
exactly when the right-hand-side column earns a pivot. Otherwise its solutions
are a particular solution plus the coefficient null space, and two systems
compare by the null spaces of their augmented matrices: rank and M = M_P·R.
"""
from __future__ import annotations

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .gauche import gauche_rref
from .matrices import Matrix, Vector
from .nullspace import GraphRelations, _relations, _same_null_space
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
    their augmented matrices share a null space: equal ranks and one inclusion,
    from one sweep each. A system is consistent when its right-hand-side column
    is free; inconsistent inputs are rejected, as two empty solution sets are not "equal".
    """
    if a.coeff.rows != b.coeff.rows or a.coeff.cols != b.coeff.cols:
        raise ShapeError("solution equivalence needs systems of the same size")
    if a.coeff.field != b.coeff.field:
        raise FieldMismatchError("solution equivalence needs a common field")
    q, aug_b = a.coeff.cols, b.augmented()
    res_a, res_b = gauche_rref(a.augmented()), gauche_rref(aug_b)
    if q + 1 in res_a.pivot_set or q + 1 in res_b.pivot_set:
        raise InconsistentSystemError("solution equivalence is only defined for consistent systems")
    return _same_null_space(res_a, aug_b, res_b)


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
