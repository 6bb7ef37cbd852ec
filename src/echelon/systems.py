"""Linear systems M x = b: exact solving and solution-set comparison.

A system is solved through the reduced form of its augmented matrix; it is
inconsistent exactly when the right-hand-side column earns a pivot of its
own. Consistent solution sets are affine: one particular solution (free
variables pinned to zero) plus the null space of the coefficient matrix.
"""
from __future__ import annotations

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .gauche import gauche_rref
from .matrices import Matrix, Vector
from .nullspace import NullBasis, _mutually_annihilate, _relations
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
    """All solutions: particular plus any combination of the homogeneous basis."""

    __slots__ = ("particular", "homogeneous")

    def __init__(self, particular: Vector, homogeneous: NullBasis):
        self._freeze(particular, homogeneous)


SolutionSet = Inconsistent | Affine


def solve(system: LinearSystem) -> SolutionSet:
    """Solve exactly. The particular solution pins every free variable to
    zero and reads the pivot variables off the reduced right-hand side; the
    homogeneous basis is read off the same sweep, restricted to the
    coefficient columns."""
    q = system.coeff.cols
    res = gauche_rref(system.augmented())
    if res.pivot_set and res.pivot_set[-1] == q + 1:
        return Inconsistent()
    reduced_rhs = res.rref.column(q + 1).values
    values = [0] * q
    for i, s in enumerate(res.pivot_set):
        values[s - 1] = reduced_rhs[i]
    particular = Vector._raw(tuple(values), system.coeff.field)
    return Affine(particular=particular, homogeneous=_relations(res, q).basis())


def solution_equivalent(a: LinearSystem, b: LinearSystem) -> bool:
    """Do two consistent systems of the same size have the same solutions?

    True iff each system's particular solution solves the other and the
    coefficient matrices share a null space: two affine sets with a common
    point and equal direction spaces coincide. Inconsistent inputs are
    rejected; empty solution sets of mismatched systems are not "equal".
    """
    if a.coeff.rows != b.coeff.rows or a.coeff.cols != b.coeff.cols:
        raise ShapeError("solution equivalence needs systems of the same size")
    if a.coeff.field != b.coeff.field:
        raise FieldMismatchError("solution equivalence needs a common field")
    sol_a = solve(a)
    sol_b = solve(b)
    if isinstance(sol_a, Inconsistent) or isinstance(sol_b, Inconsistent):
        raise InconsistentSystemError("solution equivalence is only defined for consistent systems")
    return (
        (b.coeff @ sol_a.particular) == b.rhs
        and (a.coeff @ sol_b.particular) == a.rhs
        and _mutually_annihilate(a.coeff, sol_a.homogeneous, b.coeff, sol_b.homogeneous)
    )


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
