"""Linear systems M x = b: exact solving and solution-set comparison.

A system is read off one sweep of its augmented matrix; it is inconsistent
exactly when the right-hand-side column earns a pivot. Otherwise its solutions
are a particular solution plus the coefficient null space, and two systems
compare by the null spaces of their augmented matrices: M = M_P·R off the
first one's sweep, and the rank of the second one's columns at its pivots.
When they differ, the second must still be shown consistent: over Q by a
solution read off its GF(P) image and checked exactly, and otherwise by its
exact sweep. Row equivalence sweeps two matrices in lockstep and stops at
the first column whose journals differ.
"""
from __future__ import annotations

from .errors import FieldMismatchError, InconsistentSystemError, ShapeError
from .gauche import P, KeeperState, _image_answers, _rational, gauche_rref
from .matrices import Matrix, Vector
from .nullspace import GraphRelations, _factors_through, _full_column_rank, _relations
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


def _image_solves(aug: Matrix) -> bool:
    """True proves the Q system [A | c] consistent: (x, -1) lies in the
    null space of aug for a candidate x read off its GF(P) sweep, c's
    coefficients over the image keepers among A's columns, each
    reconstructed as a rational at its keeper's slot, zero elsewhere.
    False means only "unknown": c is an image keeper, P divides a
    denominator, a coefficient has no reconstruction, or A x differs from
    c. The image only proposes x, so no verdict depends on P."""
    try:
        *answers, coefficients = _image_answers(aug, range(1, aug.cols + 1))
    except ZeroDivisionError:
        return False
    if coefficients is None:
        return False
    values = [0] * len(answers) + [-1]
    keepers = [j for j, answer in enumerate(answers) if answer is None]
    for j, c in zip(keepers, coefficients):
        values[j] = _rational(c, P)
        if values[j] is None:
            return False
    return (aug @ Vector._raw(tuple(values), aug.field)).is_zero()


def solution_equivalent(a: LinearSystem, b: LinearSystem) -> bool:
    """Do two consistent systems of the same size have the same solutions?

    x solves A x = c exactly when (x, -1) lies in the null space of [A | c],
    so consistent systems of one size have the same solutions exactly when
    their augmented matrices share a null space (null_equal). A system is
    consistent when its right-hand-side column is free; inconsistent inputs
    are rejected, as two empty solution sets are not "equal". Only [A | c]
    is swept, as [A | c] = [A | c]_P·R. When [B | d] = [B | d]_P·R too, d is
    B_P times R's last column, P lying among the coefficient columns, so
    [B | d] is consistent and a rank decides. Otherwise the solution sets
    differ, and it is left to show [B | d] consistent: over Q a solution
    read off its GF(P) image and checked exactly does; when none is found,
    and over GF(p), [B | d] is swept, to reject it if it is inconsistent.
    """
    if a.coeff.rows != b.coeff.rows or a.coeff.cols != b.coeff.cols:
        raise ShapeError("solution equivalence needs systems of the same size")
    if a.coeff.field != b.coeff.field:
        raise FieldMismatchError("solution equivalence needs a common field")
    q, aug_b = a.coeff.cols, b.augmented()
    res_a = gauche_rref(a.augmented())
    consistent = q + 1 not in res_a.pivot_set
    if consistent and _factors_through(res_a, aug_b):
        return _full_column_rank(aug_b, res_a.pivot_set)
    if consistent and (
        a.coeff.field.modulus is None and _image_solves(aug_b)
        or q + 1 not in gauche_rref(aug_b).pivot_set
    ):
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
    ea, eb = KeeperState(a.field, a.rows).eliminate, KeeperState(b.field, b.rows).eliminate
    va, vb, cols = a.values, b.values, a.cols
    return all(ea(va[j::cols]) == eb(vb[j::cols]) for j in range(cols))
