"""Null-space views of a matrix.

The null space is read straight off the reduced form: nonpivot columns name
free variables, pivot columns name dependent ones, and each pivot variable is
a fixed linear expression in the free variables. That makes the null space
the graph of a linear map from the free coordinates to the pivot coordinates,
and gives a canonical basis with one vector per free index. The same reduced
data answers the column/null-space dictionary questions: span membership of a
column and linear independence of a column selection.
"""
from __future__ import annotations

from collections.abc import Sequence

from .gauche import GaucheResult, KeeperState, gauche_rref
from .matrices import Matrix, Vector, index_offset
from .scalars import FieldSpec, Frozen, Scalar, format_values


class GraphRelations(Frozen):
    """The null space as the graph of a linear map: each pivot variable is
    x_pivot = sum(coefficient * x_free) over the free variables, with the
    coefficients as raw values of the field, read off the reduced form.

    Every free variable is listed in every expression, zero coefficients
    included, so the textual form is stable. The basis property lays the
    same coefficients out as the graph-normalized null basis.
    """

    __slots__ = ("free_indices", "pivot_exprs", "field")

    def __init__(self, free_indices: tuple[int, ...], pivot_exprs: tuple, field: FieldSpec):
        self._freeze(free_indices, pivot_exprs, field)

    def literals(self) -> list[tuple[int, list[str]]]:
        """Each pivot with the literals of its coefficients, each formatted once."""
        return [(pivot, format_values(coeffs)) for pivot, coeffs in self.pivot_exprs]

    def lines(self) -> list[str]:
        return relation_lines(self.free_indices, self.literals())

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The null basis, built when read: one Vector per free index, laid
        out by basis_rows from the raw coefficients. Only API callers read it."""
        rows = basis_rows(self.free_indices, self.pivot_exprs, 0, 1)
        return tuple(Vector._raw(tuple(row), self.field) for row in rows)


def basis_rows(free_indices: tuple[int, ...], exprs, zero, one) -> list[list]:
    """Row k of the null basis for each free index n = free_indices[k], from
    the pairs of a pivot and its coefficients over the free variables: `one`
    at slot n, coefficient k of each pivot at that pivot's slot, `zero`
    elsewhere. Raw values give the basis vectors, literals the printed rows."""
    template = [zero] * (len(free_indices) + len(exprs))
    rows = []
    for k, n in enumerate(free_indices):
        row = template.copy()
        row[n - 1] = one
        for pivot, coeffs in exprs:
            row[pivot - 1] = coeffs[k]
        rows.append(row)
    return rows


def relation_lines(free_indices: tuple[int, ...], exprs) -> list[str]:
    """One `x<pivot> = c*x<free> + ...` line per pair of a pivot and the
    literals of its coefficients; `x<pivot> = 0` when nothing is free."""
    if not free_indices:
        return [f"x{pivot} = 0" for pivot, _ in exprs]
    return [
        f"x{pivot} = " + " + ".join(f"{c}*x{n}" for c, n in zip(literals, free_indices))
        for pivot, literals in exprs
    ]


def _relations(res: GaucheResult, q: int) -> GraphRelations:
    """The free/pivot split of the first q columns of a swept matrix.

    The sweep is prefix-stable: the keepers and journals among the first q
    columns are those of the first q columns swept alone. Each pivot
    variable equals the negated reduced-form entries of the free columns in
    that pivot's row.
    """
    field, values, cols = res.rref.field, res.rref.values, res.rref.cols
    p, pivots = field.modulus, [s for s in res.pivot_set if s <= q]
    kept = set(pivots)
    free = tuple(n for n in range(1, q + 1) if n not in kept)
    exprs = tuple(
        (s, tuple(p - x if p and x else -x for x in [values[i * cols + n - 1] for n in free]))
        for i, s in enumerate(pivots)
    )
    return GraphRelations(free_indices=free, pivot_exprs=exprs, field=field)


def graph_relations(m: Matrix) -> GraphRelations:
    """The null space of m from one sweep: each pivot variable over the free
    variables, and through .basis the graph-normalized basis, whose vector
    for free index n carries 1 at slot n and, at each pivot slot, the
    negated reduced-form entry of column n in that pivot's row."""
    return _relations(gauche_rref(m), m.cols)


null_basis = graph_relations


def null_contains(m: Matrix, v: Vector) -> bool:
    """True exactly when m times v is the zero vector."""
    return (m @ v).is_zero()


def null_equal(a: Matrix, b: Matrix) -> bool:
    """Do the two matrices have the same null space?

    The null space of a p x q matrix lies in F^q, so row counts may differ;
    matrices of different widths or fields compare unequal. Equal ranks give
    null spaces of equal dimension, so one inclusion decides it: b kills a's
    graph basis. No orthogonality is involved.
    """
    if a.cols != b.cols or a.field != b.field:
        return False
    return _same_null_space(gauche_rref(a), b, gauche_rref(b))


def _same_null_space(res: GaucheResult, m: Matrix, res_m: GaucheResult) -> bool:
    """Null-space equality of m, swept as res_m, and the matrix swept as res:
    equal ranks, and M = M_P·R on res's free columns, with M_P m's columns at
    res's pivots; the last column, an augmented right-hand side, goes first."""
    pivots, rref = res.pivot_set, res.rref
    if len(pivots) != len(res_m.pivot_set):
        return False
    if not pivots:
        return True
    m_p, kept, cols, rank = m.take_columns(pivots), set(pivots), rref.cols, len(pivots)
    return all(
        m_p @ Vector._raw(rref.values[n - 1 : rank * cols : cols], m.field) == m.column(n)
        for n in range(cols, 0, -1)
        if n not in kept
    )


def _check_selection(m: Matrix, js: Sequence[int]) -> list[int]:
    """The 0-based offsets of the columns js, which must be pairwise distinct."""
    offsets = [index_offset("column", j, m.cols) for j in js]
    if len(set(js)) != len(js):
        raise ValueError("selected column indices must be pairwise distinct")
    return offsets


def column_in_span(m: Matrix, k: int, js: Sequence[int]) -> tuple[Scalar, ...] | None:
    """Coefficients writing column k over columns js, or None if impossible.

    Found by a restricted column sweep over the selected columns; selected
    columns that are themselves dependent on earlier ones get coefficient
    zero. An empty selection spans only the zero vector.
    """
    target, offsets = index_offset("column", k, m.cols), _check_selection(m, js)
    if k in js:
        raise ValueError(f"target column {k} is among the selected columns")
    eliminate, values, cols = KeeperState(m.field, m.rows).eliminate, m.values, m.cols
    kept_slots = [slot for slot, j in enumerate(offsets) if eliminate(values[j::cols]) is None]
    answer = eliminate(values[target::cols])
    if answer is None:
        return None
    coeffs = [m.field.zero()] * len(js)
    for c, slot in zip(answer, kept_slots):
        coeffs[slot] = Scalar._raw(m.field, c)
    return tuple(coeffs)


def columns_independent(m: Matrix, js: Sequence[int]) -> bool:
    """Do the selected columns form a linearly independent set?

    Decided by a restricted column sweep that stops at the first selected
    column inside the span of those before it; the empty selection is
    independent.
    """
    offsets = _check_selection(m, js)
    eliminate, values, cols = KeeperState(m.field, m.rows).eliminate, m.values, m.cols
    return all(eliminate(values[j::cols]) is None for j in offsets)
