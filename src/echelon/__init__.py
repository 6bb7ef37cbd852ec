"""Exact-arithmetic linear algebra toolkit.

Computes reduced row echelon forms two independent ways: a left-to-right
column sweep that never touches a row, and classical Gauss-Jordan with a
replayable row-operation log. On top of the reduced form it exposes the
null space as a graph over the free coordinates, column span and
independence tests, row equivalence by reduced forms (the tests check it
against null_equal's null-space test), and exact solving, over Q or GF(p).
"""

from .errors import (
    EchelonError,
    FieldMismatchError,
    InconsistentSystemError,
    InvalidOperationError,
    ParseError,
    ShapeError,
)
from .gauche import GaucheResult, Keeper, KeeperState, LLQAnswer, Subordinate, gauche_rref
from .matrices import Matrix, Vector, std_basis
from .nullspace import (
    GraphRelations,
    column_in_span,
    columns_independent,
    graph_relations,
    null_basis,
    null_contains,
    null_equal,
)
from .rowops import (
    Axpy,
    ReductionResult,
    RowOp,
    RREF_CONDITIONS,
    Scale,
    Swap,
    apply_ops,
    format_op,
    gauss_jordan,
    is_rref,
    parse_ops,
    rref_violation,
)
from .scalars import GF, QQ, FieldSpec, Scalar, as_scalar
from .systems import (
    Affine,
    Inconsistent,
    LinearSystem,
    SolutionSet,
    row_equivalent,
    solution_equivalent,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "Axpy",
    "EchelonError",
    "FieldMismatchError",
    "FieldSpec",
    "GF",
    "GaucheResult",
    "GraphRelations",
    "Inconsistent",
    "InconsistentSystemError",
    "InvalidOperationError",
    "Keeper",
    "KeeperState",
    "LLQAnswer",
    "LinearSystem",
    "Matrix",
    "ParseError",
    "QQ",
    "RREF_CONDITIONS",
    "ReductionResult",
    "RowOp",
    "Scalar",
    "Scale",
    "ShapeError",
    "SolutionSet",
    "Subordinate",
    "Swap",
    "Vector",
    "apply_ops",
    "as_scalar",
    "column_in_span",
    "columns_independent",
    "format_op",
    "gauche_rref",
    "gauss_jordan",
    "graph_relations",
    "is_rref",
    "null_basis",
    "null_contains",
    "null_equal",
    "parse_ops",
    "row_equivalent",
    "rref_violation",
    "solution_equivalent",
    "solve",
    "std_basis",
]
