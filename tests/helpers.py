"""Shared builders for the tests: the worked-example fixtures and seeded
random generators for matrices, vectors, row operations, and systems."""
from __future__ import annotations

import pytest

from echelon import (
    GF,
    QQ,
    Axpy,
    LinearSystem,
    Matrix,
    Scale,
    Swap,
    Vector,
    as_scalar,
)

GF7 = GF(7)
FIELDS = (QQ, GF7)
# the properties checked across fields: (field, entry bound), with GF(2),
# a word-sized prime, and 64-bit entries over Q, where Fractions grow
FIELD_CASES = [
    pytest.param(QQ, 5, id="Q"),
    pytest.param(GF7, 5, id="GF(7)"),
    pytest.param(GF(2), 5, id="GF(2)"),
    pytest.param(GF(32003), 5, id="GF(32003)"),
    pytest.param(QQ, 2**63, id="Q-int64"),
]

# the running worked example: a 3x5 matrix with pivots in columns 1, 2, 5
T_ROWS = [
    [2, 1, 7, -7, 2],
    [-3, 4, -5, -6, 3],
    [1, 1, 4, -5, 2],
]
# its reduced row echelon form
J_ROWS = [
    [1, 0, 3, -2, 0],
    [0, 1, 1, -3, 0],
    [0, 0, 0, 0, 1],
]


def mat(rows, field=QQ) -> Matrix:
    return Matrix.from_rows(rows, field)


def vec(values, field=QQ) -> Vector:
    return Vector.from_values(values, field)


def sc(value, field=QQ):
    return as_scalar(value, field)


def matrix_t(field=QQ) -> Matrix:
    return mat(T_ROWS, field)


def matrix_j(field=QQ) -> Matrix:
    return mat(J_ROWS, field)


def random_int_rows(rng, rows, cols, bound=5) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def random_matrix(rng, rows, cols, field, bound=5) -> Matrix:
    return mat(random_int_rows(rng, rows, cols, bound), field)


def random_low_rank_matrix(rng, rows, cols, rank, field, bound=5) -> Matrix:
    """A product of random rows x rank and rank x cols integer factors, so
    of rank at most `rank`; rank 0 gives the zero matrix."""
    left = random_int_rows(rng, rows, rank, bound)
    right = random_int_rows(rng, rank, cols, bound)
    return mat(
        [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in left],
        field,
    )


def random_low_rank_shape(rng, max_rows=6, max_cols=14) -> tuple[int, int, int]:
    """rows, cols and a rank below min(rows, cols) where that is possible;
    cols is often several times rows (a wide matrix)."""
    rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
    return rows, cols, rng.randint(0, max(0, min(rows, cols) - 1))


def random_matrices(rng, field, bound, count):
    """`count` random matrices of random_shape, then half as many
    rank-deficient ones, many of them wide."""
    for _ in range(count):
        p, q = random_shape(rng)
        yield random_matrix(rng, p, q, field, bound)
    for _ in range(count // 2):
        p, q, rank = random_low_rank_shape(rng)
        yield random_low_rank_matrix(rng, p, q, rank, field, bound)


def random_shape(rng, max_rows=8, max_cols=10) -> tuple[int, int]:
    return rng.randint(1, max_rows), rng.randint(1, max_cols)


def random_vector(rng, dim, field) -> Vector:
    return vec([rng.randint(-5, 5) for _ in range(dim)], field)


def random_ops(rng, rows, field, max_len=20) -> list:
    """A random sequence of legal row operations for a `rows`-row matrix.

    Scale coefficients stay in {-4..4} minus zero, which is nonzero in every
    field used here.
    """
    ops = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["scale"] if rows == 1 else ["swap", "scale", "axpy", "axpy"])
        if kind == "swap":
            i, j = rng.sample(range(1, rows + 1), 2)
            ops.append(Swap(i, j))
        elif kind == "scale":
            c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            ops.append(Scale(rng.randint(1, rows), sc(c, field)))
        else:
            t, s = rng.sample(range(1, rows + 1), 2)
            ops.append(Axpy(t, s, sc(rng.randint(-4, 4), field)))
    return ops


def random_consistent_system(rng, rows, cols, field) -> LinearSystem:
    """Consistency by construction: the right-hand side is a known image."""
    m = random_matrix(rng, rows, cols, field)
    x = random_vector(rng, cols, field)
    return LinearSystem(m, m @ x)


def system_from_augmented(aug: Matrix) -> LinearSystem:
    """Split an augmented matrix back into coefficient part and RHS column."""
    coeff = aug.take_columns(range(1, aug.cols))
    return LinearSystem(coeff, aug.column(aug.cols))
