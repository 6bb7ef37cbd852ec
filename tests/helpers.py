"""The one home of the tests' inputs: the worked-example fixtures, seeded
random generators for matrices, vectors, row operations and systems, built
inputs of a known RREF, the crafted inputs on which a modular route fails
(their raw rows are in crafted.py, which imports no echelon, so that
compare_outputs.py writes the same ones), the writers of the CLI's matrix
and system texts, the CLI runner, and `spy`, the one call counter."""
from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import itertools
import os
import tempfile
from fractions import Fraction
from math import lcm

import pytest

from echelon import (
    GF,
    QQ,
    Axpy,
    LinearSystem,
    Matrix,
    Scalar,
    Scale,
    Swap,
    Vector,
    as_scalar,
)
from echelon.cli import main

# the crafted table, its primes and its writers, also for the test modules
from crafted import CRAFTED, FALLBACKS, P, Q, SYSTEMS, rows_text

GF7 = GF(7)
# the field name of the GF(P) image, as the routes fixture names it
IMAGE = str(GF(P))
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


@dataclasses.dataclass
class Sweep:
    """One sweep in the routes fixture's log: the matrix, the name of the
    field it ran over (the matrix's own, or IMAGE), and how many columns it
    answered."""

    matrix: Matrix
    field: str
    answered: int = 0


def is_canonical(x, field) -> bool:
    """Is x a raw value in its one form: over Q an int, or a Fraction that
    is not whole; over GF(p) an int in 0..p-1?"""
    if field.modulus is None:
        return type(x) is int or type(x) is Fraction and x.denominator != 1
    return type(x) is int and 0 <= x < field.modulus


def mat(rows, field=QQ) -> Matrix:
    return Matrix.from_rows(rows, field)


def vec(values, field=QQ) -> Vector:
    return Vector(tuple(values), field)


def sc(value, field=QQ):
    return as_scalar(value, field)


def matrix_t(field=QQ) -> Matrix:
    return mat(T_ROWS, field)


def matrix_j(field=QQ) -> Matrix:
    return mat(J_ROWS, field)


def scalar_rows(m: Matrix) -> list[list[Scalar]]:
    return [list(m.row(i).entries) for i in range(1, m.rows + 1)]


# the entry kinds of the random builders: integers in -bound..bound, a/b
# with |a| <= bound and 1 <= b <= bound, b drawn first and drawn again while
# the field's prime divides it, and integers in -2**63..2**63
KINDS = ["small", "a/b", "int64"]


def _random_rows(rng, rows, cols, field, bound, kind) -> list[list]:
    p, bound = field.modulus, 2**63 if kind == "int64" else bound

    def entry():
        while kind == "a/b":
            b = rng.randint(1, bound)
            if p is None or b % p:
                return Fraction(rng.randint(-bound, bound), b)
        return rng.randint(-bound, bound)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def random_matrix(rng, rows, cols, field, bound=5, kind="small") -> Matrix:
    return mat(_random_rows(rng, rows, cols, field, bound, kind), field)


def random_low_rank_matrix(rng, rows, cols, rank, field, bound=5, kind="small") -> Matrix:
    """A product of random rows x rank and rank x cols factors, so of rank
    at most `rank`; rank 0 gives the zero matrix."""
    left = _random_rows(rng, rows, rank, field, bound, kind)
    right = _random_rows(rng, rank, cols, field, bound, kind)
    return mat(
        [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in left],
        field,
    )


def random_low_rank_shape(rng, max_rows=6, max_cols=14) -> tuple[int, int, int]:
    """rows, cols and a rank below min(rows, cols) where that is possible;
    cols is often several times rows (a wide matrix)."""
    rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
    return rows, cols, rng.randint(0, max(0, min(rows, cols) - 1))


def random_matrices(rng, field, bound, count, kind="small"):
    """`count` random matrices of random_shape, of `small` or `a/b`
    entries, then half as many rank-deficient ones, many of them wide: of
    `a/b` kind, a low-rank integer matrix with each row scaled by a random
    a/b, where that is nonzero in the field."""
    for _ in range(count):
        p, q = random_shape(rng)
        yield random_matrix(rng, p, q, field, bound, kind)
    for _ in range(count // 2):
        p, q, rank = random_low_rank_shape(rng)
        low = random_low_rank_matrix(rng, p, q, rank, field, bound)
        if kind == "a/b":
            scales = random_vector(rng, p, field, bound, kind).entries
            low = Matrix.from_rows(
                [[c * x for x in row] if c else row for c, row in zip(scales, scalar_rows(low))],
                field,
            )
        yield low


def random_shape(rng, max_rows=8, max_cols=10) -> tuple[int, int]:
    return rng.randint(1, max_rows), rng.randint(1, max_cols)


def random_vector(rng, dim, field, bound=5, kind="small") -> Vector:
    return random_matrix(rng, dim, 1, field, bound, kind).column(1)


def random_ops(rng, rows, field, max_len=20) -> list:
    """A random sequence of legal row operations for a `rows`-row matrix.

    Scale coefficients stay in {-4..4} minus zero; one that vanishes in the
    field (an even one over GF(2)) becomes 1.
    """
    ops = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["scale"] if rows == 1 else ["swap", "scale", "axpy", "axpy"])
        if kind == "swap":
            i, j = rng.sample(range(1, rows + 1), 2)
            ops.append(Swap(i, j))
        elif kind == "scale":
            c = sc(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), field)
            ops.append(Scale(rng.randint(1, rows), c if c else field.one()))
        else:
            t, s = rng.sample(range(1, rows + 1), 2)
            ops.append(Axpy(t, s, sc(rng.randint(-4, 4), field)))
    return ops


def random_consistent_system(rng, rows, cols, field, bound=5, kind="small") -> LinearSystem:
    """Consistency by construction: the right-hand side is the reference
    product with a random solution."""
    m = random_matrix(rng, rows, cols, field, bound, kind)
    return LinearSystem(m, reference_matvec(m, random_vector(rng, cols, field, bound, kind)))


def system_from_augmented(aug: Matrix) -> LinearSystem:
    """Split an augmented matrix back into coefficient part and RHS column."""
    coeff = aug.take_columns(range(1, aug.cols))
    return LinearSystem(coeff, aug.column(aug.cols))


def exhaustive_solutions(system: LinearSystem, p: int) -> set[tuple[int, ...]]:
    """Every x in GF(p)^q with A x = c, by exhaustive search in plain
    modular arithmetic on the raw entries."""
    q = system.coeff.cols
    rows = system.augmented().raw_rows()
    return {
        x
        for x in itertools.product(range(p), repeat=q)
        if all(sum(a * xi for a, xi in zip(row, x)) % p == row[q] for row in rows)
    }


def with_free_entry_moved(rng, m: Matrix) -> Matrix | None:
    """The reduced form of m (by reference_gauss_jordan) with one free entry,
    in a pivot row right of its pivot and in a nonpivot column, raised by 1:
    again a reduced form with the same pivots, but a different null space.
    None when the reduced form has no free entry."""
    _, r, pivots = reference_gauss_jordan(m)
    spots = [
        (i, j)
        for i, s in enumerate(pivots, start=1)
        for j in range(s + 1, m.cols + 1)
        if j not in pivots
    ]
    if not spots:
        return None
    i, j = rng.choice(spots)
    return r.with_entry(i, j, r.entry(i, j) + m.field.one())


def padded(m: Matrix, rows: int) -> Matrix:
    """m over zero rows, to `rows` rows."""
    return mat([*m.raw_rows(), *[[0] * m.cols] * (rows - m.rows)], m.field)


def unimodular(rng, n) -> list[list[int]]:
    """L·U, unit lower times unit upper triangular, entries of both in -1..1:
    the rows of an integer matrix of determinant 1."""
    lo = [[int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def matrix_with_rref(rng, rows, cols, rank) -> Matrix:
    """An integer rows x cols matrix whose RREF is a random rank-r RREF E
    with a/b entries: V·[E; 0] for a unimodular V, each row then scaled to
    integers, which keeps the RREF."""
    pivots = sorted(rng.sample(range(cols), rank))
    e = [[0] * cols for _ in range(rows)]
    for i, s in enumerate(pivots):
        e[i][s] = 1
        for j in range(s + 1, cols):
            if j not in pivots:
                e[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    v = unimodular(rng, rows)
    m = [[sum(v[i][k] * e[k][j] for k in range(rank)) for j in range(cols)] for i in range(rows)]
    return mat([[x * lcm(*[Fraction(y).denominator for y in row]) for x in row] for row in m])


# CRAFTED (from crafted.py): the inputs on which the image mod P or the rank
# loop mod Q fails, as raw rows over Q, each test naming its cases after them;
# crafted.SYSTEMS as LinearSystems over Q
CRAFTED_SYSTEMS = {name: system_from_augmented(mat(rows)) for name, rows in SYSTEMS.items()}
# the 2 x 2 and 16 x 16 identity systems, whose solutions are all ones, and
# an inconsistent one
EYE, EYE16 = CRAFTED_SYSTEMS["eye"], CRAFTED_SYSTEMS["eye16"]
INCONSISTENT = LinearSystem(mat([[1, 1], [1, 1]]), vec([0, 1]))
# the syseq pairs of crafted.FALLBACKS, whose second system the GF(P) image
# cannot prove consistent, with the CLI's exit code
CRAFTED_FALLBACKS = [
    pytest.param(system_from_augmented(mat(a)), system_from_augmented(mat(b)), code, id=name)
    for a, b, code, name in FALLBACKS
]


# The CLI's input texts, and the CLI run in process.


def _rows(m) -> list:
    return m.raw_rows() if isinstance(m, Matrix) else m


def matrix_text(m, sep=" ") -> str:
    """A Matrix, or rows of values or strings, as the CLI reads and prints a
    matrix: one line per row, its literals joined by sep."""
    return rows_text(_rows(m), sep)


def system_text(s, sep=" ") -> str:
    """A LinearSystem, or an augmented Matrix or its rows, as the CLI reads a
    system: as matrix_text, with a `|` before each row's last entry."""
    return rows_text(_rows(s.augmented() if isinstance(s, LinearSystem) else s), sep, bar=True)


def run_cli(argv, *texts) -> tuple[int, str, str]:
    """echelon.cli.main's exit code, stdout and stderr on argv. Each of the
    texts (str, or bytes as they are) is first written to a file in a
    temporary directory, and the file names go right after argv's command."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        paths = [os.path.join(work, f"in{k}.txt") for k in range(len(texts))]
        for path, text in zip(paths, texts):
            with open(path, "wb") as fh:
                fh.write(text.encode() if isinstance(text, str) else text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv[:1], *paths, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def spy(monkeypatch, name, *owners, log=None) -> list[tuple]:
    """Patch `name` on each owner (a module or a class) to log each call, as
    (name, *positional arguments), self or cls first where the original
    takes one, and then call the original; a classmethod or staticmethod
    stays one. Returns the log: `log` when given, so that several names
    share one ordered log."""
    log = [] if log is None else log
    for owner in owners:
        original = inspect.getattr_static(owner, name)
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        called = _calling(log, name, original.__func__ if kind else original)
        monkeypatch.setattr(owner, name, kind(called) if kind else called)
    return log


def _calling(log, name, fn):
    def called(*args, **kwargs):
        log.append((name, *args))
        return fn(*args, **kwargs)

    return called


# Reference kernels: the matrix-vector product and linear combinations of
# vectors in Scalar arithmetic, and the classical column sweep and
# Gauss-Jordan on raw values (Fractions over Q, residues over GF(p)); each
# does one field operation per entry and step. The fraction-free kernels in
# echelon must agree with them exactly.


def reference_matvec(m: Matrix, v: Vector) -> Vector:
    """m times v in Scalar arithmetic: one field multiply and one add per
    entry of every row."""
    out = []
    for i in range(1, m.rows + 1):
        acc = m.field.zero()
        for a, x in zip(m.row(i).entries, v.entries):
            acc = acc + a * x
        out.append(acc)
    return Vector(tuple(out), m.field)


def reference_combination(terms, dim: int, field) -> Vector:
    """The sum of c*v over the (Scalar c, Vector v) terms in Scalar
    arithmetic: one field multiply and one add per entry of every term. The
    zero vector of dimension dim when there are no terms."""
    acc = [field.zero()] * dim
    for c, v in terms:
        assert v.dim == dim
        acc = [a + c * x for a, x in zip(acc, v.entries)]
    return Vector(tuple(acc), field)


def _ref_inverse(field, a):
    """Exact over Q: a raw value may be an int, and 1 / a is then a float."""
    return Fraction(1, a) if field.modulus is None else pow(a, -1, field.modulus)


def _ref_scale(field, c, xs) -> list:
    p = field.modulus
    return [c * x for x in xs] if p is None else [c * x % p for x in xs]


def _ref_axpy(field, xs, f, ys) -> list:
    """xs - f*ys, as far as the shorter of xs and ys."""
    p = field.modulus
    if p is None:
        return [x - f * y for x, y in zip(xs, ys)]
    return [(x - f * y) % p for x, y in zip(xs, ys)]


def reference_sweep(m: Matrix) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """The journals and pivot set of the left-to-right column sweep. Each
    keeper is stored normalized, followed by its expression over the
    original keepers, negated."""
    field, dim = m.field, m.rows
    leads: list[int] = []
    reduced: list[list] = []
    journals, pivots = [], []
    for n in range(1, m.cols + 1):
        work = [e.value for e in m.column(n).entries] + [0] * len(reduced)
        for lead, u in zip(leads, reduced):
            if work[lead]:
                work[: len(u)] = _ref_axpy(field, work, work[lead], u)
        lead = next((r for r in range(dim) if work[r]), None)
        if lead is None:
            coeffs = work[dim:]
        else:
            leads.append(lead)
            reduced.append(_ref_scale(field, _ref_inverse(field, work[lead]), work + [-1]))
            coeffs = [0] * len(pivots) + [1]
            pivots.append(n)
        journals.append(Vector(tuple(coeffs + [0] * (dim - len(coeffs))), field))
    return tuple(journals), tuple(pivots)


def reference_gauss_jordan(m: Matrix) -> tuple[tuple, Matrix, tuple[int, ...]]:
    """The op log, reduced form and pivot set of classical Gauss-Jordan:
    first nonzero pivot top to bottom, the pivot row scaled to 1, then every
    other row cleared in the pivot column."""
    field = m.field
    work = m.raw_rows()
    ops, pivots = [], []
    pivot_row = 0
    for col in range(m.cols):
        pick = next((r for r in range(pivot_row, m.rows) if work[r][col]), None)
        if pick is None:
            continue
        if pick != pivot_row:
            work[pick], work[pivot_row] = work[pivot_row], work[pick]
            ops.append(Swap(pivot_row + 1, pick + 1))
        pv = work[pivot_row][col]
        if pv != 1:
            factor = _ref_inverse(field, pv)
            work[pivot_row] = _ref_scale(field, factor, work[pivot_row])
            ops.append(Scale(pivot_row + 1, Scalar(field, factor)))
        prow = work[pivot_row]
        for r in range(m.rows):
            f = work[r][col]
            if r != pivot_row and f:
                work[r] = _ref_axpy(field, work[r], f, prow)
                ops.append(Axpy(r + 1, pivot_row + 1, Scalar(field, f)))
        pivots.append(col + 1)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return tuple(ops), Matrix.from_rows(work, field), tuple(pivots)
