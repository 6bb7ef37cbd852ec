"""The readers' RREF over Q and the certificate that admits it.

`null`, `graph`, `solve` and `syseq` read an RREF that, on integer Q
matrices of at least 16 rows, is first laid out from the GF(P) image of the
sweep and taken only when `_certified` proves it: R in RREF, M = M_K·R, and
M_K of full column rank modulo a second prime. These tests check that the
readers' R is the sweep's and the oracle's across shapes and ranks, pin with
the `routes` log which route answered on each kind of fallback, and feed
the certificate wrong answers that it must refuse.
"""
import random
from fractions import Fraction

import pytest

from echelon import (
    QQ,
    GaucheResult,
    Matrix,
    Vector,
    gauche_rref,
    gauss_jordan,
    graph_relations,
    solution_equivalent,
    solve,
)
from echelon.gauche import _certified, _factors_through, _independent, _reader_rref
from echelon.nullspace import _relations
from echelon.rowops import rref_violation

from helpers import (
    CRAFTED_SYSTEMS,
    EYE16,
    IMAGE,
    Sweep,
    mat,
    matrix_with_rref,
    random_matrix,
    vec,
)


def _cases():
    """Integer matrices of 16 to 40 rows, square and n x (n+1), at full
    rank, 3/4 rank and rank 2 to 4."""
    rng = random.Random("reader-rref")
    yield pytest.param(mat([[0] * 16] * 16), id="16x16-zero")
    for n in (16, 24, 40):
        for cols in (n, n + 1):
            yield pytest.param(random_matrix(rng, n, cols, QQ), id=f"{n}x{cols}-full")
            yield pytest.param(matrix_with_rref(rng, n, cols, 3 * n // 4), id=f"{n}x{cols}-rank3/4")
            low = matrix_with_rref(rng, n, cols, rng.randint(2, 4))
            yield pytest.param(low, id=f"{n}x{cols}-low")


@pytest.mark.parametrize("m", _cases())
def test_reader_rref_is_the_sweeps_and_the_oracles(m, request, routes):
    res = _reader_rref(m)
    # a rank-deficient input, whose RREF has small entries, takes the image
    # alone; a full-rank one with a last column A^-1·b does not reconstruct
    if "full" not in request.node.callspec.id:
        assert routes == [Sweep(m, IMAGE, m.cols), True]
    assert res == gauche_rref(m)
    assert res.rref == gauss_jordan(m).rref


def test_image_answers_a_reconstructible_rref(routes):
    """20 x 20 rank 15: one image sweep, the certificate, no exact sweep."""
    m = matrix_with_rref(random.Random(20), 20, 20, 15)
    rel = graph_relations(m)
    assert routes == [Sweep(m, IMAGE, 20), True]
    assert rel == _relations(gauche_rref(m), m.cols)


@pytest.mark.parametrize(
    ("system", "rank_answers"),
    [
        # the image drops rank: it offers 0 for the last column, and the
        # product refutes it before the rank loop runs
        pytest.param(CRAFTED_SYSTEMS["diag-P-ones"], [], id="diag-P"),
        # the image keeps every column, R = I passes shape and product, and
        # only the rank loop, mod its own prime, refuses
        pytest.param(CRAFTED_SYSTEMS["diag-q-ones"], [False], id="diag-q"),
    ],
)
def test_refused_image_falls_back_to_the_exact_sweep(system, rank_answers, routes):
    """graph on m, the coefficients of the system (crafted diag-P or
    diag-q), and solve on m x = diag(m), whose solution is all ones: one
    image sweep, then the exact one."""
    m = system.coeff
    reads = ((lambda: graph_relations(m), m), (lambda: solve(system), system.augmented()))
    for read, matrix in reads:
        routes.clear()
        answer = read()
        cols = matrix.cols
        assert routes == [Sweep(matrix, IMAGE, cols), *rank_answers, Sweep(matrix, "Q", cols)]
    assert answer.particular == vec([1] * 16)
    assert _reader_rref(m) == gauche_rref(m)
    assert gauche_rref(m).pivot_set == tuple(range(1, 17))


def test_unreconstructible_solution_falls_back(routes):
    """A 16 x 17 system whose solution holds 2**40/3: no reconstruction mod
    P, so no certificate is asked, and the exact sweep answers."""
    system = CRAFTED_SYSTEMS["2^40/3-16rows"]
    sol = solve(system)
    aug = system.augmented()
    assert routes == [Sweep(aug, IMAGE, 17), Sweep(aug, "Q", 17)]
    assert sol.particular == vec([Fraction(2**40, 3)] + [1] * 15)
    assert not solution_equivalent(system, EYE16)
    assert solution_equivalent(system, system)


def test_unreconstructible_coefficient_stops_the_image_sweep(routes):
    """Column 2 of a 16 x 16 matrix is 2**40/3 times column 1, a coefficient
    with no reconstruction mod P: the image sweep stops at column 2, and the
    exact sweep answers graph."""
    rows = [[3, 2**40] + [0] * 14] + [[0, 0] + [int(i == j) for j in range(14)] for i in range(14)]
    m = mat(rows + [[0] * 16])
    rel = graph_relations(m)
    assert routes == [Sweep(m, IMAGE, 2), Sweep(m, "Q", 16)]
    assert rel == _relations(gauche_rref(m), m.cols)
    assert rel.pivot_exprs[0] == (1, (Fraction(-(2**40), 3),))


def _base():
    """A 16 x 20 integer matrix of rank 12 and its RREF."""
    m = matrix_with_rref(random.Random(16), 16, 20, 12)
    res = gauche_rref(m)
    free = [n for n in range(1, 21) if n not in res.pivot_set]
    return m, res, free


def _with(res: GaucheResult, changes: dict, pivots=None) -> GaucheResult:
    """res with R's entries at the 1-based (row, column) keys replaced."""
    values, cols = list(res.rref.values), res.rref.cols
    for (i, j), x in changes.items():
        values[(i - 1) * cols + j - 1] = x
    rref = Matrix._raw(res.rref.rows, cols, tuple(values), res.rref.field)
    return GaucheResult(rref, res.pivot_set if pivots is None else tuple(pivots))


def _product(m: Matrix, res: GaucheResult) -> Matrix:
    """m_K·R, m_K m's columns at res's pivots: a matrix that res's R
    factors, so that the product check holds by construction."""
    m_k, rank, cols = m.take_columns(res.pivot_set), len(res.pivot_set), m.cols
    journals = [Vector._raw(res.rref.values[n : rank * cols : cols], m.field) for n in range(cols)]
    columns = [(m_k @ journal).values for journal in journals]
    return Matrix._raw(m.rows, cols, tuple(c[i] for i in range(m.rows) for c in columns), m.field)


def test_certificate_accepts_the_rref():
    m, res, _ = _base()
    assert _certified(m, res)


def test_certificate_refuses_a_bumped_entry():
    m, res, free = _base()
    n = free[-1]
    assert not _certified(m, _with(res, {(1, n): res.rref.values[n - 1] + 1}))


def test_certificate_refuses_a_moved_pivot():
    m, res, free = _base()
    pivots = list(res.pivot_set)
    # the first pivot with a free column right after it moves onto it
    k = next(k for k, s in enumerate(pivots) if s + 1 in free)
    pivots[k] += 1
    assert not _certified(m, _with(res, {}, pivots))


def test_certificate_refuses_a_non_rref():
    """Rows 1 and 2 of R swapped: the pivots no longer move right."""
    m, res, _ = _base()
    rows = res.rref.raw_rows()
    swapped = {(i, j): x for i in (1, 2) for j, x in enumerate(rows[2 - i], start=1)}
    assert not _certified(m, _with(res, swapped))


def test_certificate_refuses_a_coefficient_on_a_keeper_to_the_right():
    """A free column left of the last keeper takes a coefficient on it, and m
    is rebuilt so that m = m_K·R still holds: only the shape refuses it."""
    m, res, free = _base()
    rank, last = len(res.pivot_set), res.pivot_set[-1]
    n = next(n for n in free if n < last)
    wrong = _with(res, {(rank, n): 5})
    rebuilt = _product(m, wrong)
    assert _factors_through(wrong, rebuilt)
    assert not _certified(rebuilt, wrong)
    assert _product(m, res) == m


def test_certificate_refuses_dependent_keepers():
    """c2 = 2·c1 with K = {1, 2} and R = I: the product check alone accepts,
    and only the rank loop refuses."""
    rng = random.Random("dependent")
    c1 = [rng.randint(-5, 5) or 1 for _ in range(16)]
    m = mat([[x, 2 * x] for x in c1])
    eye = GaucheResult(mat([[1, 0], [0, 1]] + [[0, 0]] * 14), (1, 2))
    assert _factors_through(eye, m)
    assert not _certified(m, eye)
    assert _certified(m, gauche_rref(m))


def test_certificate_refuses_pivots_its_rows_do_not_lead():
    """R is an RREF and m = m_K·R with m_K independent, but R's one row
    leads at column 1, not at the claimed pivot 2: only the leads refuse."""
    m = mat([[1, 1], [2, 2]])
    wrong = GaucheResult(mat([[1, 1], [0, 0]]), (2,))
    assert rref_violation(wrong.rref) is None
    assert _factors_through(wrong, m) and _independent(m, wrong.pivot_set)
    assert not _certified(m, wrong)


def test_certificate_refuses_a_pivot_entry_other_than_one():
    """R = [2 3] leads at the claimed pivot 1, m = m_K·R on the free column
    and m_K is independent, but R's pivot entry is 2: only the RREF shape
    refuses it."""
    m = mat([[1, 3], [2, 6]])
    wrong = GaucheResult(mat([[2, 3], [0, 0]]), (1,))
    assert rref_violation(wrong.rref) == "Pivots"
    assert _factors_through(wrong, m) and _independent(m, wrong.pivot_set)
    assert not _certified(m, wrong)
