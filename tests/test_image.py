"""The two questions gauche first puts to a modular image of the matrix.

`_keepers` (which columns a sweep keeps) and `_consistent` (is the last
column in the span of the others) must answer over every field exactly as
the exact sweep does. Over Q `_keepers` asks the certificate's rank loop
mod q = 268435367 (`_independent`), and `_consistent`, on a matrix of at
least 16 rows, takes a combination that the GF(P) sweep proposes. Their
callers, `pivots` and `basis`, the rank half of `null_equal` and
`solution_equivalent`, and the consistency proof of a second system, must
answer as before; where the rank drops mod q, or the image cannot be taken
because its prime divides a denominator, the exact route must run. The
`routes` log of sweeps and rank-loop verdicts shows which route ran;
full-rank inputs crafted against P take the rank shortcut. Entries are
small integers, a/b literals and 64-bit integers. Each coefficient the
GF(P) sweep proposes is read back as a rational by `_rational`, tested
here at and past its bound.
"""
import itertools
import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from echelon import (
    QQ,
    InconsistentSystemError,
    LinearSystem,
    Matrix,
    apply_ops,
    column_in_span,
    gauche_rref,
    null_equal,
    solution_equivalent,
)
from echelon.gauche import P, _consistent, _keepers, _rational
from echelon.scalars import format_values

from helpers import (
    CRAFTED,
    CRAFTED_SYSTEMS,
    EYE,
    FIELD_CASES,
    INCONSISTENT,
    KINDS,
    Q,
    Sweep,
    mat,
    matrix_text,
    padded,
    random_low_rank_matrix,
    random_matrices,
    random_matrix,
    random_ops,
    run_cli,
    system_from_augmented,
    vec,
)


def _shapes(rng):
    """Dense n x (n+1), wide full-row-rank, tall, and low-rank inputs, among
    them rank min(rows, cols) - 1, where the first r - 1 columns are
    independent and column r is not."""
    for n in range(1, 7):
        yield "dense", (n, n + 1, None)
    for _ in range(4):
        rows = rng.randint(1, 4)
        yield "wide", (rows, rng.randint(rows + 2, 3 * rows + 4), None)
        cols = rng.randint(1, 4)
        yield "tall", (cols + rng.randint(1, 3), cols, None)
    for _ in range(6):
        rows, cols = rng.randint(2, 5), rng.randint(2, 9)
        yield "low", (rows, cols, min(rows, cols) - 1)
        yield "low", (rows, cols, rng.randint(0, min(rows, cols) - 1))


@pytest.mark.parametrize("kind", KINDS)
def test_cli_pivots_and_basis_match_the_sweep(kind, routes):
    """Both the rank shortcut and the sweep are taken, and agree with the
    sweep: `pivots` and `basis` each ask the rank loop once, sweep every
    column over Q exactly when it answers False, and never sweep the GF(P)
    image."""
    rng = random.Random(f"pivots-{kind}")
    verdicts = set()
    for shape, (rows, cols, rank) in _shapes(rng):
        if rank is None:
            m = random_matrix(rng, rows, cols, QQ, kind=kind)
        else:
            m = random_low_rank_matrix(rng, rows, cols, rank, QQ, kind=kind)
        text = matrix_text(m)
        expected = list(gauche_rref(m).pivot_set)
        columns = [format_values(m.values[j - 1 :: m.cols]) for j in expected]
        basis = {"indices": expected, "columns": columns}
        for command, out in (("pivots", {"pivots": expected}), ("basis", basis)):
            routes.clear()
            code, stdout, _ = run_cli([command, "--format", "json"], text)
            assert (code, json.loads(stdout)) == (0, out), (shape, m)
            assert routes in ([True], [False, Sweep(m, "Q", m.cols)])
            verdicts.add(routes[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    ("rows", "pivots", "loop"),
    [
        pytest.param(CRAFTED[name], pivots, loop, id=name)
        for name, pivots, loop in [
            ("minor-q", [1, 2], False),
            ("1/q-rank-1", [1], ZeroDivisionError),
            ("1/q-full-rank", [1, 2], ZeroDivisionError),
            # inputs whose image mod P drops rank or does not exist: the rank
            # loop mod q proves the first two full rank, and sees the third drop
            ("minor-P", [1, 2], True),
            ("1/P-full-rank", [1, 2], True),
            ("1/P-rank-1", [1], False),
        ]
    ],
)
def test_cli_pivots_fall_back_when_the_image_fails(rows, pivots, loop, routes):
    """The rank loop is asked once per command. Where its image mod q drops
    rank or does not exist, it proves nothing, and the command sweeps the
    matrix exactly once over Q; where it answers True, no sweep runs."""
    m = mat(rows)
    assert list(gauche_rref(m).pivot_set) == pivots
    for command, key in (("pivots", "pivots"), ("basis", "indices")):
        routes.clear()
        code, out, _ = run_cli([command, "--format", "json"], matrix_text(m))
        assert (code, json.loads(out)[key]) == (0, pivots)
        assert routes == ([True] if loop is True else [loop, Sweep(m, "Q", m.cols)])


def test_image_rank_drop_takes_the_exact_route(routes):
    """diag(1, q) has full rank over Q, rank 1 mod q: a = I and b = diag(1, q)
    share the null space {0}, and only the exact sweep of b's two pivot
    columns, after a's sweep, can tell. diag(1, P) keeps full rank mod q,
    so its exact sweep is skipped."""
    a = EYE
    eye, aug_a = a.coeff, a.augmented()
    for name, full in (("q", False), ("P", True)):
        b = CRAFTED_SYSTEMS[f"drop-{name}"]
        diag, aug_b = b.coeff, b.augmented()

        def rank(m):
            """The rank loop on m's two pivot columns, then their exact
            sweep unless the loop proved them independent."""
            return [True] if full else [False, Sweep(m, "Q", 2)]

        for question, expected in (
            (lambda: null_equal(eye, diag), [Sweep(eye, "Q", 2), *rank(diag)]),
            (lambda: solution_equivalent(a, b), [Sweep(aug_a, "Q", 3), *rank(aug_b)]),
            # the other way round I keeps full rank mod q: no exact route
            (lambda: solution_equivalent(b, a), [Sweep(aug_b, "Q", 3), True]),
        ):
            routes.clear()
            assert question()
            assert routes == expected


def test_inconsistent_or_excluded_b_answers_as_before():
    """An inconsistent system on either side raises; a B that fails the
    inclusion, here diag(1, P) with the solution (1, 1/P), takes a sweep and
    compares unequal."""
    for a, b in ((EYE, INCONSISTENT), (INCONSISTENT, EYE)):
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(a, b)
    assert not solution_equivalent(EYE, CRAFTED_SYSTEMS["drop-P-moved"])


def test_unknown_image_is_never_independent(routes):
    """1/q has no image mod q, so the rank loop raises at its first column:
    the exact sweep decides, and a rank-deficient b_K is not taken as
    independent. 1/P has an image mod q, where the loop itself sees b_K's
    rank drop, or proves full rank with no exact sweep of b."""
    eye = mat([[1, 0], [0, 1]])
    cases = (("q", Q, ZeroDivisionError, ZeroDivisionError), ("P", P, False, True))
    for name, prime, deficient_loop, full_loop in cases:
        deficient = mat(CRAFTED[f"1/{name}-rank-1"])
        routes.clear()
        assert not null_equal(eye, deficient)
        assert routes == [Sweep(eye, "Q", 2), deficient_loop, Sweep(deficient, "Q", 2)]
        full = mat(CRAFTED[f"1/{name}-full-rank"])
        routes.clear()
        assert null_equal(eye, full)
        b_exact = [] if full_loop is True else [Sweep(full, "Q", 2)]
        assert routes == [Sweep(eye, "Q", 2), full_loop, *b_exact]
        aug = mat([[Fraction(1, prime), Fraction(2, prime), Fraction(3, prime)], [1, 2, 3]])
        a = LinearSystem(eye, vec([1, 1]))
        assert not solution_equivalent(a, system_from_augmented(aug))


def _same_rows(a: Matrix, b: Matrix) -> bool:
    """Equal null spaces: equal nonzero rows of the two RREFs."""

    def nonzero(m):
        return [row for row in gauche_rref(m).rref.raw_rows() if any(row)]

    return nonzero(a) == nonzero(b)


def _rref_consistent(aug: Matrix) -> bool:
    return aug.cols not in gauche_rref(aug).pivot_set


def _partners(rng, aug: Matrix, kind):
    """Row-operation images (same null space), the right-hand side moved by
    a column, low-rank and random matrices of the same width."""
    rows, cols = aug.rows, aug.cols
    yield apply_ops(aug, random_ops(rng, rows, QQ))
    moved = [list(row) for row in aug.raw_rows()]
    for row in moved:
        row[-1] += row[0]
    yield mat(moved)
    yield random_low_rank_matrix(rng, rows, cols, rng.randint(0, rows), QQ, kind=kind)
    yield random_matrix(rng, rows, cols, QQ, kind=kind)


@pytest.mark.parametrize("kind", KINDS)
def test_null_equal_and_syseq_answer_as_the_rref_comparison(kind):
    """Against the RREF comparison, which sweeps both sides: null_equal
    gives the same verdict, and solution_equivalent the same verdict or
    the same InconsistentSystemError, on every pair."""
    rng = random.Random(f"syseq-{kind}")
    verdicts = set()
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(2, 7)
        rank = rng.randint(0, min(rows, cols))
        aug = random_low_rank_matrix(rng, rows, cols, rank, QQ, kind=kind)
        for other in _partners(rng, aug, kind):
            assert null_equal(aug, other) == _same_rows(aug, other)
            a, b = system_from_augmented(aug), system_from_augmented(other)
            if _rref_consistent(aug) and _rref_consistent(other):
                verdict = solution_equivalent(a, b)
                verdicts.add(verdict)
                assert verdict == _same_rows(aug, other)
            else:
                verdicts.add("inconsistent")
                with pytest.raises(InconsistentSystemError):
                    solution_equivalent(a, b)
    assert verdicts == {True, False, "inconsistent"}


def _selections(rng, cols):
    """Every ordered selection of distinct columns of a matrix at most
    three wide, else a few random ones."""
    if cols <= 3:
        for size in range(cols + 1):
            yield from itertools.permutations(range(1, cols + 1), size)
        return
    for _ in range(4):
        yield tuple(rng.sample(range(1, cols + 1), rng.randint(0, cols)))


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_keepers_and_spans_answer_as_the_exact_sweep(field, bound):
    """On dense, wide low-rank and crafted inputs: _keepers(m, js) is the
    keepers of the exact sweep of m's columns js, taken in that order, and
    _consistent(m.take_columns([*js, k])) holds exactly when column_in_span
    finds coefficients. The crafted inputs come again over zero rows, and
    a few low-rank ones have 16 rows, so that over Q _consistent asks the
    GF(P) image of them."""
    rng = random.Random(f"keepers-{field}-{bound}")
    crafted = [mat(rows, field) for rows in CRAFTED.values() if len(rows) < 16]
    tall = (padded(m, 16) for m in crafted)
    low = (random_low_rank_matrix(rng, 16, rng.randint(3, 8), 3, field, bound) for _ in range(3))
    for m in itertools.chain(random_matrices(rng, field, bound, 16), crafted, tall, low):
        for js in _selections(rng, m.cols):
            pivots = gauche_rref(m.take_columns(js)).pivot_set if js else ()
            assert _keepers(m, js) == tuple(js[s - 1] for s in pivots), (m, js)
            for k in set(range(1, m.cols + 1)) - set(js):
                spans = column_in_span(m, k, js) is not None
                assert _consistent(m.take_columns([*js, k])) == spans, (m, js, k)


# _rational's bound on |a| and b
BOUND = isqrt(P // 2)


def test_every_small_rational_comes_back_from_its_residue():
    """Every a/b with |a|, b <= isqrt(P // 2) is what _rational reads back
    from a·b⁻¹ mod P, as a raw Q value (an int where b divides a): the
    corners 0, ±bound, 1/bound and ±bound/(bound − 1), every a/b with
    |a|, b <= 20, and a seeded sample."""
    rng = random.Random("rational")
    corners = [(0, 1), (BOUND, 1), (-BOUND, 1), (1, BOUND)]
    corners += [(BOUND, BOUND - 1), (-BOUND, BOUND - 1)]
    small = itertools.product(range(-20, 21), range(1, 21))
    sample = [(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND)) for _ in range(2000)]
    for a, b in itertools.chain(corners, small, sample):
        value = _rational(a * pow(b, -1, P) % P, P)
        assert value == Fraction(a, b), (a, b)
        assert (type(value) is int) == (a % b == 0), (a, b)


@pytest.mark.parametrize(
    "u", [pow(BOUND + 1, -1, P), BOUND + 1], ids=["1/(bound+1)", "bound+1"]
)
def test_a_residue_past_the_bound_has_no_reconstruction(u):
    """Just past the bound no a/b within it has the residue, and _rational
    raises ArithmeticError rather than return one outside it."""
    with pytest.raises(ArithmeticError, match=f"^{u} has no rational reconstruction mod {P}$"):
        _rational(u, P)
