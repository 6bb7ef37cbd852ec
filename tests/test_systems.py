"""Linear systems: exact solving, solution-set comparison, row equivalence."""
import collections
import random
from fractions import Fraction

import pytest

from echelon import (
    GF,
    QQ,
    Affine,
    FieldMismatchError,
    GraphRelations,
    Inconsistent,
    InconsistentSystemError,
    KeeperState,
    LinearSystem,
    Matrix,
    Scale,
    ShapeError,
    Vector,
    apply_ops,
    columns_independent,
    gauche_rref,
    graph_relations,
    null_basis,
    null_equal,
    row_equivalent,
    solution_equivalent,
    solve,
    std_basis,
)

from echelon.cli import main
from echelon.gauche import P
from echelon.scalars import format_values
from echelon.systems import _image_solves

from helpers import (
    FIELD_CASES,
    FIELDS,
    exhaustive_solutions,
    mat,
    matrix_j,
    matrix_t,
    random_consistent_system,
    random_fraction_system,
    random_low_rank_matrix,
    random_low_rank_shape,
    random_matrix,
    random_ops,
    random_shape,
    random_vector,
    sc,
    system_from_augmented,
    vec,
    with_free_entry_moved,
)


class TestLinearSystem:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LinearSystem(matrix_t(), vec([1, 2]))

    def test_field_mismatch_rejected(self):
        from helpers import GF7

        with pytest.raises(FieldMismatchError):
            LinearSystem(matrix_t(), vec([1, 2, 3], GF7))

    def test_augmented_layout(self):
        system = LinearSystem(matrix_t(), vec([1, 2, 3]))
        aug = system.augmented()
        assert aug.cols == 6
        assert aug.column(6) == vec([1, 2, 3])


class TestSolve:
    def test_rhs_equal_to_a_keeper_column(self):
        t = matrix_t()
        sol = solve(LinearSystem(t, t.column(5)))
        assert isinstance(sol, Affine)
        # free variables pinned to zero puts the whole weight on column 5
        assert sol.particular == std_basis(5, 5, QQ)
        assert t @ sol.particular == t.column(5)

    def test_unique_solution(self):
        sol = solve(LinearSystem(Matrix.identity(2, QQ), vec([1, 2])))
        assert isinstance(sol, Affine)
        assert sol.particular == vec([1, 2])
        assert sol.homogeneous.basis == ()

    def test_contradictory_rows(self):
        sol = solve(LinearSystem(mat([[1, 1], [1, 1]]), vec([0, 1])))
        assert isinstance(sol, Inconsistent)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_substitution_check_on_random_systems(self, field):
        rng = random.Random(60)
        for _ in range(80):
            p, q = rng.randint(1, 5), rng.randint(1, 6)
            system = random_consistent_system(rng, p, q, field)
            sol = solve(system)
            assert isinstance(sol, Affine)
            assert system.coeff @ sol.particular == system.rhs
            for h in sol.homogeneous.basis:
                assert (system.coeff @ h).is_zero()

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_row_operations_never_change_the_solution_set(self, field):
        rng = random.Random(61)
        for _ in range(50):
            p, q = rng.randint(1, 5), rng.randint(1, 6)
            system = random_consistent_system(rng, p, q, field)
            twin = system_from_augmented(
                apply_ops(system.augmented(), random_ops(rng, p, field, max_len=10))
            )
            assert solution_equivalent(system, twin)


class TestSolutionEquivalent:
    def test_distinct_singletons(self):
        eye = Matrix.identity(2, QQ)
        a = LinearSystem(eye, vec([1, 0]))
        b = LinearSystem(eye, vec([0, 1]))
        assert not solution_equivalent(a, b)

    def test_scaled_homogeneous_system(self):
        t = matrix_t()
        zero_rhs = vec([0, 0, 0])
        doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
        assert solution_equivalent(LinearSystem(t, zero_rhs), LinearSystem(doubled, zero_rhs))

    def test_inconsistent_inputs_rejected(self):
        good = LinearSystem(Matrix.identity(2, QQ), vec([1, 1]))
        bad = LinearSystem(mat([[1, 1], [1, 1]]), vec([0, 1]))
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(good, bad)
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(bad, good)

    def test_shape_mismatch_rejected(self):
        a = LinearSystem(Matrix.identity(2, QQ), vec([1, 1]))
        b = LinearSystem(mat([[1, 0, 0], [0, 1, 0]]), vec([1, 1]))
        with pytest.raises(ShapeError):
            solution_equivalent(a, b)

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_chain_to_augmented_row_equivalence(self, field, bound):
        """Same solutions <-> the augmented matrices reduce identically, on
        integer and a/b systems. b is a row-operation image of a, an
        unrelated system, or a's reduced augmented form with one free
        entry moved (a coefficient, or the right-hand side of a pivot row),
        which keeps b consistent but never gives it a's solutions."""
        rng = random.Random(62)
        moved_pairs = 0
        for k in range(60):
            p, q = rng.randint(1, 5), rng.randint(1, 5)
            if k % 2:
                a = random_fraction_system(rng, p, q, field, bound)
            else:
                a = random_consistent_system(rng, p, q, field)
            pick = rng.random()
            moved = with_free_entry_moved(rng, a.augmented()) if pick < 0.4 else None
            if moved is not None:
                b = system_from_augmented(apply_ops(moved, random_ops(rng, p, field, max_len=10)))
                assert not solution_equivalent(a, b)
                moved_pairs += 1
            elif pick < 0.7:
                b = system_from_augmented(
                    apply_ops(a.augmented(), random_ops(rng, p, field, max_len=10))
                )
            else:
                b = random_fraction_system(rng, p, q, field, bound)
            same_solutions = solution_equivalent(a, b)
            same_reduced = gauche_rref(a.augmented()).rref == gauche_rref(b.augmented()).rref
            assert same_solutions == same_reduced
        assert moved_pairs >= 10

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_wide_low_rank_systems(self, field, bound):
        """Wide consistent systems, most columns free: a row-operation image
        has the same solutions; a right-hand side shifted by a pivot column
        moves every solution by a unit vector outside the null space."""
        rng = random.Random(65)
        shifted = 0
        for _ in range(30):
            p = rng.randint(1, 4)
            q, rank = rng.randint(12, 30), rng.randint(0, p)
            m = random_low_rank_matrix(rng, p, q, rank, field, bound)
            a = LinearSystem(m, m @ random_matrix(rng, q, 1, field, bound).column(1))
            twin = apply_ops(a.augmented(), random_ops(rng, p, field, max_len=10))
            assert solution_equivalent(a, system_from_augmented(twin))
            pivots = gauche_rref(m).pivot_set
            if pivots:
                column = m.column(rng.choice(pivots)).entries
                rhs = vec([x + y for x, y in zip(a.rhs.entries, column)], field)
                assert not solution_equivalent(a, LinearSystem(m, rhs))
                shifted += 1
        assert shifted >= 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solution_equivalence_against_exhaustive_solution_sets(p):
    """Over small prime fields the solution sets themselves are the oracle:
    with both nonempty, solution_equivalent says whether they are equal, and
    with either empty it raises. The pairs are row-operation images, the
    right-hand side moved along the first nonzero column (a pivot column),
    unrelated systems (often inconsistent), and all-zero coefficient
    matrices with zero and nonzero right-hand sides."""
    field, rng = GF(p), random.Random(66 + p)
    verdicts = collections.Counter()
    for k in range(60):
        rows, q = rng.randint(1, 3), rng.randint(1, 4)
        kind = k % 4
        if kind == 3:
            zero, rhs = Matrix.zero(rows, q, field), Vector.zero(rows, field)
            a, b = (
                LinearSystem(zero, random_vector(rng, rows, field) if rng.random() < 0.4 else rhs)
                for _ in range(2)
            )
        else:
            a = random_consistent_system(rng, rows, q, field)
        if kind == 0:
            b = system_from_augmented(
                apply_ops(a.augmented(), random_ops(rng, rows, field, max_len=10))
            )
        elif kind == 1:
            nonzero = [j for j in range(1, q + 1) if not a.coeff.column(j).is_zero()]
            if not nonzero:
                continue
            column = a.coeff.column(nonzero[0]).values
            b = LinearSystem(a.coeff, vec([c + x for c, x in zip(a.rhs.values, column)], field))
        elif kind == 2:
            b = LinearSystem(random_matrix(rng, rows, q, field), random_vector(rng, rows, field))
        s_a, s_b = exhaustive_solutions(a, p), exhaustive_solutions(b, p)
        if s_a and s_b:
            verdict = solution_equivalent(a, b)
            assert verdict == (s_a == s_b)
            if kind < 2:
                assert verdict == (kind == 0)
            verdicts[verdict] += 1
        else:
            with pytest.raises(InconsistentSystemError):
                solution_equivalent(a, b)
            verdicts["inconsistent"] += 1
    assert min(verdicts.values()) >= 3 and len(verdicts) == 3


class TestRowEquivalent:
    def test_worked_example_pair(self):
        assert row_equivalent(matrix_t(), matrix_j())

    def test_reflexive(self):
        assert row_equivalent(matrix_t(), matrix_t())

    def test_rank_difference(self):
        assert not row_equivalent(Matrix.identity(2, QQ), mat([[1, 0], [0, 0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            row_equivalent(matrix_t(), Matrix.identity(2, QQ))

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_lockstep_equals_the_rref_comparison(self, field, bound):
        """The lockstep sweeps answer as comparing the two RREFs, on
        row-operation images of a matrix and of a copy with one entry
        changed in a random column, dense and wide low-rank. Some changed
        copies keep every pivot, so only a coefficient tells them apart."""
        rng = random.Random(67)
        seen = collections.Counter()
        for k in range(80):
            if k % 2:
                rows, cols, rank = random_low_rank_shape(rng, max_cols=16)
                a = random_low_rank_matrix(rng, rows, cols, rank, field, bound)
            else:
                a = random_matrix(rng, *random_shape(rng, 6, 8), field, bound)
            i, j = rng.randint(1, a.rows), rng.randint(1, a.cols)
            changed = a.with_entry(i, j, a.entry(i, j) + field.one())
            for base in (a, changed):
                b = apply_ops(base, random_ops(rng, a.rows, field, max_len=10))
                res_a, res_b = gauche_rref(a), gauche_rref(b)
                verdict = row_equivalent(a, b)
                assert verdict == (res_a.rref == res_b.rref)
                seen[verdict, res_a.pivot_set == res_b.pivot_set] += 1
        assert seen[True, True] >= 80 and seen[False, True] >= 5 and seen[False, False] >= 5

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_lockstep_stops_at_the_first_differing_column(self, field, bound, sweeps):
        """Column 1 is zero in one matrix and a keeper in the other: each
        side eliminates that one column. An equivalent pair eliminates
        every column on both sides."""
        a, b = mat([[0, 1, 1], [0, 1, 0]], field), mat([[1, 1, 1], [0, 1, 0]], field)
        assert not row_equivalent(a, b)
        assert sweeps == {"__init__": 2, "eliminate": 2}
        sweeps.clear()
        assert row_equivalent(b, apply_ops(b, [Scale(1, sc(-1, field))]))
        assert sweeps == {"__init__": 2, "eliminate": 2 * b.cols}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_agrees_with_null_space_equality(self, field):
        rng = random.Random(63)
        for _ in range(40):
            p, q = rng.randint(1, 5), rng.randint(1, 6)
            a = random_matrix(rng, p, q, field)
            if rng.random() < 0.5:
                b = apply_ops(a, random_ops(rng, p, field))
            else:
                b = random_matrix(rng, p, q, field)
            assert row_equivalent(a, b) == null_equal(a, b)


def _counted(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def sweeps(monkeypatch):
    """Calls of each KeeperState method, counted from outside the library:
    `__init__` once per sweep, `eliminate` once per column eliminated (the
    checked `llq` wraps it), and any other method would show up under its
    own name."""
    counts = collections.Counter()
    for name, fn in list(vars(KeeperState).items()):
        if callable(fn):
            monkeypatch.setattr(KeeperState, name, _counted(counts, name, fn))
    return counts


@pytest.fixture
def sweeps_by_field(monkeypatch):
    """KeeperState constructions and eliminations, keyed by method and field
    name: ("__init__", "Q") counts the exact sweeps over Q, and the GF(P)
    keys the sweeps of an image."""
    counts = collections.Counter()
    init, eliminate = KeeperState.__init__, KeeperState.eliminate

    def counted_init(self, field, dim):
        counts["__init__", str(field)] += 1
        init(self, field, dim)

    def counted_eliminate(self, values):
        counts["eliminate", str(self.field)] += 1
        return eliminate(self, values)

    monkeypatch.setattr(KeeperState, "__init__", counted_init)
    monkeypatch.setattr(KeeperState, "eliminate", counted_eliminate)
    return counts


IMAGE = str(GF(P))


class TestOneSweepPerQuestion:
    def test_rref_eliminates_each_column_once(self, sweeps):
        for m in (matrix_t(), mat([[1, 2, 3, 4], [2, 4, 6, 9]]), Matrix.zero(2, 3, QQ)):
            sweeps.clear()
            gauche_rref(m)
            assert sweeps == {"__init__": 1, "eliminate": m.cols}

    def test_solve_sweeps_the_augmented_matrix_once(self, sweeps):
        t = matrix_t()
        assert isinstance(solve(LinearSystem(t, t.column(3))), Affine)
        assert sweeps == {"__init__": 1, "eliminate": t.cols + 1}
        sweeps.clear()
        assert isinstance(solve(LinearSystem(mat([[1, 1], [1, 1]]), vec([0, 1]))), Inconsistent)
        assert sweeps["__init__"] == 1

    def test_solution_equivalent_sweeps_each_system_once(self, sweeps_by_field):
        """[A | c] is swept over Q; [B | d], which passes the inclusion, is
        not swept at all: the image of its rank(A) = 3 pivot columns is."""
        t = matrix_t()
        doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
        a = LinearSystem(t, t.column(5))
        b = LinearSystem(doubled, doubled.column(5))
        assert solution_equivalent(a, b)
        assert sweeps_by_field == {
            ("__init__", "Q"): 1,
            ("eliminate", "Q"): t.cols + 1,
            ("__init__", IMAGE): 1,
            ("eliminate", IMAGE): 3,
        }
        # [B | d] = [B | d]_P·R proves [B | d] consistent, so a B of rank 1
        # costs only its pivot columns' image and their exact stopping sweep
        sweeps_by_field.clear()
        eye, low = LinearSystem(mat([[1, 0], [0, 1]]), vec([1, 1])), mat([[1, 1], [2, 2]])
        assert not solution_equivalent(eye, LinearSystem(low, vec([2, 4])))
        assert sweeps_by_field == {
            ("__init__", "Q"): 2,
            ("eliminate", "Q"): 3 + 2,
            ("__init__", IMAGE): 1,
            ("eliminate", IMAGE): 2,
        }

    def test_differing_q_pair_is_certified_on_the_image(self, sweeps_by_field):
        """[B | d] fails the inclusion; the GF(P) sweep of [B | d] offers
        x = e_1, and B x = d exactly, so [B | d] is never swept over Q.
        Over GF(p) [B | d] is swept, as before."""
        t = matrix_t()
        a, b = LinearSystem(t, t.column(5)), LinearSystem(t, t.column(1))
        assert not solution_equivalent(a, b)
        assert sweeps_by_field == {
            ("__init__", "Q"): 1,
            ("eliminate", "Q"): t.cols + 1,
            ("__init__", IMAGE): 1,
            ("eliminate", IMAGE): t.cols + 1,
        }
        sweeps_by_field.clear()
        t7 = matrix_t(GF(7))
        assert not solution_equivalent(
            LinearSystem(t7, t7.column(5)), LinearSystem(t7, t7.column(1))
        )
        assert sweeps_by_field == {
            ("__init__", "GF(7)"): 2,
            ("eliminate", "GF(7)"): 2 * (t.cols + 1),
        }

    def test_null_equal_sweeps_only_its_first_matrix(self, sweeps_by_field):
        t = matrix_t()
        doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
        assert null_equal(t, doubled)
        assert sweeps_by_field == {
            ("__init__", "Q"): 1,
            ("eliminate", "Q"): t.cols,
            ("__init__", IMAGE): 1,
            ("eliminate", IMAGE): 3,
        }

    def test_full_rank_q_pivots_make_no_exact_sweep(self, sweeps_by_field, tmp_path, capsys):
        """`pivots` and `basis` on a full-rank Q input read the image of
        its first min(rows, cols) columns; a rank-deficient one is swept,
        after an image that stops at its first dependent column."""
        path = tmp_path / "m.mat"
        for text, exact, image in (("2 1\n", 0, 1), ("1 2\n2 4\n", 1, 2)):
            path.write_text(text)
            for command in ("pivots", "basis"):
                sweeps_by_field.clear()
                assert main([command, str(path)]) == 0
                assert sweeps_by_field["__init__", "Q"] == exact
                assert sweeps_by_field["__init__", IMAGE] == 1
                assert sweeps_by_field["eliminate", IMAGE] == image

    def test_null_space_views_sweep_once(self, sweeps):
        null_basis(matrix_t())
        assert sweeps["__init__"] == 1
        sweeps.clear()
        graph_relations(matrix_t())
        assert sweeps["__init__"] == 1

    def test_llq_eliminates_through_the_raw_entry(self, sweeps):
        state = KeeperState(QQ, 3)
        for j in (1, 2, 3):
            state.llq(matrix_t().column(j))
        assert sweeps == {"__init__": 1, "llq": 3, "eliminate": 3}

    def test_independence_stops_at_the_first_dependent_column(self, sweeps):
        # column 3 = 3*column 1 + column 2, so columns 4 and 5 are never read
        assert not columns_independent(matrix_t(), (1, 2, 3, 4, 5))
        assert sweeps == {"__init__": 1, "eliminate": 3}


def _system_text(s: LinearSystem) -> str:
    rows = zip(s.coeff.raw_rows(), format_values(s.rhs.values))
    return "".join(" ".join(format_values(row)) + f" | {c}\n" for row, c in rows)


_EYE = LinearSystem(mat([[1, 0], [0, 1]]), vec([1, 1]))
# pairs whose [B | d] fails the inclusion, and where the GF(P) image cannot
# prove [B | d] consistent, with the CLI's exit code: d = (0, P) is 0 mod P,
# so the image offers x = 0, which B x = d refutes, and [B | d] is
# inconsistent; P divides the denominator of 1/P, so there is no image; and
# the solution (2**k / 3, 1) has no reconstruction mod P for k = 40, while
# for k = 43 it reconstructs as 1083/8192, which B x = d refutes
CRAFTED_FALLBACKS = [
    pytest.param(
        LinearSystem(mat([[1], [0]]), vec([1, 0])),
        LinearSystem(mat([[1], [0]]), vec([0, P])),
        2,
        id="zero-mod-P",
    ),
    pytest.param(_EYE, LinearSystem(mat([[1, 0], [0, 1]]), vec([1, Fraction(1, P)])), 1, id="1/P"),
    pytest.param(_EYE, LinearSystem(mat([[3, 0], [0, 1]]), vec([2**40, 1])), 1, id="2^40/3"),
    pytest.param(_EYE, LinearSystem(mat([[3, 0], [0, 1]]), vec([2**43, 1])), 1, id="2^43/3"),
]


@pytest.mark.parametrize(("a", "b", "code"), CRAFTED_FALLBACKS)
def test_unproven_second_system_takes_the_exact_sweep(
    a, b, code, sweeps_by_field, tmp_path, capsys
):
    """The image offers no solution that B x = d confirms, so [B | d] is
    swept exactly: the library call raises InconsistentSystemError for an
    inconsistent [B | d] and otherwise returns False, and `syseq` exits 2
    or 1 as it does."""
    assert not _image_solves(b.augmented())
    sweeps_by_field.clear()
    if code == 2:
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(a, b)
    else:
        assert solution_equivalent(a, b) is False
    assert sweeps_by_field["__init__", "Q"] == 2
    assert sweeps_by_field["__init__", IMAGE] == 1
    paths = [tmp_path / "a.sys", tmp_path / "b.sys"]
    for path, system in zip(paths, (a, b)):
        path.write_text(_system_text(system))
    capsys.readouterr()
    assert main(["syseq", *map(str, paths)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error: solution equivalence is only defined")
    else:
        assert (out, err) == ("NOT SOLUTION-EQUIVALENT\n", "")


def test_null_space_tests_build_no_basis(monkeypatch):
    """null_equal and solution_equivalent read the sweeps as M = M_P·R and
    never lay out a graph basis: reading GraphRelations.basis fails here."""

    def unread(self):
        raise AssertionError("GraphRelations.basis was read")

    monkeypatch.setattr(GraphRelations, "basis", property(unread))
    t = matrix_t()
    doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
    assert null_equal(t, doubled) and not null_equal(t, mat([[1, 0, 0, 0, 0]]))
    a = LinearSystem(t, t.column(5))
    assert solution_equivalent(a, LinearSystem(doubled, doubled.column(5)))
    assert not solution_equivalent(a, LinearSystem(t, t.column(1)))

@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_homogeneous_part_is_the_null_basis(field, bound):
    """One graph from either sweep: the homogeneous part of solve, swept
    with the right-hand side, equals graph_relations of the coefficient
    matrix alone, and the coefficient matrix kills its every basis vector;
    on random systems and on wide low-rank ones, where most columns are
    free."""
    rng = random.Random(64)
    shapes = [(*random_shape(rng, 6, 8), None) for _ in range(60)]
    for _ in range(30):
        rows = rng.randint(1, 4)
        shapes.append((rows, rng.randint(12, 30), rng.randint(0, rows)))
    for p, q, rank in shapes:
        if rank is None:
            m = random_matrix(rng, p, q, field, bound)
        else:
            m = random_low_rank_matrix(rng, p, q, rank, field, bound)
        system = LinearSystem(m, m @ random_matrix(rng, q, 1, field, bound).column(1))
        sol = solve(system)
        assert isinstance(sol, Affine)
        assert sol.homogeneous == graph_relations(m) == null_basis(m)
        assert len(sol.homogeneous.basis) == len(sol.homogeneous.free_indices)
        assert all((m @ v).is_zero() for v in sol.homogeneous.basis)
