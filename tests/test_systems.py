"""Linear systems: exact solving, solution-set comparison, row equivalence.

Besides the answers, it reads the sweeps each question makes from the
`routes` log, checks the lockstep row equivalence against comparing RREFs,
and drives second systems that the GF(P) image cannot prove consistent to
the exact sweep."""
import collections
import random

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

from echelon import gauche
from echelon.gauche import _CHECK

from helpers import (
    CRAFTED_FALLBACKS,
    EYE,
    FIELD_CASES,
    FIELDS,
    GF7,
    IMAGE,
    INCONSISTENT,
    Sweep,
    exhaustive_solutions,
    mat,
    matrix_j,
    matrix_t,
    matrix_text,
    padded,
    random_consistent_system,
    random_fraction_system,
    random_low_rank_matrix,
    random_low_rank_shape,
    random_matrix,
    random_ops,
    random_shape,
    random_vector,
    run_cli,
    sc,
    system_from_augmented,
    system_text,
    vec,
    with_free_entry_moved,
)


class TestLinearSystem:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LinearSystem(matrix_t(), vec([1, 2]))

    def test_field_mismatch_rejected(self):
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
        sol = solve(INCONSISTENT)
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
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(EYE, INCONSISTENT)
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(INCONSISTENT, EYE)

    def test_shape_mismatch_rejected(self):
        a = LinearSystem(Matrix.identity(2, QQ), vec([1, 1]))
        b = LinearSystem(mat([[1, 0, 0], [0, 1, 0]]), vec([1, 1]))
        with pytest.raises(ShapeError):
            solution_equivalent(a, b)

    def test_field_mismatch_rejected(self):
        a = LinearSystem(Matrix.identity(2, QQ), vec([1, 1]))
        b = LinearSystem(Matrix.identity(2, GF7), vec([1, 1], GF7))
        with pytest.raises(FieldMismatchError, match="^solution equivalence needs a common field$"):
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

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError, match="^row equivalence needs a common field$"):
            row_equivalent(matrix_t(), matrix_t(GF7))

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
    def test_lockstep_stops_at_the_first_differing_column(self, field, bound, routes):
        """Column 1 is zero in one matrix and a keeper in the other: each
        side eliminates that one column. An equivalent pair eliminates
        every column on both sides."""
        a, b = mat([[0, 1, 1], [0, 1, 0]], field), mat([[1, 1, 1], [0, 1, 0]], field)
        assert not row_equivalent(a, b)
        assert routes == [Sweep(a, str(field), 1), Sweep(b, str(field), 1)]
        routes.clear()
        scaled = apply_ops(b, [Scale(1, sc(-1, field))])
        assert row_equivalent(b, scaled)
        assert routes == [Sweep(b, str(field), b.cols), Sweep(scaled, str(field), b.cols)]

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


class TestOneSweepPerQuestion:
    def test_rref_eliminates_each_column_once(self, routes):
        for m in (matrix_t(), mat([[1, 2, 3, 4], [2, 4, 6, 9]]), Matrix.zero(2, 3, QQ)):
            routes.clear()
            gauche_rref(m)
            assert routes == [Sweep(m, "Q", m.cols)]

    def test_solve_sweeps_the_augmented_matrix_once(self, routes):
        t = matrix_t()
        system = LinearSystem(t, t.column(3))
        assert isinstance(solve(system), Affine)
        assert routes == [Sweep(system.augmented(), "Q", t.cols + 1)]
        routes.clear()
        assert isinstance(solve(INCONSISTENT), Inconsistent)
        assert routes == [Sweep(INCONSISTENT.augmented(), "Q", 3)]

    def test_solution_equivalent_sweeps_each_system_once(self, routes):
        """[A | c] takes an exact sweep over Q; [B | d], which passes the
        inclusion, takes none: the rank loop proves its rank(A) = 3 pivot
        columns independent mod q, and no GF(P) image is taken."""
        t = matrix_t()
        doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
        a = LinearSystem(t, t.column(5))
        b = LinearSystem(doubled, doubled.column(5))
        assert solution_equivalent(a, b)
        assert routes == [Sweep(a.augmented(), "Q", t.cols + 1), True]
        # [B | d] = [B | d]_K·R proves [B | d] consistent, so a B of rank 1
        # costs only the rank loop on its pivot columns and their exact sweep
        routes.clear()
        low = LinearSystem(mat([[1, 1], [2, 2]]), vec([2, 4]))
        assert not solution_equivalent(EYE, low)
        assert routes == [Sweep(EYE.augmented(), "Q", 3), False, Sweep(low.augmented(), "Q", 2)]

    def test_differing_q_pair_is_certified_on_the_image(self, routes):
        """From 16 rows [B | d] fails the inclusion, and the GF(P) sweep of
        [B | d] offers x = e_1, which B x = d confirms exactly, so [B | d]
        takes no sweep over Q; [A | c] takes the readers' certified image
        RREF, whose rank loop answers True. matrix_t's own 3-row pair,
        below the image's gate, and the pair over GF(7) sweep each system
        exactly once."""
        tall = padded(matrix_t(), 16)
        for t, route in ((tall, IMAGE), (matrix_t(), "Q"), (matrix_t(GF(7)), "GF(7)")):
            routes.clear()
            a, b = LinearSystem(t, t.column(5)), LinearSystem(t, t.column(1))
            assert not solution_equivalent(a, b)
            certified = [True] if route == IMAGE else []
            assert routes == [
                Sweep(a.augmented(), route, t.cols + 1),
                *certified,
                Sweep(b.augmented(), route, t.cols + 1),
            ]

    def test_null_equal_sweeps_only_its_first_matrix(self, routes):
        """The second matrix's pivot columns go only to the rank loop."""
        t = matrix_t()
        doubled = apply_ops(t, [Scale(i, sc(2)) for i in range(1, 4)])
        assert null_equal(t, doubled)
        assert routes == [Sweep(t, "Q", t.cols), True]

    def test_full_rank_q_pivots_make_no_exact_sweep(self, routes, monkeypatch):
        """`pivots` and `basis` on a full-rank Q input read only the rank
        loop on its first min(rows, cols) columns, mod q; a rank-deficient
        one takes one exact sweep, after a loop that stops at its first
        dependent column. No GF(P) image is taken."""
        read = []
        residues = gauche._residues
        monkeypatch.setattr(
            gauche, "_residues", lambda values, field: read.append(field) or residues(values, field)
        )
        cases = (
            ([[2, 1]], False, 1),
            ([[1, 2], [2, 4]], True, 2),
            ([[1, 2, 0], [2, 4, 0], [0, 0, 1]], True, 2),
        )
        for rows, exact, columns in cases:
            m = mat(rows)
            for command in ("pivots", "basis"):
                routes.clear()
                read.clear()
                assert run_cli([command], matrix_text(rows))[0] == 0
                assert routes == ([False, Sweep(m, "Q", m.cols)] if exact else [True])
                assert read == [_CHECK] * columns

    def test_null_space_views_sweep_once(self, routes):
        null_basis(matrix_t())
        assert routes == [Sweep(matrix_t(), "Q", 5)]
        routes.clear()
        graph_relations(matrix_t())
        assert routes == [Sweep(matrix_t(), "Q", 5)]

    def test_llq_eliminates_through_the_raw_entry(self, monkeypatch):
        eliminated = []
        eliminate = KeeperState.eliminate
        monkeypatch.setattr(
            KeeperState,
            "eliminate",
            lambda state, values: eliminated.append(values) or eliminate(state, values),
        )
        state = KeeperState(QQ, 3)
        for j in (1, 2, 3):
            state.llq(matrix_t().column(j))
        assert eliminated == [matrix_t().column(j).values for j in (1, 2, 3)]

    def test_independence_stops_at_the_first_dependent_column(self, routes):
        # column 3 = 3*column 1 + column 2, so columns 4 and 5 are never read
        assert not columns_independent(matrix_t(), (1, 2, 3, 4, 5))
        assert routes == [Sweep(matrix_t(), "Q", 3)]


@pytest.mark.parametrize(("rows", "route"), [(15, "Q"), (16, IMAGE)])
def test_the_image_is_tried_from_16_rows(rows, route, routes):
    """One gate for both readers of the GF(P) image: below 16 rows neither
    system of a differing pair is imaged, and from 16 rows each is imaged
    once, [A | c] for the readers' RREF, which the rank loop certifies, and
    [B | d] for its consistency."""
    t = padded(matrix_t(), rows)
    a, b = LinearSystem(t, t.column(5)), LinearSystem(t, t.column(1))
    assert not solution_equivalent(a, b)
    certified = [True] if route == IMAGE else []
    assert routes == [Sweep(a.augmented(), route, 6), *certified, Sweep(b.augmented(), route, 6)]


@pytest.mark.parametrize(("a", "b", "code"), CRAFTED_FALLBACKS)
def test_unproven_second_system_takes_the_exact_sweep(a, b, code, routes):
    """The image offers no solution that B x = d confirms, so [B | d]
    takes the exact sweep, through every column: the library call raises
    InconsistentSystemError for an inconsistent [B | d] and otherwise
    returns False, and `syseq` exits 2 or 1 as it does. A 16-row [B | d]
    is imaged first, and the 16-row identity system takes the readers'
    certified image RREF; no system of a 2-row pair is imaged."""
    if code == 2:
        with pytest.raises(InconsistentSystemError):
            solution_equivalent(a, b)
    else:
        assert solution_equivalent(a, b) is False
    aug_a, aug_b = a.augmented(), b.augmented()
    imaged = [aug_a, aug_b] if a.coeff.rows >= 16 else []
    exact = [aug_b] if imaged else [aug_a, aug_b]
    sweeps = [entry for entry in routes if isinstance(entry, Sweep)]
    assert [(s.matrix, s.field) for s in sweeps] == [
        *((m, IMAGE) for m in imaged),
        *((m, "Q") for m in exact),
    ]
    assert [s.answered for s in sweeps if s.field == "Q"] == [m.cols for m in exact]
    got, out, err = run_cli(["syseq"], system_text(a), system_text(b))
    assert got == code
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
    """One graph from either sweep: the homogeneous part of solve, taken
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
