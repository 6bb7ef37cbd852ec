"""The column sweep: keeper/subordinate classification, journals, and the
assembled reduced form, checked against the worked example and against the
classical elimination oracle on random matrices."""
import random
from fractions import Fraction

import pytest

from echelon import (
    GF,
    QQ,
    FieldMismatchError,
    Keeper,
    KeeperState,
    Matrix,
    Scalar,
    ShapeError,
    Subordinate,
    Vector,
    apply_ops,
    gauche_rref,
    gauss_jordan,
    is_rref,
    null_contains,
    std_basis,
)

from helpers import (
    FIELD_CASES,
    FIELDS,
    GF7,
    mat,
    matrix_j,
    matrix_t,
    random_low_rank_matrix,
    random_matrices,
    random_matrix,
    random_ops,
    random_shape,
    reference_gauss_jordan,
    reference_sweep,
    sc,
    scalar_rows,
    spy,
    vec,
)


def state_with_keepers(m, indices):
    state = KeeperState(m.field, m.rows)
    for j in indices:
        assert state.llq(m.column(j)) == Keeper()
    return state


class TestLLQ:
    def test_third_column_is_subordinate(self):
        state = state_with_keepers(matrix_t(), (1, 2))
        answer = state.llq(matrix_t().column(3))
        assert answer == Subordinate((3, 1), QQ)
        assert answer.coefficients == (sc(3), sc(1))

    def test_fourth_column_is_subordinate(self):
        state = state_with_keepers(matrix_t(), (1, 2))
        answer = state.llq(matrix_t().column(4))
        assert answer == Subordinate((-2, -3), QQ)
        assert answer.coefficients == (sc(-2), sc(-3))

    def test_fifth_column_is_keeper(self):
        state = state_with_keepers(matrix_t(), (1, 2))
        assert state.llq(matrix_t().column(5)) == Keeper()

    def test_zero_column_with_no_keepers(self):
        state = KeeperState(QQ, 3)
        assert state.llq(vec([0, 0, 0])) == Subordinate((), QQ)

    def test_nonzero_column_with_no_keepers(self):
        state = KeeperState(QQ, 3)
        assert state.llq(vec([0, 2, 0])) == Keeper()

    def test_dimension_mismatch(self):
        state = KeeperState(QQ, 3)
        with pytest.raises(ShapeError):
            state.llq(vec([1, 2]))

    def test_field_mismatch(self):
        state = KeeperState(QQ, 3)
        with pytest.raises(FieldMismatchError):
            state.llq(vec([1, 2, 3], GF7))

    def test_subordinate_coefficients_reconstruct_column(self):
        rng = random.Random(4021)
        for field in FIELDS:
            for _ in range(40):
                p, q = random_shape(rng, 6, 8)
                m = random_matrix(rng, p, q, field)
                state = KeeperState(field, p)
                keepers = []
                for j in range(1, q + 1):
                    col = m.column(j)
                    answer = state.llq(col)
                    if isinstance(answer, Subordinate):
                        acc = [field.zero()] * p
                        for c, kept in zip(answer.coefficients, keepers):
                            kcol = m.column(kept)
                            acc = [a + c * e for a, e in zip(acc, kcol.entries)]
                        assert tuple(acc) == col.entries
                    else:
                        keepers.append(j)


def combination(coefficients, columns) -> list[Fraction]:
    """sum_k coefficients[k] * columns[k], entry by entry."""
    return [sum(c * x for c, x in zip(coefficients, row)) for row in zip(*columns)]


def from_columns(columns) -> Matrix:
    return mat(list(zip(*columns)))


def llq_answers(m: Matrix) -> tuple[int, ...]:
    """Sweep m's columns through llq, checking each answer against the
    reference sweep: a keeper where it keeps one, else its journal, whose
    coefficients applied to the keeper columns before it give the column
    back. Returns the pivots."""
    journals, pivots = reference_sweep(m)
    state, keepers = KeeperState(m.field, m.rows), []
    for n in range(1, m.cols + 1):
        answer = state.llq(m.column(n))
        if n in pivots:
            assert answer == Keeper()
            keepers.append(n)
            continue
        assert answer == Subordinate(journals[n - 1].values[: len(keepers)], m.field)
        if keepers:
            assert m.take_columns(keepers) @ Vector(answer.values, m.field) == m.column(n)
        else:
            assert m.column(n).is_zero()
    assert tuple(keepers) == pivots
    return pivots


class TestBackSubstitution:
    """Over Q a subordinate's coefficients come from a back-substitution
    over the factors its sweep recorded against each keeper."""

    def test_subordinate_on_every_keeper(self):
        # keeper columns over denominators 3, 5, 7 and 2, whose cleared
        # integer columns give Bareiss pivots other than 1
        f = Fraction
        keepers = [
            [f(2, 3), f(1, 3), 1, f(-1, 3)],
            [f(1, 5), f(3, 5), f(-2, 5), 4],
            [f(3, 7), -1, f(2, 7), f(5, 7)],
            [f(1, 2), f(5, 2), f(-3, 2), 1],
        ]
        coefficients = [f(1, 2), -3, f(5, 4), 7]
        target = combination(coefficients, keepers)
        m = from_columns([*keepers, target])
        assert llq_answers(m) == (1, 2, 3, 4)
        assert gauche_rref(m).journals[4].values == tuple(coefficients)

    def test_subordinates_after_each_keeper_count(self):
        # a zero first column, then after each of keepers k1, k2 and k3 a
        # subordinate on all the keepers so far, and e_1 after the last
        k1, k2, k3 = [2, 1, 3], [1, 4, -2], [5, 1, 1]
        f = Fraction
        columns = [
            [0, 0, 0],
            k1,
            combination([f(3, 2)], [k1]),
            k2,
            combination([1, f(-2, 3)], [k1, k2]),
            k3,
            combination([f(1, 2), 1, -3], [k1, k2, k3]),
            [1, 0, 0],
        ]
        assert llq_answers(from_columns(columns)) == (2, 4, 6)

    def test_wide_rank_two_fractions(self):
        rng = random.Random(6607)
        left = scalar_rows(random_matrix(rng, 4, 2, QQ, bound=9, kind="a/b"))
        right = scalar_rows(random_matrix(rng, 2, 40, QQ, bound=9, kind="a/b"))
        m = mat([[a * x + b * y for x, y in zip(*right)] for a, b in left])
        assert len(llq_answers(m)) == 2


class TestJournalVector:
    """The per-column record that gauche_rref assembles from the answers."""

    def test_subordinate_padding(self):
        # column 3 = 3*column 1 + 1*column 2, padded with zeros to 3 rows
        assert gauche_rref(matrix_t()).journals[2] == vec([3, 1, 0])

    def test_keeper_is_next_basis_vector(self):
        # column 5 is the third keeper
        assert gauche_rref(matrix_t()).journals[4] == std_basis(3, 3, QQ)

    def test_zero_column_journals_as_zero(self):
        assert gauche_rref(mat([[0], [0], [0], [0]])).journals == (vec([0, 0, 0, 0]),)


class TestGaucheRref:
    def test_worked_example(self):
        res = gauche_rref(matrix_t())
        assert res.rref == matrix_j()
        assert res.pivot_set == (1, 2, 5)
        assert res.journals[2] == vec([3, 1, 0])
        assert res.journals[3] == vec([-2, -3, 0])
        assert res.journals[4] == std_basis(3, 3, QQ)

    def test_rref_columns_are_the_journals(self):
        res = gauche_rref(matrix_t())
        for n in range(1, 6):
            assert res.rref.column(n) == res.journals[n - 1]

    def test_zero_matrix(self):
        z = Matrix.zero(3, 4, QQ)
        res = gauche_rref(z)
        assert res.rref == z
        assert res.pivot_set == ()

    def test_identity(self):
        eye = Matrix.identity(4, QQ)
        res = gauche_rref(eye)
        assert res.rref == eye
        assert res.pivot_set == (1, 2, 3, 4)

    def test_reduced_form_is_fixed_point(self):
        # cross-checked with the classical oracle on the same input
        j = matrix_j()
        assert gauche_rref(j).rref == j
        assert gauche_rref(j).pivot_set == (1, 2, 5)
        oracle = gauss_jordan(j)
        assert oracle.rref == j
        assert oracle.ops == ()

    def test_pivot_set_indexes_a_column_basis(self):
        # every input column is the pivot columns combined by its journal
        t = matrix_t()
        res = gauche_rref(t)
        keepers = t.take_columns(res.pivot_set)
        for n, journal in enumerate(res.journals, start=1):
            coeffs = Vector(journal.entries[: len(res.pivot_set)], QQ)
            assert keepers @ coeffs == t.column(n)


class TestGaucheBasis:
    """The pivot set, read as the indices of a basis for the column space."""

    def test_worked_example(self):
        assert gauche_rref(matrix_t()).pivot_set == (1, 2, 5)

    def test_zero_matrix(self):
        assert gauche_rref(Matrix.zero(2, 3, QQ)).pivot_set == ()

    def test_repeated_column(self):
        assert gauche_rref(mat([[2, 2], [1, 1]])).pivot_set == (1,)


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_sweep_invariants_on_random_matrices(field, bound):
    rng = random.Random(92101)
    for m in random_matrices(rng, field, bound, 120):
        p, q = m.rows, m.cols
        res = gauche_rref(m)

        # the reduced form passes the validator and matches the oracle
        assert is_rref(res.rref)
        oracle = gauss_jordan(m)
        assert res.rref == oracle.rref
        assert res.pivot_set == oracle.pivot_set

        # pivot indices strictly increase and never outnumber the rows
        assert list(res.pivot_set) == sorted(set(res.pivot_set))
        assert len(res.pivot_set) <= p

        # reducing again changes nothing
        assert gauche_rref(res.rref).rref == res.rref

        # every journal is the matching column of the reduced form
        for n in range(1, q + 1):
            assert res.rref.column(n) == res.journals[n - 1]

        # nonpivot journals encode null-space witnesses of the original
        for n in range(1, q + 1):
            if n in res.pivot_set:
                continue
            journal = res.journals[n - 1]
            witness = [field.zero()] * q
            witness[n - 1] = -field.one()
            for i, s in enumerate(res.pivot_set):
                witness[s - 1] = journal.entries[i]
            assert null_contains(m, Vector(tuple(witness), field))

        # keeper columns form an independent set: full rank as a submatrix
        if res.pivot_set:
            sub = m.take_columns(res.pivot_set)
            assert len(gauss_jordan(sub).pivot_set) == len(res.pivot_set)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_row_operations_do_not_change_the_reduced_form(field):
    rng = random.Random(5512)
    for _ in range(60):
        p, q = random_shape(rng, 6, 8)
        m = random_matrix(rng, p, q, field)
        perturbed = apply_ops(m, random_ops(rng, p, field))
        assert gauche_rref(perturbed).rref == gauche_rref(m).rref


def test_kernels_do_no_scalar_arithmetic(monkeypatch):
    """The sweep, the oracle, the validator and the matrix-vector product
    run on raw values: no Scalar +, - or * on a 20x21 GF(32003) input."""
    field = GF(32003)
    rng = random.Random(2021)
    m = random_matrix(rng, 20, 21, field, bound=16001)
    v = Vector(tuple(rng.randint(0, 32002) for _ in range(21)), field)
    calls = []
    for name in ("__add__", "__sub__", "__mul__"):
        spy(monkeypatch, name, Scalar, log=calls)
    res = gauche_rref(m)
    assert gauss_jordan(m).rref == res.rref
    assert is_rref(res.rref)
    assert not (m @ v).is_zero()
    assert calls == []
    # the counters do count
    assert field.one() * field.one() + field.one() == sc(2, field)
    assert [name for name, *_ in calls] == ["__mul__", "__add__"]


def test_kernels_do_no_fraction_arithmetic(monkeypatch):
    """Over Q the sweep and the oracle eliminate on integers: no Fraction
    +, -, * or / on a 20x21 input mixing 64-bit and a/b entries, nor on a
    12x40 a/b input of rank 5, whose 35 subordinates each take a
    back-substitution."""
    rng = random.Random(2022)
    big = scalar_rows(random_matrix(rng, 20, 21, QQ, bound=2**63))
    small = scalar_rows(random_matrix(rng, 20, 21, QQ, bound=9, kind="a/b"))
    m = Matrix.from_rows(
        [[rng.choice(pair) for pair in zip(*rows)] for rows in zip(big, small)], QQ
    )
    # a rank-5 integer product, each row and column scaled by its own a/b
    rows = scalar_rows(random_low_rank_matrix(rng, 12, 40, 5, QQ))
    row_scales = random_matrix(rng, 12, 1, QQ, bound=9, kind="a/b").column(1).entries
    col_scales = random_matrix(rng, 1, 40, QQ, bound=9, kind="a/b").row(1).entries
    low = Matrix.from_rows(
        [[r * c * x for c, x in zip(col_scales, row)] for r, row in zip(row_scales, rows)], QQ
    )
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        spy(monkeypatch, name, Fraction, log=calls)
    res = gauche_rref(m)
    oracle = gauss_jordan(m)
    low_res = gauche_rref(low)
    low_oracle = gauss_jordan(low)
    assert calls == []
    assert oracle.rref == res.rref
    assert len(res.pivot_set) == 20
    assert low_oracle.rref == low_res.rref
    assert len(low_res.pivot_set) == 5
    # the counters do count
    half = Fraction(1, 2)
    assert (half + half) * half - half / half == Fraction(-1, 2)
    assert [name for name, *_ in calls] == ["__add__", "__mul__", "__truediv__", "__sub__"]


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_kernels_match_the_references(field, bound):
    """The fraction-free sweep and oracle give exactly what the classical
    loops give: the same journals and pivots, the same op log (so the same
    `script` text) and reduced form, and the log replays to the sweep's
    reduced form."""
    rng = random.Random(30517)
    matrices = [
        *random_matrices(rng, field, bound, 40),
        *random_matrices(rng, field, bound, 40, kind="a/b"),
    ]
    for m in matrices:
        res = gauche_rref(m)
        assert (res.journals, res.pivot_set) == reference_sweep(m)
        oracle = gauss_jordan(m)
        assert (oracle.ops, oracle.rref, oracle.pivot_set) == reference_gauss_jordan(m)
        assert apply_ops(m, oracle.ops) == res.rref
