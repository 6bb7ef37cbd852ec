"""Null-space views: the graph-normalized basis, pivot-variable relations,
membership and equality, and the column/null-space dictionary."""
import collections
import itertools
import random

import pytest

from echelon import (
    GF,
    QQ,
    LinearSystem,
    Matrix,
    Vector,
    apply_ops,
    column_in_span,
    columns_independent,
    gauche_rref,
    gauss_jordan,
    graph_relations,
    null_basis,
    null_contains,
    null_equal,
    std_basis,
)

from helpers import (
    FIELD_CASES,
    FIELDS,
    GF7,
    exhaustive_solutions,
    mat,
    matrix_t,
    random_low_rank_matrix,
    random_low_rank_shape,
    random_matrix,
    random_ops,
    random_shape,
    reference_combination,
    sc,
    scalar_rows,
    vec,
    with_free_entry_moved,
)


def oracle_keepers(m, js):
    """The selected columns that the classical elimination route pivots on,
    the keepers of the exact sweep of the selection."""
    if not js:
        return ()
    return tuple(js[s - 1] for s in gauss_jordan(m.take_columns(js)).pivot_set)


def oracle_rank(m, js):
    """Rank of a column selection by the classical elimination route."""
    return len(oracle_keepers(m, js))


class TestNullBasis:
    def test_worked_example(self):
        nb = null_basis(matrix_t())
        assert nb.free_indices == (3, 4)
        assert nb.basis == (vec([-3, -1, 1, 0, 0]), vec([2, 3, 0, 1, 0]))
        for v in nb.basis:
            assert (matrix_t() @ v).is_zero()

    def test_trivial_null_space(self):
        nb = null_basis(Matrix.identity(3, QQ))
        assert nb.free_indices == ()
        assert nb.basis == ()

    def test_zero_matrix_everything_is_free(self):
        nb = null_basis(Matrix.zero(2, 3, QQ))
        assert nb.free_indices == (1, 2, 3)
        assert nb.basis == tuple(std_basis(3, i, QQ) for i in (1, 2, 3))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_graph_normalization_and_rank_nullity(self, field):
        rng = random.Random(515)
        for _ in range(60):
            p, q = random_shape(rng, 6, 8)
            m = random_matrix(rng, p, q, field)
            res = gauche_rref(m)
            nb = null_basis(m)
            assert len(res.pivot_set) + len(nb.free_indices) == q
            for n, v in zip(nb.free_indices, nb.basis):
                assert (m @ v).is_zero()
                assert v.entries[n - 1].is_one()
                for other in nb.free_indices:
                    if other != n:
                        assert v.entries[other - 1].is_zero()


class TestGraphRelations:
    def test_worked_example_lines(self):
        rel = graph_relations(matrix_t())
        assert rel.lines() == [
            "x1 = -3*x3 + 2*x4",
            "x2 = -1*x3 + 3*x4",
            "x5 = 0*x3 + 0*x4",
        ]

    def test_no_free_variables(self):
        rel = graph_relations(Matrix.identity(2, QQ))
        assert rel.lines() == ["x1 = 0", "x2 = 0"]

    def test_zero_matrix_has_no_pivot_expressions(self):
        rel = graph_relations(Matrix.zero(2, 3, QQ))
        assert rel.pivot_exprs == ()
        assert rel.lines() == []

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_substituted_assignments_land_in_the_null_space(self, field):
        rng = random.Random(9011)
        for _ in range(50):
            p, q = random_shape(rng, 6, 8)
            m = random_matrix(rng, p, q, field)
            rel = graph_relations(m)
            values = [sc(rng.randint(-5, 5), field) for _ in rel.free_indices]
            v = reference_combination(zip(values, rel.basis), q, field)
            assert null_contains(m, v)
            assert [v.entries[n - 1] for n in rel.free_indices] == values


class TestNullContains:
    def test_dictionary_witness_for_the_third_column(self):
        # column 3 = 3*column 1 + 1*column 2, so 3 f1 + f2 - f3 is in the null space
        w = vec([3, 1, -1, 0, 0])
        assert null_contains(matrix_t(), w)

    def test_first_basis_vector_is_not_inside(self):
        assert not null_contains(matrix_t(), std_basis(5, 1, QQ))

    def test_zero_vector_always_inside(self):
        assert null_contains(matrix_t(), Vector.zero(5, QQ))


class TestNullEqual:
    def test_matrix_and_its_reduced_form(self):
        t = matrix_t()
        assert null_equal(t, gauche_rref(t).rref)

    def test_different_ranks(self):
        assert not null_equal(Matrix.identity(2, QQ), mat([[1, 1], [0, 0]]))

    def test_shape_mismatch_is_false(self):
        assert not null_equal(Matrix.identity(2, QQ), Matrix.zero(2, 3, QQ))

    def test_field_mismatch_is_false(self):
        assert not null_equal(mat([[1, 0]]), mat([[1, 0]], GF7))

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_zero_and_repeated_rows_keep_the_null_space(self, field, bound):
        """The null space lies in F^q whatever the row count: appending a
        zero row, or a copy of a row, changes the shape but not the null
        space."""
        rng = random.Random(1618)
        for k in range(30):
            p, q = random_shape(rng, 5, 6)
            a = random_matrix(rng, p, q, field, bound, "a/b" if k % 2 else "small")
            rows = scalar_rows(a)
            assert null_equal(a, mat(rows + [[0] * q], field))
            assert null_equal(mat(rows + [rng.choice(rows)], field), a)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_row_operations_preserve_the_null_space(self, field):
        rng = random.Random(2718)
        for _ in range(40):
            p, q = random_shape(rng, 6, 8)
            m = random_matrix(rng, p, q, field)
            assert null_equal(m, apply_ops(m, random_ops(rng, p, field)))

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_agrees_with_reduced_form_equality(self, field, bound):
        """On integer and a/b inputs; b is a row-operation image of a, an
        unrelated matrix, or a's reduced form with one free entry moved,
        which never has a's null space."""
        rng = random.Random(331)
        moved_pairs = 0
        for k in range(60):
            p, q = random_shape(rng, 5, 6)
            a = random_matrix(rng, p, q, field, bound, "a/b" if k % 2 else "small")
            pick = rng.random()
            moved = with_free_entry_moved(rng, a) if pick < 0.4 else None
            if moved is not None:
                b = apply_ops(moved, random_ops(rng, p, field))
                assert not null_equal(a, b)
                moved_pairs += 1
            elif pick < 0.7:
                b = apply_ops(a, random_ops(rng, p, field))
            else:
                b = random_matrix(rng, p, q, field, bound, kind="a/b")
            same_null = null_equal(a, b)
            same_rref = gauche_rref(a).rref == gauche_rref(b).rref
            assert same_null == same_rref
        assert moved_pairs >= 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_null_equal_against_exhaustive_null_spaces(p):
    """Over small prime fields the null spaces themselves are the oracle.
    Each side draws 1-3 rows, independently, over 1-4 columns. The pairs are
    all-zero matrices (rank 0 on both sides), unrelated matrices, and a
    matrix against combinations of its rows, in both orders: those null
    spaces are nested, and equal exactly when the ranks are. With the
    smaller null space first, its whole graph basis is killed by the other
    matrix, so only the rank count can reject the pair."""
    field, rng = GF(p), random.Random(77 + p)
    seen = collections.Counter()
    for k in range(80):
        rows_a, rows_b, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        kind = k % 4
        if kind == 0:
            a, b = Matrix.zero(rows_a, q, field), Matrix.zero(rows_b, q, field)
        elif kind == 1:
            a, b = random_matrix(rng, rows_a, q, field), random_matrix(rng, rows_b, q, field)
        else:
            a = random_matrix(rng, rows_a, q, field)
            picks = [[rng.randrange(p) for _ in range(rows_a)] for _ in range(rows_b)]
            columns = list(zip(*a.raw_rows()))
            combined = [[sum(c * x for c, x in zip(cs, col)) for col in columns] for cs in picks]
            b = mat(combined, field)
            if kind == 3:
                a, b = b, a
        null_a, null_b = (
            exhaustive_solutions(LinearSystem(m, Vector.zero(m.rows, field)), p) for m in (a, b)
        )
        verdict = null_equal(a, b)
        assert verdict == (null_a == null_b)
        if kind == 0:
            seen["zero"] += 1
        elif null_a < null_b:
            seen["inside, only the rank rejects"] += 1
        elif null_b < null_a:
            seen["contains"] += 1
        else:
            seen[verdict] += 1
    assert len(seen) == 5 and min(seen.values()) >= 5, seen


class TestColumnInSpan:
    def test_worked_example_coefficients(self):
        assert column_in_span(matrix_t(), 3, (1, 2)) == (sc(3), sc(1))

    def test_fifth_column_is_not_presentable(self):
        assert column_in_span(matrix_t(), 5, (1, 2)) is None

    def test_selection_order_carries_through(self):
        assert column_in_span(matrix_t(), 3, (2, 1)) == (sc(1), sc(3))

    def test_empty_selection_spans_only_zero(self):
        m = mat([[1, 0], [0, 0]])
        assert column_in_span(m, 2, ()) == ()
        assert column_in_span(m, 1, ()) is None

    def test_dependent_selection_gets_zero_coefficients(self):
        # columns 1 and 2 are equal; column 3 is their double
        m = mat([[1, 1, 2], [1, 1, 2]])
        assert column_in_span(m, 3, (1, 2)) == (sc(2), sc(0))
        # a dependent column before a keeper: column 4 is column 1 plus column 3
        m = mat([[1, 1, 0, 1], [1, 1, 1, 2]])
        assert column_in_span(m, 4, (1, 2, 3)) == (sc(1), sc(0), sc(1))

    def test_index_validation(self):
        t = matrix_t()
        with pytest.raises(IndexError):
            column_in_span(t, 6, (1, 2))
        with pytest.raises(IndexError):
            column_in_span(t, 3, (0,))
        with pytest.raises(ValueError):
            column_in_span(t, 3, (1, 1))
        with pytest.raises(ValueError):
            column_in_span(t, 3, (1, 3))


class TestColumnsIndependent:
    def test_pivot_columns_are_independent(self):
        assert columns_independent(matrix_t(), (1, 2, 5))

    def test_dependent_triple(self):
        assert not columns_independent(matrix_t(), (1, 2, 3))

    def test_empty_selection(self):
        assert columns_independent(matrix_t(), ())

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            columns_independent(matrix_t(), (1, 1))


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_dictionary_roundtrip_against_rank_oracle(field, bound):
    """On dense and low-rank draws: column_in_span finds coefficients
    exactly when the rank oracle says column k adds nothing, they form a
    null-space witness, and every selected column that elimination of the
    selection does not pivot on gets coefficient zero."""
    rng = random.Random(14142)
    dense = (random_matrix(rng, *random_shape(rng, 5, 6), field, bound) for _ in range(120))
    low = (
        random_low_rank_matrix(rng, *random_low_rank_shape(rng, 5, 6), field, bound)
        for _ in range(60)
    )
    dependent = 0
    for m in itertools.chain(dense, low):
        q = m.cols
        size = rng.randint(0, min(q - 1, 4))
        js = tuple(rng.sample(range(1, q + 1), size))
        k = rng.choice([j for j in range(1, q + 1) if j not in js])

        coeffs = column_in_span(m, k, js)
        presentable = oracle_rank(m, js + (k,)) == oracle_rank(m, js)
        assert (coeffs is not None) == presentable
        if coeffs is not None:
            keepers = oracle_keepers(m, js)
            # the returned combination is a null-space witness
            witness = [field.zero()] * q
            witness[k - 1] = -field.one()
            for c, j in zip(coeffs, js):
                witness[j - 1] = witness[j - 1] + c
                if j not in keepers:
                    dependent += 1
                    assert c == field.zero(), (m, k, js, coeffs)
            assert null_contains(m, Vector(tuple(witness), field))

        assert columns_independent(m, js) == (oracle_rank(m, js) == size)
    assert dependent


def test_independence_matches_exhaustive_search_over_gf7():
    rng = random.Random(777)
    for _ in range(25):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        m = random_matrix(rng, p, q, GF7)
        size = rng.randint(1, q)
        js = tuple(rng.sample(range(1, q + 1), size))
        cols = [m.column(j) for j in js]
        dependent = False
        for combo in itertools.product(range(7), repeat=size):
            if not any(combo):
                continue
            acc = reference_combination([(sc(c, GF7), col) for c, col in zip(combo, cols)], p, GF7)
            if acc.is_zero():
                dependent = True
                break
        assert columns_independent(m, js) == (not dependent)
