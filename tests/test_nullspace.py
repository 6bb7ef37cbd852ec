"""Null-space views: the graph-normalized basis, pivot-variable relations,
membership and equality, and the column/null-space dictionary."""
import itertools
import random

import pytest

from echelon import (
    QQ,
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
    mat,
    matrix_t,
    random_fraction_matrix,
    random_matrix,
    random_ops,
    random_shape,
    reference_combination,
    sc,
    vec,
    with_free_entry_moved,
)


def oracle_rank(m, js):
    """Rank of a column selection by the classical elimination route."""
    if not js:
        return 0
    return len(gauss_jordan(m.take_columns(js)).pivot_set)


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
            a = (random_fraction_matrix if k % 2 else random_matrix)(rng, p, q, field, bound)
            pick = rng.random()
            moved = with_free_entry_moved(rng, a) if pick < 0.4 else None
            if moved is not None:
                b = apply_ops(moved, random_ops(rng, p, field))
                assert not null_equal(a, b)
                moved_pairs += 1
            elif pick < 0.7:
                b = apply_ops(a, random_ops(rng, p, field))
            else:
                b = random_fraction_matrix(rng, p, q, field, bound)
            same_null = null_equal(a, b)
            same_rref = gauche_rref(a).rref == gauche_rref(b).rref
            assert same_null == same_rref
        assert moved_pairs >= 10


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


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dictionary_roundtrip_against_rank_oracle(field):
    rng = random.Random(14142)
    for _ in range(120):
        p, q = random_shape(rng, 5, 6)
        m = random_matrix(rng, p, q, field)
        size = rng.randint(0, min(q - 1, 4))
        js = tuple(rng.sample(range(1, q + 1), size))
        k = rng.choice([j for j in range(1, q + 1) if j not in js])

        coeffs = column_in_span(m, k, js)
        presentable = oracle_rank(m, js + (k,)) == oracle_rank(m, js)
        assert (coeffs is not None) == presentable
        if coeffs is not None:
            # the returned combination is a null-space witness
            witness = [field.zero()] * q
            witness[k - 1] = -field.one()
            for c, j in zip(coeffs, js):
                witness[j - 1] = witness[j - 1] + c
            assert null_contains(m, Vector(tuple(witness), field))

        assert columns_independent(m, js) == (oracle_rank(m, js) == size)


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
