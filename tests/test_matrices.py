"""Matrix and vector basics: construction, access, products, equality."""
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from echelon import (
    GF,
    QQ,
    Axpy,
    FieldMismatchError,
    Matrix,
    Scale,
    ShapeError,
    Swap,
    Vector,
    apply_ops,
    as_scalar,
    column_in_span,
    columns_independent,
    std_basis,
)
from echelon.cli import parse_matrix

from helpers import (
    FIELD_CASES,
    GF7,
    T_ROWS,
    is_canonical,
    mat,
    matrix_j,
    matrix_t,
    random_matrices,
    random_matrix,
    random_shape,
    random_vector,
    reference_combination,
    reference_matvec,
    sc,
    vec,
)


class TestConstruction:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            mat([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mat([])
        for rows, cols in ((0, 2), (2, 0)):
            with pytest.raises(ShapeError, match="^matrices must have at least one row and one"):
                Matrix(rows, cols, (), QQ)
        with pytest.raises(ShapeError):
            Vector((), QQ)
        with pytest.raises(ShapeError):
            Vector((x for x in ()), QQ)  # a generator is truthy before it is read

    def test_entry_count_must_match_shape(self):
        with pytest.raises(ShapeError):
            Matrix(2, 2, (sc(1), sc(2), sc(3)), QQ)

    def test_foreign_entries_rejected(self):
        with pytest.raises(FieldMismatchError):
            Matrix(1, 2, (sc(1), sc(1, GF7)), QQ)
        with pytest.raises(FieldMismatchError):
            Vector((sc(1), sc(1, GF7)), QQ)

    def test_equal_field_objects_accepted(self):
        # GF(7) builds a new FieldSpec each call: equal, but not identical
        assert GF(7) is not GF7
        assert Matrix(1, 2, (sc(1, GF7), sc(2, GF(7))), GF(7)).field == GF7
        assert Vector((sc(1, GF7), sc(2, GF(7))), GF(7)).field == GF7


class TestStdBasis:
    def test_first_slot(self):
        assert std_basis(3, 1, QQ) == vec([1, 0, 0])

    def test_last_slot(self):
        assert std_basis(3, 3, QQ) == vec([0, 0, 1])

    def test_prime_field(self):
        assert std_basis(5, 2, GF7) == vec([0, 1, 0, 0, 0], GF7)

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_out_of_range(self, i):
        with pytest.raises(IndexError):
            std_basis(3, i, QQ)


class TestColumnAccess:
    def test_third_column(self):
        assert matrix_t().column(3) == vec([7, -5, 4])

    def test_first_column(self):
        assert matrix_t().column(1) == vec([2, -3, 1])

    def test_identity_column(self):
        assert Matrix.identity(3, QQ).column(2) == vec([0, 1, 0])

    @pytest.mark.parametrize("j", [0, 6])
    def test_out_of_range(self, j):
        with pytest.raises(IndexError):
            matrix_t().column(j)

    def test_row_access(self):
        assert matrix_t().row(2) == vec([-3, 4, -5, -6, 3])


class TestMatVecMul:
    def test_first_basis_vector_picks_first_column(self):
        t = matrix_t()
        assert t @ std_basis(5, 1, QQ) == t.column(1)

    def test_known_null_vector(self):
        # oracle: 3*col1 + 1*col2 - col3 is zero, checked with plain ints
        for row in T_ROWS:
            assert 3 * row[0] + 1 * row[1] - row[2] == 0
        t = matrix_t()
        assert (t @ vec([3, 1, -1, 0, 0])).is_zero()

    def test_zero_vector_maps_to_zero(self):
        t = matrix_t()
        assert (t @ Vector.zero(5, QQ)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match=r"^cannot multiply 3x5 matrix by a 3-vector$"):
            matrix_t() @ vec([1, 2, 3])

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError, match=r"^vector in GF\(7\) against a Q matrix$"):
            matrix_t() @ vec([0, 0, 0, 0, 1], GF7)

    def test_only_a_vector_multiplies(self):
        with pytest.raises(TypeError):
            matrix_t() @ 3


class TestEquality:
    def test_reflexive(self):
        assert matrix_t() == matrix_t()

    def test_different_matrices(self):
        assert matrix_t() != matrix_j()

    def test_shape_mismatch_is_unequal(self):
        assert Matrix.zero(2, 2, QQ) != Matrix.zero(3, 2, QQ)

    def test_field_mismatch_is_unequal(self):
        assert mat([[1, 0]]) != mat([[1, 0]], GF7)


class TestUtilities:
    def test_with_entry(self):
        m = matrix_j().with_entry(1, 1, 2)
        assert m.entry(1, 1) == sc(2)
        assert matrix_j().entry(1, 1) == sc(1)  # original untouched

    def test_take_columns_order(self):
        t = matrix_t()
        sub = t.take_columns((5, 1))
        assert sub.column(1) == t.column(5)
        assert sub.column(2) == t.column(1)
        # a repeated column is taken again, in place
        sub = t.take_columns((5, 1, 5, 3))
        assert (sub.rows, sub.cols) == (3, 4)
        assert sub.values == (2, 2, 2, 7, 3, -3, 3, -5, 2, 1, 2, 4)

    def test_augment(self):
        t = matrix_t()
        aug = t.augment(t.column(5))
        assert aug.cols == 6
        assert aug.column(6) == t.column(5)
        assert aug.take_columns(range(1, 6)) == t

    def test_augment_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_t().augment(vec([1, 2]))

    def test_augment_field_mismatch(self):
        with pytest.raises(FieldMismatchError, match=r"^right-hand side in GF\(7\) against Q$"):
            matrix_t().augment(vec([1, 2, 3], GF7))


class TestTakeColumns:
    """take_columns slices the row-major raw values: the picked columns in
    the given order, bounds-checked, never empty."""

    def test_all_columns_rebuild_the_matrix(self):
        t = matrix_t()
        assert t.take_columns(range(1, 6)) == t

    @pytest.mark.parametrize("j", [0, 6, -1])
    def test_out_of_range_column_raises_index_error(self, j):
        with pytest.raises(IndexError, match=rf"^column index {j} out of range 1\.\.5$"):
            matrix_t().take_columns((1, j))

    def test_empty_selection_raises_shape_error(self):
        for js in ((), [], range(1, 1)):
            with pytest.raises(ShapeError, match=r"^no columns given$"):
                matrix_t().take_columns(js)

    @pytest.mark.parametrize("field", [QQ, GF7, GF(2)], ids=str)
    def test_matches_from_rows_of_the_picked_entries(self, field):
        rng = random.Random(5353)
        for _ in range(40):
            p, q = random_shape(rng)
            m = random_matrix(rng, p, q, field, kind="a/b")
            js = [rng.randint(1, q) for _ in range(rng.randint(1, 2 * q))]
            picked = Matrix.from_rows([[row[j - 1] for j in js] for row in m.raw_rows()], field)
            assert m.take_columns(js) == picked


T = matrix_t()  # 3x5

# (call of a 1-based index, kind of index, slots); the op constructors check
# only the lower bound, so ops are built unchecked to reach apply_ops' check
INDEX_SITES = {
    "std_basis": (lambda i: std_basis(4, i, QQ), "basis", 4),
    "entry row": (lambda i: T.entry(i, 1), "row", 3),
    "entry column": (lambda i: T.entry(1, i), "column", 5),
    "entry row before column": (lambda i: T.entry(i, 0), "row", 3),
    "with_entry row": (lambda i: T.with_entry(i, 1, 0), "row", 3),
    "with_entry column": (lambda i: T.with_entry(1, i, 0), "column", 5),
    "with_entry row before column": (lambda i: T.with_entry(i, 6, 0), "row", 3),
    "row": (lambda i: T.row(i), "row", 3),
    "column": (lambda i: T.column(i), "column", 5),
    "take_columns": (lambda i: T.take_columns([1, i]), "column", 5),
    "selection": (lambda i: columns_independent(T, [1, i]), "column", 5),
    "span selection": (lambda i: column_in_span(T, 2, [1, i]), "column", 5),
    "span target": (lambda i: column_in_span(T, i, [1]), "column", 5),
    "apply_ops swap": (lambda i: apply_ops(T, [Swap._raw(1, i)]), "row", 3),
    "apply_ops scale": (lambda i: apply_ops(T, [Scale._raw(i, sc(2))]), "row", 3),
    "apply_ops axpy target": (lambda i: apply_ops(T, [Axpy._raw(i, 1, sc(2))]), "row", 3),
    "apply_ops axpy source": (lambda i: apply_ops(T, [Axpy._raw(1, i, sc(2))]), "row", 3),
}


@pytest.mark.parametrize("past_end", [False, True], ids=["0", "n+1"])
@pytest.mark.parametrize("site", INDEX_SITES)
def test_every_index_site_names_the_kind_and_range(site, past_end):
    """Public indices are 1-based: index 0 and index n+1 raise the one
    IndexError text at every site, and an entry reports its row first."""
    call, kind, n = INDEX_SITES[site]
    i = n + 1 if past_end else 0
    with pytest.raises(IndexError) as err:
        call(i)
    assert str(err.value) == f"{kind} index {i} out of range 1..{n}"


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_parsed_entries_are_canonical_scalars(field, bound):
    """Storage holds raw values, but entries, entry, row and column give
    the Scalars as_scalar makes of each token. Each holds its one
    canonical raw value (over Q an int where the value is whole, else a
    Fraction), and its inverse is exact and canonical too: never a float."""
    rng = random.Random(6060)
    for m in [
        *random_matrices(rng, field, bound, 12),
        *random_matrices(rng, field, bound, 12, kind="a/b"),
    ]:
        text = str(m)
        expected = [[as_scalar(tok, field) for tok in line.split()] for line in text.splitlines()]
        parsed = parse_matrix(text, field)
        assert parsed.entries == tuple(s for row in expected for s in row)
        for i, row in enumerate(expected, start=1):
            assert parsed.row(i).entries == tuple(row)
            for j, s in enumerate(row, start=1):
                assert parsed.entry(i, j) == s
                assert parsed.column(j).entries[i - 1] == s
        for s in parsed.entries:
            assert is_canonical(s.value, field)
            if s:
                assert s * s.inv() == field.one()
                assert is_canonical(s.inv().value, field)


@st.composite
def matrix_and_column_index(draw):
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=q, max_size=q), min_size=p, max_size=p
        )
    )
    j = draw(st.integers(1, q))
    return mat(rows), j


@given(matrix_and_column_index())
def test_column_is_product_with_basis_vector(case):
    m, j = case
    assert m.column(j) == m @ std_basis(m.cols, j, m.field)


@pytest.mark.parametrize("field", [QQ, GF7], ids=str)
def test_mat_vec_mul_is_linear(field):
    rng = random.Random(733)
    for _ in range(60):
        p, q = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, p, q, field)
        u = vec([rng.randint(-5, 5) for _ in range(q)], field)
        v = vec([rng.randint(-5, 5) for _ in range(q)], field)
        a, b = sc(rng.randint(-5, 5), field), sc(rng.randint(-5, 5), field)
        lhs = m @ reference_combination([(a, u), (b, v)], q, field)
        rhs = reference_combination([(a, m @ u), (b, m @ v)], p, field)
        assert lhs == rhs


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_product_matches_reference(field, bound):
    """m @ v is the Scalar-arithmetic product, for a/b matrices held as
    Fractions or parsed to ints, and a/b, integer, zero and one-nonzero
    vectors. Over Q each entry is an int, or a Fraction that is not whole."""
    rng = random.Random(909)
    for m in [
        *random_matrices(rng, field, bound, 12),
        *random_matrices(rng, field, bound, 24, kind="a/b"),
    ]:
        q = m.cols
        # numerators and denominators odd and nonzero in every field used
        c = Fraction(rng.choice([-1, 3, -5, 2**61 + 1]), rng.choice([1, 3, 5, 2**31 - 1]))
        vectors = [
            random_vector(rng, q, field, bound, kind="a/b"),
            random_vector(rng, q, field),
            Vector.zero(q, field),
            reference_combination(
                [(sc(c, field), std_basis(q, rng.randint(1, q), field))], q, field
            ),
        ]
        for a in (m, parse_matrix(str(m), field)):
            for v in vectors:
                product = a @ v
                assert product == reference_matvec(a, v)
                if field.modulus is None:
                    assert all(type(x) is int or x.denominator != 1 for x in product.values)
                else:
                    assert all(type(x) is int and 0 <= x < field.modulus for x in product.values)
