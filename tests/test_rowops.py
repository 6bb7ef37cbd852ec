"""Row operations: the validator, the recorded elimination, and replay."""
import random
from fractions import Fraction

import pytest

from echelon import (
    GF,
    QQ,
    RREF_CONDITIONS,
    Axpy,
    InvalidOperationError,
    Matrix,
    ParseError,
    Scale,
    Swap,
    Vector,
    apply_ops,
    format_op,
    gauche_rref,
    gauss_jordan,
    is_rref,
    null_basis,
    parse_ops,
    rref_violation,
)

from helpers import (
    FIELD_CASES,
    FIELDS,
    GF7,
    mat,
    matrix_j,
    matrix_t,
    random_matrices,
    random_low_rank_matrix,
    random_matrix,
    random_ops,
    random_shape,
    sc,
)


class TestRowOpConstruction:
    def test_self_swap_rejected(self):
        with pytest.raises(InvalidOperationError):
            Swap(2, 2)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidOperationError):
            Scale(1, sc(0))

    def test_self_axpy_rejected(self):
        with pytest.raises(InvalidOperationError):
            Axpy(1, 1, sc(2))

    def test_zero_axpy_coefficient_is_legal(self):
        op = Axpy(1, 2, sc(0))  # a no-op, but a valid one
        assert apply_ops(matrix_t(), [op]) == matrix_t()

    def test_nonpositive_indices_rejected(self):
        with pytest.raises(IndexError):
            Swap(0, 1)
        with pytest.raises(IndexError):
            Scale(-1, sc(2))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Swap(1, 0),
            lambda: Swap(0, 0),
            lambda: Axpy(0, 1, sc(2)),
            lambda: Axpy(1, 0, sc(2)),
        ],
        ids=["swap-second", "swap-self", "axpy-target", "axpy-source"],
    )
    def test_every_row_index_checked_first(self, make):
        """Both indices of a swap or an axpy are checked, before the self test."""
        with pytest.raises(IndexError, match="out of range"):
            make()

    @pytest.mark.parametrize(
        ("make", "name"),
        [
            (lambda: Scale(1, 2), "int"),
            (lambda: Scale(1, 0.0), "float"),
            (lambda: Axpy(1, 2, 3), "int"),
            (lambda: Axpy(1, 2, Fraction(1, 2)), "Fraction"),
            (lambda: Axpy(1, 1, 3), "int"),
        ],
        ids=["scale-int", "scale-zero-float", "axpy-int", "axpy-fraction", "axpy-self-int"],
    )
    def test_coefficient_must_be_a_scalar(self, make, name):
        """A raw number is refused before the zero and self tests, so no
        operation is built that apply_ops cannot replay or parse_ops cannot
        read back."""
        with pytest.raises(TypeError, match=f"coefficient must be a Scalar, got {name}$"):
            make()


class TestValidator:
    def test_worked_example_reduced_form(self):
        assert is_rref(matrix_j())

    def test_worked_example_original(self):
        assert rref_violation(matrix_t()) == "Pivots"  # first nonzero of row 1 is 2

    def test_zero_matrix(self):
        assert is_rref(Matrix.zero(3, 4, QQ))

    def test_higher_pivot_to_the_right(self):
        assert rref_violation(mat([[0, 1], [1, 0]])) == "Downright"

    def test_single_entry_mutations_break_each_condition(self):
        assert rref_violation(matrix_j().with_entry(1, 1, 2)) == "Pivots"
        assert rref_violation(matrix_j().with_entry(3, 1, 1)) == "Insecurity"
        downright = mat([[0, 1, 0], [0, 0, 1]]).with_entry(2, 1, 1)
        assert rref_violation(downright) == "Downright"
        bottom = Matrix.identity(2, QQ).with_entry(1, 1, 0)
        assert rref_violation(bottom) == "Bottom-zeros"

    def test_free_column_mutation_can_stay_reduced(self):
        # entries in nonpivot columns above the pivot line are unconstrained
        assert is_rref(matrix_j().with_entry(1, 3, 4))

    @pytest.mark.parametrize("field", [QQ, GF(2), GF7, GF(32003)], ids=str)
    def test_each_planted_violation_is_the_one_named(self, field):
        """Across shapes 1 x n, n x 1, wide, tall and square, at every rank
        up to the smaller side: both routes give an RREF, and a violation
        planted as the benchmark's check corpus plants it is exactly the one
        named. A scaled pivot row breaks Pivots, row 1 plus row 2
        Insecurity, rows 1 and 2 swapped Downright, and a zero row moved to
        the top Bottom-zeros."""
        rng = random.Random(15)
        planted = set()
        for rows, cols in [(1, 7), (7, 1), (6, 40), (12, 4), (5, 5)]:
            for rank in range(min(rows, cols) + 1):
                m = random_low_rank_matrix(rng, rows, cols, rank, field)
                reduced = gauche_rref(m)
                good = reduced.rref.raw_rows()
                cases = [(good, None), (gauss_jordan(m).rref.raw_rows(), None)]
                # the rank of m itself, which may fall short of the factors'
                nonzero = len(reduced.pivot_set)
                if nonzero and field != GF(2):
                    bad, i = [row[:] for row in good], rng.randrange(nonzero)
                    c = rng.choice([-1, 2, Fraction(1, 3)] if field == QQ else range(2, 7))
                    bad[i] = [c * x for x in bad[i]]
                    cases.append((bad, "Pivots"))
                if nonzero >= 2:
                    bad = [row[:] for row in good]
                    bad[0] = [x + y for x, y in zip(bad[0], bad[1])]
                    cases.append((bad, "Insecurity"))
                    cases.append((good[1:2] + good[:1] + good[2:], "Downright"))
                if 0 < nonzero < rows:
                    cases.append((good[-1:] + good[:-1], "Bottom-zeros"))
                for case, name in cases:
                    r = Matrix.from_rows(case, field)
                    assert rref_violation(r) == name
                    assert is_rref(r) is (name is None)
                    planted.add(name)
        assert planted == {None, *RREF_CONDITIONS[field == GF(2) :]}


class TestGaussJordan:
    def test_worked_example(self):
        result = gauss_jordan(matrix_t())
        assert result.rref == matrix_j()
        assert result.pivot_set == (1, 2, 5)

    def test_identity_yields_empty_script(self):
        result = gauss_jordan(Matrix.identity(3, QQ))
        assert result.rref == Matrix.identity(3, QQ)
        assert result.ops == ()

    def test_zero_matrix_yields_empty_script(self):
        z = Matrix.zero(2, 3, QQ)
        result = gauss_jordan(z)
        assert result.rref == z
        assert result.ops == ()

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_replay_soundness(self, field, bound):
        rng = random.Random(61)
        for m in random_matrices(rng, field, bound, 80):
            result = gauss_jordan(m)
            assert is_rref(result.rref)
            assert apply_ops(m, result.ops) == result.rref


class TestApplyOps:
    def test_replay_of_recorded_log(self):
        assert apply_ops(matrix_t(), gauss_jordan(matrix_t()).ops) == matrix_j()

    def test_empty_script_is_identity(self):
        assert apply_ops(matrix_t(), ()) == matrix_t()

    def test_swap_is_an_involution(self):
        once = apply_ops(matrix_t(), [Swap(1, 2)])
        assert once != matrix_t()
        assert apply_ops(once, [Swap(1, 2)]) == matrix_t()

    def test_out_of_range_row_rejected(self):
        with pytest.raises(IndexError):
            apply_ops(matrix_t(), [Swap(1, 4)])
        with pytest.raises(IndexError):
            apply_ops(matrix_t(), [Scale(4, sc(2))])

    def test_each_op_kind_acts_correctly(self):
        m = mat([[1, 2], [3, 4]])
        assert apply_ops(m, [Swap(1, 2)]) == mat([[3, 4], [1, 2]])
        assert apply_ops(m, [Scale(1, sc(-2))]) == mat([[-2, -4], [3, 4]])
        # axpy subtracts: row1 <- row1 - 2*row2
        assert apply_ops(m, [Axpy(1, 2, sc(2))]) == mat([[-5, -6], [3, 4]])

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_single_ops_preserve_the_null_space(self, field):
        rng = random.Random(3110)
        for _ in range(60):
            p, q = random_shape(rng, 6, 8)
            m = random_matrix(rng, p, q, field)
            basis = null_basis(m).basis
            if not basis:
                continue
            # a random combination of basis vectors lies in the null space
            acc = [field.zero()] * q
            for w in basis:
                c = sc(rng.randint(-3, 3), field)
                acc = [a + c * e for a, e in zip(acc, w.entries)]
            v = Vector(tuple(acc), field)
            assert (m @ v).is_zero()
            for op in random_ops(rng, p, field, max_len=6):
                assert (apply_ops(m, [op]) @ v).is_zero()


class TestEquivalenceScript:
    def test_script_reaches_the_sweep_result(self):
        t = matrix_t()
        assert apply_ops(t, gauss_jordan(t).ops) == gauche_rref(t).rref

    def test_zero_matrix_script_is_empty(self):
        assert gauss_jordan(Matrix.zero(3, 3, QQ)).ops == ()

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_script_property_on_random_matrices(self, field, bound):
        rng = random.Random(88)
        for m in random_matrices(rng, field, bound, 60):
            assert apply_ops(m, gauss_jordan(m).ops) == gauche_rref(m).rref


class TestOpText:
    def test_format(self):
        assert format_op(Swap(1, 3)) == "swap 1 3"
        assert format_op(Scale(2, sc("1/2"))) == "scale 2 1/2"
        assert format_op(Axpy(3, 1, sc(-3))) == "axpy 3 1 -3"

    def test_roundtrip_of_recorded_script(self):
        ops = gauss_jordan(matrix_t()).ops
        text = "\n".join(format_op(op) for op in ops)
        assert parse_ops(text, QQ) == ops

    def test_parse_skips_comments_and_blanks(self):
        ops = parse_ops("# preamble\n\nswap 1 2  # trailing\n", QQ)
        assert ops == (Swap(1, 2),)

    def test_parse_breaks_lines_as_the_matrix_reader_does(self):
        """Only LF, CRLF and CR end a line; form feed, vertical tab, U+0085
        and U+2028 separate tokens, and an error quotes its line as written."""
        text = "swap 1\f2\r\nscale\x852 3\raxpy 3\u20281\v2\n"
        assert parse_ops(text, QQ) == (Swap(1, 2), Scale(2, sc(3)), Axpy(3, 1, sc(2)))
        with pytest.raises(ParseError) as err:
            parse_ops(text + "frob\f 1\r", QQ)
        assert str(err.value) == "line 4: unrecognized row operation 'frob\\x0c 1'"

    @pytest.mark.parametrize(
        "text",
        ["swap 1", "scale 1 0", "axpy 1 1 2", "rot 1 2", "swap 1 one", "scale 2 1.5"],
    )
    def test_parse_errors_carry_line_numbers(self, text):
        with pytest.raises(ParseError, match="line 1"):
            parse_ops(text, QQ)

    @pytest.mark.parametrize(
        "text",
        ["swap 1_0 +1", "swap +1 2", "swap \u0661 2", "scale 1_0 2", "axpy 2 +1 3", "swap -1 2"],
    )
    def test_row_indices_are_plain_ascii_digits(self, text):
        with pytest.raises(ParseError, match="line 2: malformed row index"):
            parse_ops("swap 1 2\n" + text + "\n", QQ)

    @pytest.mark.parametrize(
        ("op", "field"),
        [("scale 1 1/0", QQ), ("scale 1 1/7", GF7), ("scale 1 7/7", GF7)],
        ids=["Q", "GF(7)", "GF(7) cancelling"],
    )
    def test_zero_denominator_names_the_line(self, op, field):
        with pytest.raises(ParseError, match="line 2: "):
            parse_ops("swap 1 2\n" + op + "\n", field)

    def test_gf7_script_roundtrip(self):
        m = random_matrix(random.Random(7), 4, 5, GF7)
        ops = gauss_jordan(m).ops
        text = "\n".join(format_op(op) for op in ops)
        assert parse_ops(text, GF7) == ops

    @pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
    def test_random_ops_roundtrip(self, field, bound):
        """parse_ops reads back every line format_op writes, in every field;
        each coefficient is scaled by bound, nonzero in every case, so the
        64-bit case writes 64-bit literals."""
        rng = random.Random(29)
        for _ in range(40):
            ops = [
                op if isinstance(op, Swap)
                else type(op)(*op._fields()[:-1], sc(op.c.value * bound, field))
                for op in random_ops(rng, rng.randint(1, 6), field)
            ]
            text = "\n".join(format_op(op) for op in ops)
            assert parse_ops(text, field) == tuple(ops)

    def test_non_ops_are_refused(self):
        """Anything but a Swap, Scale or Axpy is a TypeError naming it, in
        format_op and in apply_ops."""
        thing = object()
        with pytest.raises(TypeError, match=f"^not a row operation: {thing!r}$"):
            format_op(thing)
        with pytest.raises(TypeError, match=f"^not a row operation: {thing!r}$"):
            apply_ops(matrix_t(), [Swap(1, 2), thing])

    def test_subclassed_ops_format_and_replay(self):
        """A subclass of an op class is that op, whether it declares
        `__slots__ = ()` or no slots: it formats as its kind, its line parses
        back to the op, and it replays as the op does."""
        cases = ((Swap(1, 3), "swap 1 3"), (Scale(2, sc(-2)), "scale 2 -2"),
                 (Axpy(1, 2, sc(3)), "axpy 1 2 3"))
        for op, line in cases:
            for body in ({"__slots__": ()}, {}):
                tagged = type("Tagged", (type(op),), body)(*op._fields())
                assert format_op(tagged) == line
                assert parse_ops(line, QQ) == (op,)
                assert apply_ops(matrix_t(), [tagged]) == apply_ops(matrix_t(), [op])
