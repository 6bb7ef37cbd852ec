"""Field arithmetic: canonical forms, parsing, and the field axioms."""
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from echelon import (
    GF,
    QQ,
    Affine,
    Axpy,
    FieldMismatchError,
    FieldSpec,
    Matrix,
    ParseError,
    Scalar,
    Scale,
    Vector,
    apply_ops,
    as_scalar,
    gauche_rref,
    gauss_jordan,
    null_basis,
    solve,
)
from echelon.scalars import parse_value

from helpers import (
    FIELD_CASES,
    GF7,
    is_canonical,
    matrix_t,
    random_matrices,
    random_vector,
    sc,
    system_from_augmented,
)

Q_CASES = [case for case in FIELD_CASES if case.values[0] is QQ]


class TestArithmetic:
    def test_rational_addition(self):
        assert sc("1/2") + sc("1/3") == sc("5/6")

    def test_prime_field_inverse(self):
        assert sc(3, GF7).inv() == sc(5, GF7)
        assert sc(3, GF7) * sc(5, GF7) == GF7.one()

    def test_cancellation_to_canonical(self):
        assert sc("-2/3") * sc("3/2") == sc(-1)

    def test_subtraction_and_division(self):
        assert sc("1/2") - sc("1/3") == sc("1/6")
        assert sc(3) / sc(-2) == sc("-3/2")
        assert sc(2, GF7) / sc(3, GF7) == sc(3, GF7)  # 3 * 3 = 9 = 2

    def test_rational_inverse_is_exact(self):
        """Over Q the inverse of a raw int is a Fraction, never the float
        1 / a, and the inverse of 1/3 is the int 3."""
        results = [QQ.inverse(2), QQ.inverse(Fraction(1, 3)), Scalar(QQ, 3).inv().value]
        assert results == [Fraction(1, 2), 3, Fraction(1, 3)]
        assert [type(x) for x in results] == [Fraction, int, Fraction]

    @pytest.mark.parametrize("field", [QQ, GF7], ids=str)
    def test_inverse_of_zero_rejected(self, field):
        """Zero has no inverse in either field, whether asked of a Scalar or
        of the raw-value division."""
        with pytest.raises(ZeroDivisionError):
            field.zero().inv()
        with pytest.raises(ZeroDivisionError):
            field.inverse(0)
        with pytest.raises(ZeroDivisionError):
            field.quotient(1, 0)

    @pytest.mark.parametrize("field", [QQ, GF7], ids=str)
    @pytest.mark.parametrize("value", [1.5, 0.1, "3", None], ids=repr)
    def test_non_int_non_fraction_values_rejected(self, field, value):
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"^cannot interpret {name} as a scalar$"):
            Scalar(field, value)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            sc(1) + sc(1, GF7)
        with pytest.raises(FieldMismatchError):
            sc(2, GF7) * sc(2, GF(5))

    def test_only_scalars_combine(self):
        """A raw number is no operand: + and / return NotImplemented."""
        with pytest.raises(TypeError):
            sc(1) + 1
        with pytest.raises(TypeError):
            sc(1) / 2


class TestFieldSpec:
    def test_composite_modulus_rejected(self):
        for bad in (0, 1, 4, 6, 91):
            with pytest.raises(ValueError):
                GF(bad)

    @pytest.mark.parametrize("modulus", [7.0, Fraction(7)], ids=repr)
    def test_non_int_modulus_rejected(self, modulus):
        name = type(modulus).__name__
        with pytest.raises(TypeError, match=f"^modulus must be an int or None, got {name}$"):
            FieldSpec(modulus)

    def test_prime_moduli_accepted(self):
        for p in (2, 3, 5, 7, 101, 32749):
            assert GF(p).modulus == p

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert GF(2**61 - 1).modulus == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    def test_pseudoprimes_rejected(self):
        # Carmichael numbers, a strong pseudoprime to base 2, and one to
        # every prime base up to 23
        for bad in (561, 41041, 2047, 3825123056546413051):
            with pytest.raises(ValueError, match="must be a prime"):
                GF(bad)

    def test_agrees_with_a_sieve(self):
        limit = 3000
        sieve = [False, False] + [True] * (limit - 2)
        for n in range(2, limit):
            if sieve[n]:
                for k in range(n * n, limit, n):
                    sieve[k] = False
        for n in range(limit):
            try:
                GF(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == sieve[n], n

    def test_modulus_above_the_certified_bound_rejected(self):
        # 2**89 - 1 is prime, but above the bound where the bases decide
        with pytest.raises(ValueError, match="too large"):
            GF(2**89 - 1)

    def test_str(self):
        assert str(QQ) == "Q"
        assert str(GF7) == "GF(7)"

    @pytest.mark.parametrize("field", [QQ, GF7], ids=str)
    def test_row_primitives_match_scalar_arithmetic(self, field):
        """The kernels' row primitives, each checked against Scalar
        arithmetic: over Q integer rows cleared from and divided back to
        raw values, with denominators other than 1; over GF(p) packed rows,
        at slot widths from one byte to wider than 64 bits, after random
        updates and with every slot at the bound its width is chosen for,
        (p-1) + updates * (p-1)**2."""
        rng = random.Random(404)

        def scalars(raw):
            return [Scalar(field, x) for x in raw]

        for _ in range(200):
            n = rng.randint(1, 6)
            if field.modulus is None:
                d = rng.choice([1, rng.randint(1, 6) * rng.choice([-1, 1])])
                xs = [d * rng.randint(-50, 50) for _ in range(n)]
                unit = Scalar(field, d)
                assert scalars(field.quotients(xs, d)) == [x / unit for x in scalars(xs)]
                assert Scalar(field, field.quotient(xs[0], d)) == Scalar(field, xs[0]) / unit
                values = [rng.choice([x, Fraction(x, 3)]) for x in xs]
                ints, den = field.clear([Scalar(field, v).value for v in values])
                assert all(type(x) is int for x in ints)
                assert scalars(field.quotients(ints, den)) == scalars(values)
            else:
                p = field.modulus
                xs = [rng.randrange(p) for _ in range(n)]
                assert field.clear(xs) == (xs, 1)
                if xs[0]:
                    assert Scalar(field, field.inverse(xs[0])) == Scalar(field, xs[0]).inv()
                # quotients are least residues, whatever int d stands for
                d = rng.choice([1, rng.randint(1, 50) * rng.choice([-1, 1])])
                if d % p:
                    unit = Scalar(field, d)
                    assert field.quotients(xs, d) == [(x / unit).value for x in scalars(xs)]
                    assert field.quotient(xs[0], d) == (Scalar(field, xs[0]) / unit).value
                for updates in (1, 7, 300, 2**70):
                    w = field.slot_bits(updates)
                    assert w % 8 == 0 and (p - 1) + updates * (p - 1) ** 2 < 2**w
                    assert field.unpack(field.pack(xs, w), n, w) == xs
                    # random updates W + (p - f)*U, read back mod p
                    packed, expected = field.pack(xs, w), scalars(xs)
                    for _ in range(min(updates, 5)):
                        ys, f = [rng.randrange(p) for _ in range(n)], rng.randrange(1, p)
                        packed += (p - f) * field.pack(ys, w)
                        expected = [x - Scalar(field, f) * y for x, y in zip(expected, scalars(ys))]
                    assert field.unpack(packed, n, w) == [x.value for x in expected]
                    # the heaviest slots the width allows: no carry crosses
                    # into the next slot
                    top = field.pack([p - 1] * n, w) * (1 + updates * (p - 1))
                    heaviest = Scalar(field, p - 1) * Scalar(field, 1 + updates * (p - 1))
                    assert scalars(field.unpack(top, n, w)) == [heaviest] * n


class TestParse:
    def test_negative_integer(self):
        s = as_scalar("-7", QQ)
        assert s.value == Fraction(-7, 1)

    def test_canonicalization(self):
        assert as_scalar("4/6", QQ) == sc("2/3")
        assert str(as_scalar("4/6", QQ)) == "2/3"

    def test_reduction_mod_p(self):
        assert as_scalar("9", GF7) == sc(2, GF7)
        assert as_scalar("-1", GF7) == sc(6, GF7)

    def test_fraction_literal_over_prime_field(self):
        assert as_scalar("4/6", GF7) == sc(3, GF7)  # 4 * inv(6) = 4 * 6 = 24 = 3

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "2/", "/3", "1 2", " 1", "1/ 2", "a", "3/-2", "+4", "- 7", "--2", "1/2/3"],
    )
    def test_malformed_literals(self, text):
        with pytest.raises(ParseError):
            as_scalar(text, QQ)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            as_scalar("3/0", QQ)
        with pytest.raises(ZeroDivisionError):
            as_scalar("3/0", GF7)

    def test_denominator_divisible_by_p(self):
        with pytest.raises(ZeroDivisionError):
            as_scalar("2/7", GF7)
        with pytest.raises(ZeroDivisionError):
            as_scalar("2/14", GF7)

    @pytest.mark.parametrize("text", ["7/7", "14/7", "0/7", "-7/7", "49/7"])
    def test_vanishing_denominator_is_rejected_before_the_fraction_cancels(self, text):
        """b^-1 must exist for a/b to mean a * b^-1 in GF(p), whatever a is."""
        for read in (parse_value, as_scalar):
            with pytest.raises(ZeroDivisionError, match=r"^denominator 7 vanishes in GF\(7\)$"):
                read(text, GF7)


class TestCanonicalForm:
    def test_recanonicalizing_is_identity(self):
        for s in (sc("4/6"), sc("-9/3"), sc(0), sc(5, GF7), sc(-12, GF7)):
            again = Scalar(s.spec, s.value)
            assert again == s
            assert str(again) == str(s)

    def test_rational_canonical_invariants(self):
        for text in ("4/6", "-10/4", "0/5", "7/1", "-3"):
            s = as_scalar(text, QQ)
            assert s.value.denominator > 0
            import math

            assert math.gcd(abs(s.value.numerator), s.value.denominator) in (0, 1)

    def test_zero_is_zero_over_one(self):
        s = as_scalar("0/5", QQ)
        assert (s.value.numerator, s.value.denominator) == (0, 1)

    def test_quotients_are_ints_where_whole(self):
        quotients = QQ.quotients([6, -3, 4, 0, -8], -2)
        assert quotients == [-3, Fraction(3, 2), -2, 0, 4]
        assert [type(x) for x in quotients] == [int, Fraction, int, int, int]

    @pytest.mark.parametrize(("field", "bound"), Q_CASES)
    def test_every_entry_point_stores_canonical_raw_values(self, field, bound):
        """Over Q every way in gives a value its one raw form, an int or a
        Fraction that is not whole: literals, Scalar, the public matrix and
        vector constructors, the coefficients Gauss-Jordan logs, and the
        entries apply_ops writes, whether it replays a log or scales by a
        Fraction that is not whole."""
        rng = random.Random(4242)

        def entry():
            d = rng.choice([1, 2, 3])
            return Fraction(rng.randint(-bound, bound) * rng.choice([1, d]), d)

        rows = [[entry() for _ in range(5)] for _ in range(4)]
        values = [
            parse_value("4/2", field),
            parse_value("0/5", field),
            parse_value("-7/3", field),
            Scalar(field, 3).value,
            Scalar(field, Fraction(6, 3)).value,
            as_scalar("9/3", field).value,
        ]
        assert values == [2, 0, Fraction(-7, 3), 3, 2, 3]
        m = Matrix.from_rows(rows, field)
        small = Matrix.from_rows([[2, 4], [1, 3]], field)
        half = sc(Fraction(1, 2), field)
        built = [
            m,
            Matrix(2, 2, (Fraction(4, 2), "6/3", sc("1/2"), 0), field),
            Matrix.identity(3, field),
            Matrix.zero(2, 3, field),
            m.with_entry(2, 3, Fraction(8, 4)).with_entry(1, 1, "-10/5"),
            Vector(tuple(rows[0]), field),
            Vector((Fraction(3, 1), "0/4", sc(5)), field),
            Vector.zero(3, field),
            apply_ops(small, gauss_jordan(small).ops),
            apply_ops(small, [Scale(1, half), Axpy(2, 1, half)]),
        ]
        for x in built:
            values.extend(x.values)
        for r in random_matrices(rng, field, bound, 12, kind="a/b"):
            ops = gauss_jordan(r).ops
            for op in ops:
                if isinstance(op, (Scale, Axpy)):
                    values.append(op.c.value)
            values.extend(apply_ops(r, ops).values)
        assert all(is_canonical(x, field) for x in values)

    @pytest.mark.parametrize(("field", "bound"), Q_CASES)
    def test_results_over_q_hold_canonical_raw_values(self, field, bound):
        """Over Q the raw values of gauche_rref, gauss_jordan, null_basis,
        solve and @ are ints, or Fractions that are not whole: the worked
        example reduces to ints only, not Fraction(3, 1)."""

        def canonical(values):
            return all(is_canonical(x, field) for x in values)

        assert all(type(x) is int for x in gauche_rref(matrix_t()).rref.values)
        rng = random.Random(5150)
        for m in [
            *random_matrices(rng, field, bound, 12),
            *random_matrices(rng, field, bound, 12, kind="a/b"),
        ]:
            res = gauche_rref(m)
            assert canonical(res.rref.values)
            assert all(canonical(j.values) for j in res.journals)
            assert canonical(gauss_jordan(m).rref.values)
            assert all(canonical(v.values) for v in null_basis(m).basis)
            assert canonical((m @ random_vector(rng, m.cols, field, bound, kind="a/b")).values)
            if m.cols > 1:
                sol = solve(system_from_augmented(m))
                if isinstance(sol, Affine):
                    assert canonical(sol.particular.values)
                    assert all(canonical(v.values) for v in sol.homogeneous.basis)


@st.composite
def rational_scalars(draw):
    num = draw(st.integers(-(10**6), 10**6))
    den = draw(st.integers(1, 10**6))
    return Scalar(QQ, Fraction(num, den))


@given(rational_scalars())
def test_parse_format_roundtrip_rationals(s):
    assert as_scalar(str(s), QQ) == s


@given(st.integers(0, 6))
def test_parse_format_roundtrip_gf7(r):
    s = Scalar(GF7, r)
    assert as_scalar(str(s), GF7) == s


@pytest.mark.parametrize("field", [QQ, GF7], ids=str)
def test_field_axioms_hold_on_random_triples(field):
    rng = random.Random(1847)

    def rand():
        if field is QQ:
            return Scalar(QQ, Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
        return Scalar(field, rng.randint(0, field.modulus - 1))

    zero, one = field.zero(), field.one()
    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inv() == one
