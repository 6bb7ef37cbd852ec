"""Exact scalars over the rationals or a prime field GF(p).

Every field element has one form, its raw value: over Q an int, or a
reduced Fraction where the value is not an integer; over GF(p) the least
nonnegative residue. FieldSpec.raw is the only canonicalizer, and as_raw
the one coercion of an int, Fraction, literal or Scalar to a raw value.
Mixing values from different fields raises FieldMismatchError rather than
coercing.

Scalar is the type at the API boundary: one raw value with its field.
Everything else works on raw values. The elimination kernels hold integer
rows over a denominator through the row arithmetic on FieldSpec. Literals
are read by parse_value and written by format_values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError, ParseError

# optional '-', digits, '/' and more digits; no whitespace inside
_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]+)\Z")


# Miller-Rabin with the primes 2..41 as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n at or above
    _MR_BOUND, where these bases no longer decide primality."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"modulus {n} is too large: primality is only decided below {_MR_BOUND}"
        )
    if n < 43:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Names the field scalars live in: GF(p) for a prime modulus p, the
    rationals for modulus None."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and not _is_prime(self.modulus):
            raise ValueError(f"modulus must be a prime, got {self.modulus!r}")

    def raw(self, value):
        """The raw value of an int or a Fraction: over Q an int where the
        value is whole, else the Fraction; over GF(p) its least residue, a/b
        meaning a times the inverse of b."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")
        p = self.modulus
        if not isinstance(value, Fraction):
            return int(value) if p is None else value % p
        if p is None:
            return value.numerator if value.denominator == 1 else value
        if value.denominator % p == 0:
            raise ZeroDivisionError(f"denominator {value.denominator} vanishes in {self}")
        return value.numerator * pow(value.denominator, -1, p) % p

    # Raw-value arithmetic shared by the elimination kernels. The kernels
    # hold a row as integers xs over a denominator d, standing for the raw
    # row xs / d: fraction-free over Q, and d = 1 over GF(p).

    def inverse(self, a):
        """The inverse of the nonzero raw value a."""
        if self.modulus is None:
            return self.quotient(1, a)
        return pow(a, -1, self.modulus)

    def scale_row(self, c, xs) -> list:
        """The raw row c*xs."""
        p = self.modulus
        if p is None:
            return [c * x for x in xs]
        return [c * x % p for x in xs]

    def clear(self, values) -> tuple[list[int], int]:
        """The list of raw values as an integer row over a denominator: over
        Q the least common denominator, over GF(p) the residues themselves
        over 1."""
        if self.modulus is not None:
            return values, 1
        d = lcm(*[v.denominator for v in values])
        if d == 1:
            return [v.numerator for v in values], 1
        return [v.numerator * (d // v.denominator) for v in values], d

    def combine_row(self, a, xs, f, ys, d=1) -> list:
        """The integer row (a*xs - f*ys) / d, as far as the shorter of xs and
        ys. Over Q the division must be exact, as in fraction-free
        elimination; over GF(p) it is by the inverse of d."""
        p = self.modulus
        if p is None:
            return [(a * x - f * y) // d for x, y in zip(xs, ys)]
        if a == 1 and d == 1:
            return [(x - f * y) % p for x, y in zip(xs, ys)]
        c = self.inverse(d)
        a, f = a * c % p, f * c % p
        return [(a * x - f * y) % p for x, y in zip(xs, ys)]

    def pivot_row(self, xs, i) -> tuple[list[int], int]:
        """The integer row xs with its entry i made the pivot later steps
        divide by, and that pivot: over Q the row as it is, over GF(p) the
        row scaled so that the pivot is 1."""
        if self.modulus is None:
            return xs, xs[i]
        return self.scale_row(self.inverse(xs[i]), xs), 1

    def quotient(self, x, d):
        """The raw value of x over the nonzero d, as quotients gives it."""
        return self.quotients((x,), d)[0]

    def quotients(self, xs, d) -> list:
        """The raw values of the row xs over the nonzero d; over Q an int
        where the quotient is whole, else a Fraction. The kernels pass
        integers; the matrix-vector product passes row sums, which are
        Fractions where the matrix holds Fractions; inverse passes 1 over a
        raw value."""
        if self.modulus is None:
            return [x // d if x % d == 0 else Fraction(x, d) for x in xs]
        return xs if d == 1 else self.scale_row(self.inverse(d), xs)

    def zero(self) -> Scalar:
        return Scalar._make(self, 0)

    def one(self) -> Scalar:
        return Scalar._make(self, 1)

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    """The prime field with p elements."""
    return FieldSpec(p)


class Scalar:
    """One field element: its field and its raw value, as FieldSpec.raw
    gives it."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int | Fraction):
        self.spec = spec
        self.value = spec.raw(value)

    @staticmethod
    def _make(spec: FieldSpec, value) -> Scalar:
        # internal fast path: value is already canonical for spec
        s = Scalar.__new__(Scalar)
        s.spec = spec
        s.value = value
        return s

    def _check(self, other: Scalar) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatchError(f"cannot mix {self.spec} and {other.spec}")

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar._make(self.spec, self.spec.raw(self.value + other.value))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar._make(self.spec, self.spec.raw(self.value - other.value))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar._make(self.spec, self.spec.raw(self.value * other.value))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inv()

    def __neg__(self) -> Scalar:
        return Scalar._make(self.spec, self.spec.raw(-self.value))

    def inv(self) -> Scalar:
        if not self.value:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return Scalar._make(self.spec, self.spec.inverse(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.spec == other.spec and self.value == other.value

    def __hash__(self):
        return hash((self.spec, self.value))

    def __str__(self) -> str:
        return format_values((self.value,))[0]

    def __repr__(self) -> str:
        return f"Scalar({self.spec}, {self})"


def parse_value(text: str, field: FieldSpec):
    """The raw value of an integer or "a/b" literal in the field.

    Over GF(p) a fraction literal means a times the inverse of b; a
    denominator divisible by p is rejected with ZeroDivisionError, as is a
    literal zero denominator. A number longer than the interpreter's int
    digit limit raises its ValueError: reading one takes quadratic time.
    """
    # ASCII only: int() alone also takes `+1`, `1_0`, ` 7` and non-ASCII digits
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        value = int(text)
        return value if field.modulus is None else value % field.modulus
    m = _FRACTION.fullmatch(text)
    if m is None:
        raise ParseError(f"malformed scalar literal {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in literal {text!r}")
    return field.raw(Fraction(num, den))


def format_values(values) -> list[str]:
    """The literal of each raw value: `n`, or `n/d` in lowest terms, as
    parse_value reads it. Zeros, most of a null basis, skip the str call."""
    return [str(v) if v else "0" for v in values]


def parse_scalar(text: str, spec: FieldSpec) -> Scalar:
    """Parse an integer or "a/b" literal into a canonical Scalar (see
    parse_value)."""
    return Scalar._make(spec, parse_value(text, spec))


def as_raw(value, spec: FieldSpec):
    """The raw value of an int, Fraction, literal string, or Scalar of the
    field."""
    if isinstance(value, Scalar):
        if value.spec is not spec and value.spec != spec:
            raise FieldMismatchError(f"scalar in {value.spec} used in {spec}")
        return value.value
    if isinstance(value, str):
        return parse_value(value, spec)
    return spec.raw(value)


def as_scalar(value, spec: FieldSpec) -> Scalar:
    """Coerce an int, Fraction, literal string, or Scalar into the field."""
    return Scalar._make(spec, as_raw(value, spec))
