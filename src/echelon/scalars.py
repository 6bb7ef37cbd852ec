"""Exact scalars over the rationals or a prime field GF(p).

Every field element has one form, its raw value: over Q an int, or a
reduced Fraction where the value is not an integer; over GF(p) the least
nonnegative residue. FieldSpec.raw puts an int or a Fraction in that form,
and FieldSpec.quotients an integer quotient; as_raw is the one coercion of
an int, Fraction, literal or Scalar to a raw value. Mixing values from
different fields raises FieldMismatchError rather than coercing.

Scalar is the type at the API boundary: one raw value with its field, an
immutable value like every class built on Frozen. Everything else works on
raw values. Through the row arithmetic on FieldSpec the elimination kernels
hold a row over Q as integers over a denominator, and over GF(p) as one
packed int whose fixed-width slots are reduced mod p only when read.
Literals are read by parse_value and written by format_values; every input
format reads its lines through data_lines.
"""
from __future__ import annotations

import sys
from functools import cache
from math import lcm
from operator import add, mul, sub

from .errors import FieldMismatchError, ParseError

# typecodes by item size: packed slots of 1, 2, 4 or 8 bytes convert in
# one call; on a big-endian machine every width takes the byte path
_SLOT_CODES = {memoryview(bytes(8)).cast(c).itemsize: c for c in "QIHB"}
if sys.byteorder != "little":
    _SLOT_CODES = {}


def Fraction(numerator, denominator=None):
    """fractions.Fraction, imported by the first call, which rebinds this
    name to the class: a run that never makes a non-integer never loads
    `fractions`, nor the `re`, `enum` and `decimal` it imports."""
    global Fraction
    from fractions import Fraction

    return Fraction(numerator, denominator)


# Miller-Rabin with the primes 2..41 as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, memoized per modulus; raises ValueError
    for n at or above _MR_BOUND, where these bases no longer decide
    primality. FieldSpec rejects a non-int before asking, so the memo,
    which keys 7.0 like 7, never answers for a float."""
    if n >= _MR_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is only decided below {_MR_BOUND}")
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


_set = object.__setattr__  # writes a field past Frozen.__setattr__
_new = object.__new__


class Frozen:
    """Base of the immutable value classes. A subclass names its fields in
    __slots__; its __init__ checks the arguments and sets each field once
    with _freeze, and _raw, one generic loop for every class, builds an
    instance unchecked. Equality, hash and the Name(field=value, ...) repr
    follow the class and the fields; fields are read-only, and pickling
    goes through the constructor."""

    __slots__ = ()

    @classmethod
    def _raw(cls, *values):
        obj = _new(cls)
        for name, value in zip(cls.__slots__, values):
            _set(obj, name, value)
        return obj

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class FieldSpec(Frozen):
    """Names the field scalars live in: GF(p) for a prime modulus p, the
    rationals for modulus None."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None):
        if modulus is not None and not isinstance(modulus, int):
            raise TypeError(f"modulus must be an int or None, got {type(modulus).__name__}")
        if modulus is not None and not _is_prime(modulus):
            raise ValueError(f"modulus must be a prime, got {modulus!r}")
        self._freeze(modulus)

    def raw(self, value):
        """The raw value of an int or a Fraction: over Q an int where the
        value is whole, else the Fraction; over GF(p) its least residue, a/b
        meaning a times the inverse of b."""
        p = self.modulus
        if isinstance(value, int):
            return int(value) if p is None else value % p
        # no Fraction exists before `fractions` is loaded
        fractions = sys.modules.get("fractions")
        if fractions is None or not isinstance(value, fractions.Fraction):
            raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")
        if p is None:
            return value.numerator if value.denominator == 1 else value
        if value.denominator % p == 0:
            raise ZeroDivisionError(f"denominator {value.denominator} vanishes in {self}")
        return value.numerator * pow(value.denominator, -1, p) % p

    # Raw-value arithmetic shared by the elimination kernels. Over Q the
    # kernels hold a row as integers xs over a denominator d, standing for
    # the raw row xs / d, and eliminate fraction-free. Over GF(p) they hold
    # a row packed into one nonnegative int: entry j is the slot of w bits
    # at bit w*j, standing for its residue mod p. A row update W + c*U, with
    # c and the slots of U least residues, adds at most (p-1)**2 to a slot,
    # so slots are reduced only when read; slot_bits picks w so that no
    # slot reaches 2**w first.

    def inverse(self, a):
        """The inverse of the nonzero raw value a."""
        if self.modulus is None:
            return self.quotient(1, a)
        return pow(a, -1, self.modulus)

    def scale_row(self, c, xs) -> list:
        """Over GF(p), the raw row c*xs."""
        p = self.modulus
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

    def slot_bits(self, updates: int) -> int:
        """Over GF(p), the slot width w of packed rows that take at most
        `updates` row updates before a slot is read: the least of 8, 16, 32
        and 64 bits that holds (p-1) + updates*(p-1)**2, else whole bytes."""
        p = self.modulus
        bits = ((p - 1) * (1 + updates * (p - 1))).bit_length()
        return next((w for w in (8, 16, 32, 64) if bits <= w), -(-bits // 8) * 8)

    def pack(self, xs, w: int) -> int:
        """The row of least residues xs packed into w-bit slots."""
        # imported on first use, so that starting the CLI does not load it
        import array

        size = w // 8
        code = _SLOT_CODES.get(size)
        if code is None:
            return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in xs]), "little")
        return int.from_bytes(array.array(code, xs), "little")

    def unpack(self, packed: int, n: int, w: int) -> list[int]:
        """The least residues of the first n slots of a packed row."""
        p, size = self.modulus, w // 8
        data = packed.to_bytes(n * size, "little")
        code = _SLOT_CODES.get(size)
        if code is None:
            slots = [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]
        else:
            slots = memoryview(data).cast(code)
        return [x % p for x in slots]

    def quotient(self, x, d):
        """Over Q, the raw value of x over the nonzero d, as quotients gives
        it."""
        return self.quotients((x,), d)[0]

    def quotients(self, xs, d) -> list:
        """Over Q, the raw values of the row xs over the nonzero d: an int
        where the quotient is whole, else a Fraction. The kernels pass
        integers; the matrix-vector product passes row sums, which are
        Fractions where the matrix holds Fractions; inverse passes 1 over a
        raw value."""
        return [x // d if x % d == 0 else Fraction(x, d) for x in xs]

    def zero(self) -> Scalar:
        return Scalar._raw(self, 0)

    def one(self) -> Scalar:
        return Scalar._raw(self, 1)

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    """The prime field with p elements."""
    return FieldSpec(p)


class Scalar(Frozen):
    """One field element: its field and its raw value, as FieldSpec.raw
    gives it."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int | Fraction):
        self._freeze(spec, spec.raw(value))

    def _field_op(self, other, op):
        """op on the two raw values, as an element of the common field."""
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatchError(f"cannot mix {self.spec} and {other.spec}")
        return Scalar._raw(self.spec, self.spec.raw(op(self.value, other.value)))

    def __add__(self, other):
        return self._field_op(other, add)

    def __sub__(self, other):
        return self._field_op(other, sub)

    def __mul__(self, other):
        return self._field_op(other, mul)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inv()

    def __neg__(self) -> Scalar:
        return Scalar._raw(self.spec, self.spec.raw(-self.value))

    def inv(self) -> Scalar:
        if not self.value:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return Scalar._raw(self.spec, self.spec.inverse(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self) -> bool:
        return bool(self.value)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.spec}, {self})"


def text_lines(text: str) -> list[str]:
    """The lines of text, broken only at LF, CRLF and CR, unlike str.splitlines."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def data_lines(text: str):
    """(line number, line) for each line of text that holds data, the line
    stripped of its `#` comment and surrounding whitespace."""
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


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
    # otherwise an optional '-', digits, '/' and more digits, all ASCII
    num, _, den = text.partition("/")
    if not (text.isascii() and num.removeprefix("-").isdigit() and den.isdigit()):
        raise ParseError(f"malformed scalar literal {text!r}")
    num, den = int(num), int(den)
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in literal {text!r}")
    if field.modulus is None:
        return field.raw(Fraction(num, den))
    if den % field.modulus == 0:
        raise ZeroDivisionError(f"denominator {den} vanishes in {field}")
    return num * pow(den, -1, field.modulus) % field.modulus


def format_values(values) -> list[str]:
    """The literal of each raw value: `n`, or `n/d` in lowest terms, as
    parse_value reads it. Zeros, most of a sparse row, skip the str call."""
    return [str(v) if v else "0" for v in values]


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
    return Scalar._raw(spec, as_raw(value, spec))
