"""Exact scalars over the rationals or a prime field GF(p).

Every field element has one form, its raw value: over Q an int, or a
reduced Fraction where the value is not an integer; over GF(p) the least
nonnegative residue. FieldSpec.raw puts an int or a Fraction in that form,
and FieldSpec.quotient is the one division of raw values, in both fields:
a/b over Q, a times the inverse of b over GF(p). as_raw is the one coercion
of an int, Fraction, literal or Scalar to a raw value. Mixing values from
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

__all__ = ["GF", "QQ", "FieldSpec", "Scalar", "as_scalar"]

import sys
from math import lcm
from operator import add, mul, sub

from .errors import FieldMismatchError, ParseError


class _Memo(dict):
    """fn's value at each key, computed when the key is first missed: a hit
    is a dict lookup, at C speed through `memo.__getitem__`, and fn is called
    once per distinct key. A failing call stores nothing."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# struct codes by slot size: packed slots of 1, 2, 4 or 8 bytes convert in
# one call, on a machine of either byte order
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _struct(key: tuple[int, int]):
    """The struct.Struct of n little-endian unsigned slots of size bytes,
    for key (n, size); only packed rows import `struct`."""
    import struct

    n, size = key
    return struct.Struct(f"<{n}{_SLOT_CODES[size]}")


# one Struct per row length and slot size: rows of different lengths
# never share one
_STRUCTS = _Memo(_struct)


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


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n at or above
    _MR_BOUND, where these bases no longer decide primality. FieldSpec asks
    through _PRIMES, its memo, and rejects a non-int first, so the memo,
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


_PRIMES = _Memo(_is_prime)  # modulus -> primality, decided once per modulus

_set = object.__setattr__  # writes a field past Frozen.__setattr__
_new = object.__new__


class Frozen:
    """Base of the immutable value classes. A class's fields, _names, are
    its base's fields followed by its own __slots__, gathered once when the
    class is made: a subclass's __slots__ lists only the fields it adds,
    `()` for none. Its __init__ checks the arguments and sets each field
    once with _freeze; _raw builds an instance unchecked. Equality, hash and
    the Name(field=value, ...) repr follow the class and the fields; fields
    are read-only, and pickling goes through the constructor, which takes
    the fields in order."""

    __slots__ = ()
    _names = ()

    def __init_subclass__(cls):
        cls._names += vars(cls).get("__slots__", ())

    @classmethod
    def _raw(cls, *values):
        obj = _new(cls)
        obj._freeze(*values)
        return obj

    def _freeze(self, *values) -> None:
        for name, value in zip(self._names, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
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
        if modulus is not None and not _PRIMES[modulus]:
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
        return self.quotient(value.numerator, value.denominator)

    # Raw-value arithmetic shared by the elimination kernels. Over Q the
    # kernels hold a row as integers xs over a denominator d, standing for
    # the raw row xs / d, and eliminate fraction-free. Over GF(p) they hold
    # a row packed into one nonnegative int: entry j is the slot of w bits
    # at bit w*j, standing for its residue mod p. A row update W + c*U, with
    # c and the slots of U least residues, adds at most (p-1)**2 to a slot,
    # so slots are reduced only when read; slot_bits picks w so that no
    # slot reaches 2**w first.

    def inverse(self, a):
        """The inverse of the raw value a, quotient(1, a): ZeroDivisionError
        when a is zero."""
        return self.quotient(1, a)

    def clear(self, values) -> tuple[list[int], int]:
        """The list of raw values as an integer row over a denominator: over
        Q the least common denominator, over GF(p) the residues themselves
        over 1. Only a Fraction's properties are read: an int is its own
        numerator over 1."""
        if self.modulus is not None:
            return values, 1
        d = lcm(*[v.denominator for v in values if type(v) is not int])
        if d == 1:
            return list(values), 1
        return [v * d if type(v) is int else v.numerator * (d // v.denominator) for v in values], d

    def slot_bits(self, updates: int) -> int:
        """Over GF(p), the slot width w of packed rows that take at most
        `updates` row updates before a slot is read: the least of 8, 16, 32
        and 64 bits that holds (p-1) + updates*(p-1)**2, else whole bytes."""
        p = self.modulus
        bits = ((p - 1) * (1 + updates * (p - 1))).bit_length()
        return next((w for w in (8, 16, 32, 64) if bits <= w), -(-bits // 8) * 8)

    def pack(self, xs, w: int) -> int:
        """The row of least residues xs packed into w-bit slots."""
        # slots of up to 8 bytes go through one cached Struct per row length
        # and width; wider ones are joined byte by byte
        size = w // 8
        if size not in _SLOT_CODES:
            return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in xs]), "little")
        return int.from_bytes(_STRUCTS[len(xs), size].pack(*xs), "little")

    def unpack(self, packed: int, n: int, w: int) -> list[int]:
        """The least residues of the first n slots of a packed row."""
        p, size = self.modulus, w // 8
        data = packed.to_bytes(n * size, "little")
        if size not in _SLOT_CODES:
            slots = [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]
        else:
            slots = _STRUCTS[n, size].unpack(data)
        return [x % p for x in slots]

    def quotient(self, x, d):
        """The raw value of x over d, the one division of both fields: over Q
        an int where the quotient is whole, else a Fraction; over GF(p) the
        least residue of x times the inverse of d. A d that is zero in the
        field raises ZeroDivisionError, over GF(p) naming d. Over Q, x and d
        may be Fractions: inverse divides 1 by a raw value."""
        p = self.modulus
        if p is None:
            return x // d if x % d == 0 else Fraction(x, d)
        if d % p == 0:
            raise ZeroDivisionError(f"denominator {d} vanishes in {self}")
        return x * pow(d, -1, p) % p

    def quotients(self, xs, d) -> list:
        """[quotient(x, d) for x in xs], the row form: over GF(p) d is
        inverted once."""
        p = self.modulus
        if p is None:
            return [x // d if x % d == 0 else Fraction(x, d) for x in xs]
        c = self.quotient(1, d)
        return [x * c % p for x in xs]

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
        return f"{type(self).__qualname__}({self.spec}, {self})"


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

    An a/b literal is field.quotient(a, b): over GF(p) a times the inverse
    of b, and a denominator divisible by p is rejected with
    ZeroDivisionError, as is a literal zero denominator. A number longer
    than the interpreter's int digit limit raises its ValueError: reading
    one takes quadratic time.
    """
    # an optional '-' and digits, then optionally '/' and more digits, all
    # ASCII: int() alone also takes `+1`, `1_0`, ` 7` and non-ASCII digits
    num, slash, den = text.partition("/")
    if not (text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ParseError(f"malformed scalar literal {text!r}")
    if not slash:
        return field.raw(int(num))
    a, b = int(num), int(den)
    if b == 0:
        raise ZeroDivisionError(f"zero denominator in literal {text!r}")
    return field.quotient(a, b)


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
