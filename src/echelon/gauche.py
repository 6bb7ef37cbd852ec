"""RREF by a left-to-right column sweep, with one journal per column.

Each column is classified against the keeper columns to its left: a column
inside their span is subordinate and journaled with its unique combination
coefficients, while a column outside the span becomes the next keeper and is
journaled with the next standard basis vector. The journals, concatenated in
column order, are exactly the reduced row echelon form, so no row operation
is ever performed. The keeper columns of the input form a basis (the Gauche
basis) for its column space, indexed by the pivot set.
"""
from __future__ import annotations

from itertools import compress

from .errors import FieldMismatchError, ShapeError
from .matrices import Matrix, Vector
from .scalars import FieldSpec, Frozen, Scalar


class Keeper(Frozen):
    """The column lies outside the span of the keepers to its left."""

    __slots__ = ()


class Subordinate(Frozen):
    """The column equals the keeper combination with these coefficients,
    held as raw values of the field."""

    __slots__ = ("values", "field")

    def __init__(self, values: tuple, field: FieldSpec):
        self._freeze(values, field)

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return tuple(Scalar._raw(self.field, v) for v in self.values)


LLQAnswer = Keeper | Subordinate


class KeeperState:
    """Keeper columns admitted so far, as one record per keeper: its
    leading slot (over GF(p) as a bit shift, with the inverse of its pivot)
    and its eliminated row, never written after admission.

    The leading slots are pairwise distinct. After its dim residual entries
    a row carries coefficients over the original keeper columns: for a
    keeper row the residual plus that combination is zero. A candidate is
    eliminated against every keeper in turn; past the last one it lies in
    the keeper span exactly when its residual is zero, and the rest are its
    coefficients.

    Over Q a column enters as an integer vector: its raw values times its
    scale, the least common denominator. Keeper row u_k has pivot p_k =
    u_k[lead_k], and a candidate w is eliminated against keeper k
    fraction-free (Bareiss): w <- (p_k*w - w[lead_k]*u_k) / p_{k-1}, with
    p_{-1} = 1, where every division is exact. Past the last
    keeper, with pivot p, the residual plus the combination is p times the
    scaled candidate, so the coefficients are the rest divided by p times
    the scale.

    Over GF(p) every row is packed into one int (see FieldSpec). A keeper
    row holds the least residues of its eliminated candidate, unscaled, and
    p - 1 as its own coefficient; beside it go the inverse of its pivot
    a_k = u_k[lead_k] and the shift lead_k * w of that slot. Against keeper
    k the candidate takes one multiply-add, w <- w + (p - f)*u_k with f =
    w[lead_k] / a_k, reduced mod p; f and every slot of u_k are least
    residues and at most dim keepers fit, so slot_bits(dim) bounds every
    slot. The candidate is unpacked and reduced once, after the last
    keeper, and a new keeper row is packed once, from that reduced row.

    One forward pass, O(dim * keepers), settles the question. The
    coefficients are unique because the keeper set stays linearly
    independent by construction: a column is only admitted when it falls
    outside the current span. No Scalar is made.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._keepers: list[tuple] = []
        self._bits = None if field.modulus is None else field.slot_bits(dim)

    def llq(self, col: Vector) -> LLQAnswer:
        """Can this column be written over the keepers to its left?

        With no keepers yet the span is the zero space, so the answer is
        Subordinate((), field) exactly when the column is zero. A Keeper answer
        also admits the column as the next keeper, so a sweep eliminates
        each column once.
        """
        if col.dim != self.dim:
            raise ShapeError(f"column of dimension {col.dim}, keeper state expects {self.dim}")
        if col.field != self.field:
            raise FieldMismatchError(f"column in {col.field} against a {self.field} state")
        coefficients = self.eliminate(col.values)
        return Keeper() if coefficients is None else Subordinate(coefficients, self.field)

    def eliminate(self, values) -> tuple | None:
        """llq on a column of dim raw values of the field, unchecked: None
        when the column is admitted as the next keeper, else the tuple of its
        coefficients over the keepers."""
        # the residual of the (scaled) column against the reduced keepers,
        # followed by the coefficients of the eliminated part
        field, dim, p, w = self.field, self.dim, self.field.modulus, self._bits
        if p is None:
            work, scale = field.clear(values)
            work += [0] * len(self._keepers)
            prev = 1
            for lead, u in self._keepers:
                factor, pivot = work[lead], u[lead]
                if factor or pivot != prev:
                    # u stops at its own keeper's coefficient; later ones stay 0
                    work[: len(u)] = [(pivot * x - factor * y) // prev for x, y in zip(work, u)]
                prev = pivot
            scale *= prev
        else:
            packed, mask = field.pack(values, w), (1 << w) - 1
            for shift, inv, u in self._keepers:
                f = (packed >> shift & mask) * inv % p
                if f:
                    packed += (p - f) * u
            work, scale = field.unpack(packed, dim + len(self._keepers), w), 1
        # range(dim) stops the search at the residual: coefficients follow it
        lead = next(compress(range(dim), work), None)
        if lead is None:
            return tuple(work[dim:] if scale == 1 else field.quotients(work[dim:], scale))
        # the keeper's own coefficient, -scale over Q and -1 over GF(p),
        # cancels its eliminated column
        if p is None:
            self._keepers.append((lead, work + [-scale]))
        else:
            work.append(p - 1)
            self._keepers.append((lead * w, field.inverse(work[lead]), field.pack(work, w)))
        return None


class GaucheResult(Frozen):
    """The RREF and its pivot set. The journals are not stored apart: they
    are the RREF's columns, in order."""

    __slots__ = ("rref", "pivot_set")

    def __init__(self, rref: Matrix, pivot_set: tuple[int, ...]):
        self._freeze(rref, pivot_set)

    @property
    def journals(self) -> tuple[Vector, ...]:
        return tuple(self.rref.column(n) for n in range(1, self.rref.cols + 1))


# The prime of the GF(P) image of a Q matrix. Below 2**28 a packed row keeps
# 64-bit slots for up to 256 keepers (FieldSpec.slot_bits).
P = 268435399
_IMAGE = FieldSpec(P)


def _image_independent(m: Matrix, js) -> bool:
    """True proves columns js (1-based) of the Q matrix m linearly
    independent: their images mod P are. A minor nonzero mod P is nonzero
    over Q, so rank can only drop in the image; False means only "unknown".
    Each column is reduced mod P as the sweep reaches it, and the sweep
    stops at the first column dependent mod P; a denominator P divides
    (ZeroDivisionError) also answers False."""
    eliminate, raw = KeeperState(_IMAGE, m.rows).eliminate, _IMAGE.raw
    values, cols = m.values, m.cols
    try:
        return all(eliminate([raw(v) for v in values[j - 1 :: cols]]) is None for j in js)
    except ZeroDivisionError:
        return False


def gauche_rref(m: Matrix) -> GaucheResult:
    """Sweep the columns once, left to right, and write each journal into
    its column of the RREF: the (l+1)th keeper journals as e_{l+1}, a
    subordinate column as its coefficients over the keepers, zero below."""
    dim, cols, field = m.rows, m.cols, m.field
    # the state takes its shape and field from m, so its columns need no check
    eliminate, entries = KeeperState(field, dim).eliminate, m.values
    values = [0] * (dim * cols)
    pivots: list[int] = []
    for j in range(cols):
        coefficients = eliminate(entries[j::cols])
        if coefficients is None:
            values[len(pivots) * cols + j] = 1
            pivots.append(j + 1)
        else:
            values[j : len(coefficients) * cols : cols] = coefficients
    return GaucheResult(Matrix._raw(dim, cols, tuple(values), field), tuple(pivots))


def _pivot_set(m: Matrix) -> tuple[int, ...]:
    """The pivot set of m, as gauche_rref gives it. The greedy sweep keeps
    every column independent of the keepers to its left, so when the first
    r = min(rows, cols) columns of a Q matrix are independent, the keepers
    are 1..r and the rank is full: their GF(P) image settles that without
    the exact sweep. Otherwise, and over GF(p), the sweep runs."""
    r = min(m.rows, m.cols)
    if m.field.modulus is None and _image_independent(m, range(1, r + 1)):
        return tuple(range(1, r + 1))
    return gauche_rref(m).pivot_set
