"""RREF by a left-to-right column sweep, with one journal per column.

Each column is classified against the keeper columns to its left: a column
inside their span is subordinate and journaled with its unique combination
coefficients, while a column outside the span becomes the next keeper and is
journaled with the next standard basis vector. The journals, concatenated in
column order, are exactly the reduced row echelon form, so no row operation
is ever performed. The keeper columns of the input form a basis (the Gauche
basis) for its column space, indexed by the pivot set.

Every sweep reads one lazy generator of the answers, in column order. Over
Q three questions have a modular shortcut, _keepers (which columns a sweep
keeps), _consistent (is the last column in the span of the others) and
_reader_rref (the RREF that the readers of a whole RREF take), and in it
each prime has one job. The sweep of the image mod a prime P only proposes
coefficients, for _consistent and _reader_rref, and only where _imaged
says it pays; only this module knows of that image. A packed loop mod a
second prime q proves rank (_independent):
that the first columns put to _keepers are its keepers, and that the
keepers of _reader_rref's R are independent. The exact product proves
values, and when none of them settles the question the exact sweep
answers. An RREF laid out from the image is taken only through _certified,
the paper's uniqueness theorem as a check: if R is in RREF, M = M_K·R, and
the keeper columns M_K are independent, then R is the RREF of M.
"""
from __future__ import annotations

__all__ = ["GaucheResult", "Keeper", "KeeperState", "LLQAnswer", "Subordinate", "gauche_rref"]

from itertools import compress, count
from math import isqrt
from operator import mul

from .errors import FieldMismatchError, ShapeError
from .matrices import Matrix, Vector
from .rowops import rref_violation
from .scalars import QQ, FieldSpec, Frozen, Scalar


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

    The leading slots are pairwise distinct. A candidate is eliminated
    against every keeper in turn; past the last one it lies in the keeper
    span exactly when its residual is zero.

    Over Q a column enters as an integer vector: its raw values times its
    scale λ, the least common denominator. A keeper row u_k is a residual
    and nothing more, compacted: the lead slot of every earlier keeper is
    deleted from it, and so is its own, whose entry, the Bareiss pivot
    p_k, goes beside it with the scale λ_k. Against keeper k a candidate
    w records f_k = w[lead_k], deletes that slot, and is eliminated
    fraction-free (Bareiss): w <- (p_k*w - f_k*u_k) / p_{k-1}, with p_{-1}
    = 1. The deleted slot would be 0 in both rows after that step, and
    every division is exact, each entry being then a minor of the scaled
    columns. When the candidate is admitted as keeper i, its f_k joins,
    as F_ik, the factors kept beside each earlier keeper k's row.

    A subordinate's coefficients come from one fraction-free
    back-substitution. With K keepers and p = p_{K-1},
    y_k = (f_k*p - sum over i > k of F_ik*y_i) / p_k, from k = K-1 down,
    and the coefficient over keeper column k is y_k*λ_k / (p*λ). Each
    step is linear, so f_k is the sum over the keepers i of y_i/p times
    what keeper i's scaled column holds at that slot after step k-1: p_k
    for i = k, F_ik after it and 0 before it. And p is the minor of the
    scaled keeper columns at their lead slots, so by Cramer's rule y_k, p
    times the coefficient over the scaled keeper column k, is a minor too:
    an integer, and each division is exact.

    Over GF(p) a row carries, after its dim residual entries, coefficients
    over the original keeper columns: for a keeper row the residual plus
    that combination is zero, and past the last keeper the rest of a
    subordinate are its coefficients. Every row is packed into one int
    (see FieldSpec). A keeper row holds the least residues of its
    eliminated candidate, unscaled, and p - 1 as its own coefficient;
    beside it go the inverse of its pivot a_k = u_k[lead_k] and the shift
    lead_k * w of that slot. Against keeper k the candidate takes one
    multiply-add, w <- w + (p - f)*u_k with f = w[lead_k] / a_k, reduced
    mod p; f and every slot of u_k are least residues and at most dim
    keepers fit, so slot_bits(dim) bounds every slot. The candidate is
    unpacked and reduced once, after the last keeper, and a new keeper row
    is packed once, from that reduced row.

    One forward pass, O(dim * keepers), settles the question, and over Q
    a subordinate's back-substitution takes O(keepers**2) more. The
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
        field, keepers, p = self.field, self._keepers, self.field.modulus
        if p is None:
            # the residual of the scaled column, one slot shorter per keeper
            work, scale = field.clear(values)
            factors, prev = [], 1
            for lead, pivot, u, _, _ in keepers:
                factor = work.pop(lead)
                factors.append(factor)
                if factor or pivot != prev:
                    work = [(pivot * x - factor * y) // prev for x, y in zip(work, u)]
                prev = pivot
            lead = next(compress(count(), work), None)
            if lead is None:
                # y_k from the last keeper down: ys and below both run over
                # the keepers i > k in order
                ys: list[int] = []
                coefficients: list[int] = []
                for (_, pivot, _, lam, below), f in zip(reversed(keepers), reversed(factors)):
                    y = (f * prev - sum(map(mul, below, ys))) // pivot
                    ys.insert(0, y)
                    coefficients.insert(0, y * lam)
                return tuple(field.quotients(coefficients, prev * scale))
            for (*_, below), factor in zip(keepers, factors):
                below.append(factor)
            keepers.append((lead, work.pop(lead), work, scale, []))
            return None
        # the residual of the column against the reduced keepers, followed by
        # the coefficients of the eliminated part
        dim, w = self.dim, self._bits
        packed, mask = field.pack(values, w), (1 << w) - 1
        for shift, inv, u in keepers:
            f = (packed >> shift & mask) * inv % p
            if f:
                packed += (p - f) * u
        work = field.unpack(packed, dim + len(keepers), w)
        # range(dim) stops the search at the residual: coefficients follow it
        lead = next(compress(range(dim), work), None)
        if lead is None:
            return tuple(work[dim:])
        # the keeper's own coefficient, -1, cancels its eliminated column
        work.append(p - 1)
        keepers.append((lead * w, field.inverse(work[lead]), field.pack(work, w)))
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


def _rational(u: int, m: int):
    """A candidate raw Q value a/b with a = u*b mod m and |a|, b <= sqrt(m/2),
    or ArithmeticError when the numbers leave that bound: rational
    reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 16 (1982)), the
    extended Euclidean algorithm on m and u stopped at the first remainder
    within the bound. Such an a/b is unique, but u need not be the residue
    of the true value, so each caller checks the candidate exactly:
    _reader_rref by the certificate, _consistent by the product."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        raise ArithmeticError(f"{u} has no rational reconstruction mod {m}")
    return QQ.quotient(r1, t1)


def _answers(m: Matrix, js, field: FieldSpec | None = None):
    """The answers of one sweep to columns js (1-based) of m, lazily and in
    order, as KeeperState.eliminate gives them. The sweep runs over m's
    field, or over the image of a Q matrix in `field`: each column is taken
    there only when the sweep reaches it, and a denominator the modulus
    divides raises ZeroDivisionError then."""
    # the state takes its shape from m, so its columns need no check
    values, cols = m.values, m.cols
    columns = (values[j - 1 :: cols] for j in js)
    if field is not None:
        columns = (_residues(column, field) for column in columns)
    return map(KeeperState(field or m.field, m.rows).eliminate, columns)


def _residues(values, field: FieldSpec) -> list[int]:
    """The residues in GF(p) of raw Q values: an int is reduced inline, the
    rest go through field.raw."""
    p, raw = field.modulus, field.raw
    return [v % p if type(v) is int else raw(v) for v in values]


def _laid_out(m: Matrix, answers) -> GaucheResult:
    """Write each answer of a sweep of m's columns into its column of the
    RREF: the (l+1)th keeper journals as e_{l+1}, a subordinate column as
    its coefficients over the keepers, zero below."""
    dim, cols = m.rows, m.cols
    values = [0] * (dim * cols)
    pivots: list[int] = []
    for j, coefficients in enumerate(answers):
        if coefficients is None:
            values[len(pivots) * cols + j] = 1
            pivots.append(j + 1)
        else:
            values[j : len(coefficients) * cols : cols] = coefficients
    return GaucheResult(Matrix._raw(dim, cols, tuple(values), m.field), tuple(pivots))


def gauche_rref(m: Matrix) -> GaucheResult:
    """Sweep the columns once, left to right, and write each journal into
    its column of the RREF."""
    return _laid_out(m, _answers(m, range(1, m.cols + 1)))


def _imaged(m: Matrix) -> bool:
    """Is the GF(P) image tried on m: is m a Q matrix of at least 16 rows?

    The one gate of the image's two readers, _reader_rref and _consistent.
    Below 16 rows the image sweep, the reconstruction and the exact check
    that follows cost about as much as the exact sweep they would spare,
    or more. Measured in process (Python 3.11.7, a shared 2-vCPU machine):
    on the 10x10 differing syseq pairs of perfbench's q-systems corpus
    (seeds 1-3), _consistent took 0.11-0.15 ms through the image against
    0.11-0.16 ms for the exact sweep, and on generic 8- to 15-row integer
    systems 1.1-2.1 times the exact sweep. The shape that loses by it is a
    system far wider than tall whose solution reconstructs: on 10x100 of
    rank 3 with entries in -5..5 the image took 0.45-0.72 times the exact
    sweep (with entries in -50..50, 1.5 times).
    """
    return m.field.modulus is None and m.rows >= 16


def _reader_rref(m: Matrix) -> GaucheResult:
    """The RREF that null, graph, solve, syseq and null_equal read:
    gauche_rref's, or over Q the same R laid out from the GF(P) sweep.

    That sweep's keepers journal as e_k, and each subordinate coefficient
    is reconstructed as a rational from its residue (_rational). The R so
    laid out is taken only when _certified proves it the RREF of m, so no
    output depends on P; when a coefficient has no reconstruction, which
    stops the image sweep at its column, or the certificate refuses R, the
    exact sweep answers. Past _imaged, the image is tried only where its
    certificate was measured to pay: integer entries (an a/b entry costs a
    modular inverse in the image and Fractions in the product check), and
    at most twice as many columns as rows (wider, a right-hand side that
    does not reconstruct pays for both routes).
    """
    if _imaged(m) and m.cols <= 2 * m.rows and all(type(v) is int for v in m.values):
        answers = _answers(m, range(1, m.cols + 1), _IMAGE)
        try:
            res = _laid_out(m, (a if a is None else [_rational(u, P) for u in a] for a in answers))
        except ArithmeticError:
            return gauche_rref(m)
        if _certified(m, res):
            return res
    return gauche_rref(m)


# The certificate's prime: below 2**28, as P is, and apart from it, so that
# a fault tied to the image's prime cannot hide in the certificate.
_CHECK = FieldSpec(268435367)


def _certified(m: Matrix, res: GaucheResult) -> bool:
    """Is res.rref the RREF of m, with res.pivot_set its pivots?

    The paper's uniqueness theorem as a check that trusts neither
    elimination route. If R is in RREF, m = m_K·R, and the keeper columns
    m_K have full column rank, R is the RREF of m. Shape: R has m's shape,
    passes the RREF validator (rref_violation), and leads its rows at K, so
    R is the identity at K, zero below its rank, and no free column has a
    nonzero coefficient on a keeper to its right. Product: m = m_K·R holds
    exactly on every free column (_factors_through). Rank: m_K has full
    column rank modulo a second prime, by its own packed elimination
    W += (q - f)·U, not by a sweep; a rank that drops mod q only refuses R.
    """
    rref, pivots = res.rref, res.pivot_set
    if (rref.rows, rref.cols) != (m.rows, m.cols) or rref_violation(rref) is not None:
        return False
    leads = tuple(next(compress(count(1), row)) for row in rref.raw_rows() if any(row))
    return leads == pivots and _factors_through(res, m) and _independent(m, pivots)


def _independent(m: Matrix, js) -> bool:
    """Do columns js of m have full column rank mod _CHECK's prime q?

    Each column is reduced against the rows kept so far, one multiply-add
    W += (q - f)·U each, packed as KeeperState packs a GF(p) row but with
    no coefficients; a column that reduces to zero is a rank drop. Over Q
    True proves full column rank: a minor nonzero mod q is nonzero over Q,
    so rank can only drop mod q. Its two readers, _certified and _keepers,
    take False as no proof, and a denominator q divides raises
    ZeroDivisionError.
    """
    field, rows = _CHECK, m.rows
    q, w = field.modulus, field.slot_bits(len(js))
    mask, kept = (1 << w) - 1, []
    for j in js:
        packed = field.pack(_residues(m.values[j - 1 :: m.cols], field), w)
        for shift, inv, u in kept:
            f = (packed >> shift & mask) * inv % q
            if f:
                packed += (q - f) * u
        residues = field.unpack(packed, rows, w)
        lead = next(compress(range(rows), residues), None)
        if lead is None:
            return False
        kept.append((lead * w, field.inverse(residues[lead]), field.pack(residues, w)))
    return True


def _factors_through(res: GaucheResult, m: Matrix) -> bool:
    """Does m kill the null space of the matrix swept as res: m = m_K·R, R
    res's RREF and m_K m's columns at its pivots? R's pivot columns are unit
    vectors, so only its free columns are tested, the last one (an
    augmented right-hand side) first: m's column n must equal m_K times
    journal n. With no pivots, m must be zero."""
    pivots, rref, field = res.pivot_set, res.rref, m.field
    if not pivots:
        return not any(m.values)
    m_k, kept, cols, rank = m.take_columns(pivots), set(pivots), rref.cols, len(pivots)
    return all(
        m_k @ Vector._raw(rref.values[n - 1 : rank * cols : cols], field) == m.column(n)
        for n in range(cols, 0, -1)
        if n not in kept
    )


def _keepers(m: Matrix, js) -> tuple[int, ...]:
    """The columns among js (1-based) that a sweep of them alone keeps.

    The sweep keeps every column independent of the keepers before it, and
    at most rows of them, so when the first min(rows, len(js)) columns are
    independent, they are the keepers. Over Q the certificate's rank loop
    (_independent) settles that without the exact sweep. When their rank
    drops mod q, or q divides a denominator, and over GF(p), the exact
    sweep runs.
    """
    js = tuple(js)
    if m.field.modulus is None:
        try:
            if _independent(m, js[: m.rows]):
                return js[: m.rows]
        except ZeroDivisionError:
            pass
    return tuple(j for j, answer in zip(js, _answers(m, js)) if answer is None)


def _consistent(aug: Matrix) -> bool:
    """Is the last column of aug in the span of the others?

    When aug is _imaged, the GF(P) sweep of all columns proposes x, read in
    column order: 0 at each image subordinate, the next of the last
    column's coefficients, reconstructed as a rational, at each image
    keeper, and -1 last; aug x = 0 proves the span, so no verdict depends
    on P. When the image proposes no x (the last column is an image keeper,
    P divides a denominator, or a coefficient has no reconstruction:
    ArithmeticError) or aug x is not zero, and on any other aug, the exact
    sweep decides.
    """
    columns = range(1, aug.cols + 1)
    if _imaged(aug):
        try:
            *answers, coefficients = _answers(aug, columns, _IMAGE)
            if coefficients is not None:
                c = iter(coefficients)
                x = [_rational(next(c), P) if answer is None else 0 for answer in answers] + [-1]
                if (aug @ Vector._raw(tuple(x), aug.field)).is_zero():
                    return True
        except ArithmeticError:
            pass
    *_, answer = _answers(aug, columns)
    return answer is not None
