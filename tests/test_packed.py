"""The packed GF(p) kernels against the classical loops of tests/helpers.py,
at sizes and entries where a slot takes many updates before it is reduced,
a guard on how often they unpack a row, and FieldSpec.pack and unpack
against the sum they stand for, at every slot width."""
import random

import pytest

from echelon import (
    GF,
    Keeper,
    KeeperState,
    Scale,
    Subordinate,
    apply_ops,
    column_in_span,
    columns_independent,
    gauche_rref,
    gauss_jordan,
)
from echelon import scalars
from echelon.scalars import FieldSpec

from helpers import (
    FIELD_CASES,
    mat,
    random_low_rank_matrix,
    reference_gauss_jordan,
    reference_sweep,
    spy,
)

# a prime just below the bound where primality is decided: its slots need
# 22 bytes, past every fixed-width conversion
BIG_P = 3317044064679887385961813
GF_FIELDS = [case.values[0] for case in FIELD_CASES if case.values[0].modulus] + [GF(BIG_P)]


def uniform(rng, rows, cols, field):
    p = field.modulus
    return mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], field)


def heavy(rows, cols, field):
    """p - 1 off the diagonal and p - 2 on it: every entry near the top of
    its slot, and mostly of full rank."""
    p = field.modulus
    return mat([[(p - 1 - (i == j)) % p for j in range(cols)] for i in range(rows)], field)


def test_big_prime_needs_wide_slots():
    assert GF(BIG_P).slot_bits(1) > 64


def packed_sum(xs, w) -> int:
    """What pack stands for: slot j holds xs[j] at bit w*j."""
    return sum(x << (w * j) for j, x in enumerate(xs))


# the struct widths, then GF(BIG_P)'s own, which takes the byte path
WIDTHS = [8, 16, 32, 64, GF(BIG_P).slot_bits(1)]


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("n", [1, 2, 81, 400])
def test_pack_is_the_sum_and_unpack_reads_it_back(n, w):
    """Rows of all-zero slots, of all 2**w - 1 slots and of random slots
    with both extremes at the ends: pack is the sum of x * 2**(w*j), and
    unpack gives each slot back mod p, unchanged where it is below p."""
    field, top = GF(BIG_P), 2**w - 1
    rng = random.Random(n * w)
    mixed = [rng.randrange(2**w) for _ in range(n)]
    mixed[0], mixed[-1] = top, 0
    for xs in ([0] * n, [top] * n, mixed):
        packed = field.pack(xs, w)
        assert packed == packed_sum(xs, w)
        assert field.unpack(packed, n, w) == [x % BIG_P for x in xs]
    if w <= 64:
        assert field.unpack(field.pack(mixed, w), n, w) == mixed


@pytest.mark.parametrize("w", WIDTHS[:4])
def test_rows_of_other_lengths_share_no_struct(w):
    """Rows of lengths 2, 3 and 2 again at one width, packed in turn: each
    is its own sum and reads back, so no row took another's Struct, and
    each length has a Struct of its own size."""
    field, size = GF(BIG_P), w // 8
    rows = [[1, 2**w - 1], [2**w - 1, 0, 5], [0, 7]]
    for xs in rows:
        assert field.pack(xs, w) == packed_sum(xs, w)
        assert field.unpack(packed_sum(xs, w), len(xs), w) == xs
    two, three = scalars._STRUCTS[2, size], scalars._STRUCTS[3, size]
    assert two is not three
    assert (two.size, three.size) == (2 * size, 3 * size)


@pytest.mark.parametrize("field", GF_FIELDS, ids=str)
def test_packed_kernels_match_the_references(field):
    """Square, wide and tall inputs beyond random_shape's 8x10, products of
    low rank, and all-(p-1) inputs: the sweep gives the reference journals
    and pivots, the oracle the reference op log, reduced form and pivots."""
    rng = random.Random(field.modulus % 10007)
    p = field.modulus
    matrices = [
        uniform(rng, 24, 25, field),
        uniform(rng, 6, 40, field),
        uniform(rng, 40, 6, field),
        random_low_rank_matrix(rng, 24, 25, 9, field),
        random_low_rank_matrix(rng, 6, 40, 3, field),
        random_low_rank_matrix(rng, 40, 6, 4, field),
        mat([[p - 1] * 25] * 24, field),
        heavy(24, 25, field),
        heavy(6, 40, field),
        heavy(40, 6, field),
    ]
    for m in matrices:
        res = gauche_rref(m)
        assert (res.journals, res.pivot_set) == reference_sweep(m)
        oracle = gauss_jordan(m)
        assert (oracle.ops, oracle.rref, oracle.pivot_set) == reference_gauss_jordan(m)


@pytest.mark.parametrize("field", GF_FIELDS, ids=str)
def test_llq_one_column_at_a_time(field):
    """KeeperState.llq fed one column at a time up to dim keepers, then
    columns that each take an update from every one of the dim keepers,
    the most a candidate can take; every answer is the reference sweep's,
    and so are columns_independent and column_in_span on the same input."""
    rng = random.Random(field.modulus % 10009)
    dim = 12
    while True:
        basis = uniform(rng, dim, dim, field)
        if reference_sweep(basis)[1] == tuple(range(1, dim + 1)):
            break
    extra = heavy(dim, 4, field).raw_rows()
    later = uniform(rng, dim, 8, field).raw_rows()
    m = mat([b + e + x for b, e, x in zip(basis.raw_rows(), extra, later)], field)
    journals, pivots = reference_sweep(m)
    state = KeeperState(field, dim)
    kept = 0
    for n in range(1, m.cols + 1):
        answer = state.llq(m.column(n))
        if n in pivots:
            assert answer == Keeper()
            kept += 1
        else:
            assert answer == Subordinate(journals[n - 1].values[:kept], field)
    assert kept == dim

    for _ in range(30):
        js = rng.sample(range(1, m.cols + 1), rng.randint(1, dim + 2))
        sub_pivots = reference_sweep(m.take_columns(js))[1]
        assert columns_independent(m, js) == (len(sub_pivots) == len(js))
        k = rng.choice([j for j in range(1, m.cols + 1) if j not in js])
        sub_journals, sub_pivots = reference_sweep(m.take_columns([*js, k]))
        coefficients = column_in_span(m, k, js)
        if len(js) + 1 in sub_pivots:
            assert coefficients is None
            continue
        expected = [0] * len(js)
        kept_slots = [slot for slot in range(len(js)) if slot + 1 in sub_pivots]
        for slot, value in zip(kept_slots, sub_journals[-1].values):
            expected[slot] = value
        assert tuple(c.value for c in coefficients) == tuple(expected)


def test_packed_kernels_unpack_once_per_column_or_pivot(monkeypatch):
    """On an 80x81 GF(32003) input the sweep packs and unpacks each column
    once and packs each keeper row once, from the reduced row as it stands.
    The oracle packs each row once and each pivot row again, and unpacks
    one row per pivot plus each row once at the end; its log, scales
    included, replays onto its RREF. A per-entry loop would unpack far
    more, or never."""
    field = GF(32003)
    m = uniform(random.Random(8081), 80, 81, field)
    calls = {name: spy(monkeypatch, name, FieldSpec) for name in ("pack", "unpack")}
    res = gauche_rref(m)
    assert len(res.pivot_set) == 80
    assert len(calls["unpack"]) == m.cols
    assert len(calls["pack"]) == m.cols + len(res.pivot_set)
    for log in calls.values():
        log.clear()
    oracle = gauss_jordan(m)
    assert oracle.rref == res.rref
    assert len(calls["unpack"]) == len(oracle.pivot_set) + m.rows
    assert len(calls["pack"]) == m.rows + len(oracle.pivot_set)
    scales = sum(isinstance(op, Scale) for op in oracle.ops)
    assert scales > 0
    assert apply_ops(m, oracle.ops) == oracle.rref
