"""Acceptance suite: each numbered criterion runs exactly as stated, with
zero-tolerance comparisons throughout (all arithmetic is exact), and prints
one pass line on success. Run with `pytest tests/test_acceptance.py -v -s`
to see the lines; a failed assertion marks the criterion failed."""
import random

import pytest

from echelon import (
    LinearSystem,
    apply_ops,
    column_in_span,
    columns_independent,
    gauche_rref,
    gauss_jordan,
    graph_relations,
    is_rref,
    null_basis,
    null_contains,
    null_equal,
    solution_equivalent,
    std_basis,
    Vector,
)
from echelon.cli import main, parse_matrix

from helpers import (
    FIELDS,
    matrix_j,
    matrix_t,
    random_consistent_system,
    random_matrix,
    random_ops,
    random_shape,
    reference_combination,
    system_from_augmented,
    vec,
)


@pytest.fixture(scope="module")
def corpus():
    """2000 random matrices, shapes 1x1 through 8x10, entries in -5..5,
    half over the rationals and half over GF(7), with their sweep results."""
    rng = random.Random(811)
    cases = []
    for field in FIELDS:
        for _ in range(1000):
            p, q = random_shape(rng)
            m = random_matrix(rng, p, q, field)
            cases.append((m, gauche_rref(m)))
    return cases


def test_criterion_1_golden_fixture():
    res = gauche_rref(matrix_t())
    assert res.rref == matrix_j()
    assert res.pivot_set == (1, 2, 5)
    assert res.journals[2] == vec([3, 1, 0])
    assert res.journals[3] == vec([-2, -3, 0])
    assert res.journals[4] == vec([0, 0, 1])
    print("criterion 1: PASS - fixture reduces exactly, pivots {1,2,5}, journals match")


def test_criterion_2_oracle_equivalence(corpus):
    assert len(corpus) >= 2000
    for m, res in corpus:
        oracle = gauss_jordan(m)
        assert res.rref == oracle.rref
        assert is_rref(res.rref)
        assert is_rref(oracle.rref)
    print(
        f"criterion 2: PASS - sweep equals the elimination oracle on {len(corpus)} "
        "random matrices, both in valid reduced form"
    )


def test_criterion_3_row_equivalence_witness(corpus):
    for m, res in corpus:
        assert apply_ops(m, gauss_jordan(m).ops) == res.rref
    print(
        f"criterion 3: PASS - recorded scripts replay to the sweep result on "
        f"{len(corpus)} matrices"
    )


def test_criterion_4_null_space_determines_row_class():
    rng = random.Random(404404)
    for idx in range(500):
        field = FIELDS[idx % 2]
        p, q = random_shape(rng, 6, 8)
        m = random_matrix(rng, p, q, field)
        twin = apply_ops(m, random_ops(rng, p, field, max_len=20))
        assert null_equal(m, twin)
        assert gauche_rref(m).rref == gauche_rref(twin).rref
    for idx in range(500):
        field = FIELDS[idx % 2]
        p, q = random_shape(rng, 6, 8)
        a = random_matrix(rng, p, q, field)
        b = random_matrix(rng, p, q, field)
        assert null_equal(a, b) == (gauche_rref(a).rref == gauche_rref(b).rref)
    print(
        "criterion 4: PASS - 500 op-perturbed pairs share null space and reduced "
        "form; 500 independent pairs agree on null-space vs reduced-form equality"
    )


def _oracle_rank(m, js):
    if not js:
        return 0
    return len(gauss_jordan(m.take_columns(js)).pivot_set)


def test_criterion_5_dictionary():
    rng = random.Random(512)
    for idx in range(500):
        field = FIELDS[idx % 2]
        p, q = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, p, q, field)
        size = rng.randint(0, min(q - 1, 4))
        js = tuple(rng.sample(range(1, q + 1), size))
        k = rng.choice([j for j in range(1, q + 1) if j not in js])

        coeffs = column_in_span(m, k, js)
        if coeffs is None:
            # absent means no null-space witness exists: adjoining column k
            # raises the rank of the selection
            assert _oracle_rank(m, js + (k,)) == _oracle_rank(m, js) + 1
        else:
            witness = [field.zero()] * q
            witness[k - 1] = -field.one()
            for c, j in zip(coeffs, js):
                witness[j - 1] = c
            assert null_contains(m, Vector(tuple(witness), field))
            assert _oracle_rank(m, js + (k,)) == _oracle_rank(m, js)

        assert columns_independent(m, js) == (_oracle_rank(m, js) == size)
    print(
        "criterion 5: PASS - span membership and independence agree with the "
        "elimination rank oracle on 500 random selections"
    )


def test_criterion_6_graph_presentation():
    rel = graph_relations(matrix_t())
    assert rel.lines() == [
        "x1 = -3*x3 + 2*x4",
        "x2 = -1*x3 + 3*x4",
        "x5 = 0*x3 + 0*x4",
    ]
    nb = null_basis(matrix_t())
    assert nb.basis
    for v in nb.basis:
        assert (matrix_t() @ v).is_zero()
    print("criterion 6: PASS - fixture graph relations print exactly; basis kills the matrix")


def test_criterion_7_solution_equivalence():
    rng = random.Random(749)
    broken = 0
    for idx in range(500):
        field = FIELDS[idx % 2]
        p, q = rng.randint(1, 5), rng.randint(1, 6)
        system = random_consistent_system(rng, p, q, field)
        twin = system_from_augmented(
            apply_ops(system.augmented(), random_ops(rng, p, field, max_len=12))
        )
        assert solution_equivalent(system, twin)
        assert gauche_rref(system.augmented()).rref == gauche_rref(twin.augmented()).rref

        pivots = gauche_rref(system.coeff).pivot_set
        if pivots:
            # shift the RHS along a non-null direction: still consistent,
            # but the solution set moves
            shift = system.coeff @ std_basis(q, pivots[0], field)
            one = field.one()
            moved_rhs = reference_combination([(one, system.rhs), (one, shift)], p, field)
            moved = LinearSystem(system.coeff, moved_rhs)
            assert not solution_equivalent(system, moved)
            broken += 1
    assert broken >= 450  # only rank-zero systems are skipped, and those are rare
    print(
        f"criterion 7: PASS - 500 op-perturbed twins are solution equivalent with "
        f"matching augmented reduced forms; {broken} RHS-shifted systems are not"
    )


def test_criterion_8_idempotence(corpus):
    for _, res in corpus:
        assert gauche_rref(res.rref).rref == res.rref
    print(f"criterion 8: PASS - reducing the reduced form is the identity on {len(corpus)} matrices")


def test_criterion_9_cli_goldens(tmp_path, capsys):
    t_path = tmp_path / "T.mat"
    t_path.write_text("2 1 7 -7 2\n-3 4 -5 -6 3\n1 1 4 -5 2\n")
    i_path = tmp_path / "I.mat"
    i_path.write_text("1 0\n0 1\n")

    assert main(["rref", str(t_path)]) == 0
    assert capsys.readouterr().out == "1 0 3 -2 0\n0 1 1 -3 0\n0 0 0 0 1\n"

    assert main(["pivots", str(t_path)]) == 0
    assert capsys.readouterr().out == "1 2 5\n"

    assert main(["graph", str(t_path)]) == 0
    assert capsys.readouterr().out == (
        "x1 = -3*x3 + 2*x4\nx2 = -1*x3 + 3*x4\nx5 = 0*x3 + 0*x4\n"
    )

    assert main(["check", str(i_path)]) == 0
    assert capsys.readouterr().out == "RREF\n"

    rng = random.Random(99)
    for idx in range(200):
        field = FIELDS[idx % 2]
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), field)
        assert parse_matrix(str(m), field) == m
    print(
        "criterion 9: PASS - four CLI outputs are byte-exact; 200 matrices "
        "round-trip through print and parse"
    )
