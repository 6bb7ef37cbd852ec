"""Command-line surface: file parsing, golden outputs, exit codes."""
import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import echelon.cli
from echelon import (
    GF,
    QQ,
    Inconsistent,
    LinearSystem,
    Matrix,
    ParseError,
    Scalar,
    Vector,
    apply_ops,
    format_op,
    gauche_rref,
    gauss_jordan,
    null_basis,
    parse_ops,
    row_equivalent,
    solve,
)
from echelon.scalars import FieldSpec, parse_value
from echelon.cli import main, parse_matrix, parse_system

from helpers import (
    FIELD_CASES,
    GF7,
    mat,
    matrix_t,
    matrix_text,
    random_fraction_matrix,
    random_fraction_vector,
    random_low_rank_matrix,
    random_matrix,
    run_cli,
    sc,
    scalar_rows,
    system_text,
    vec,
)

DIGIT_LIMIT = sys.get_int_max_str_digits()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="no int digit limit in this interpreter"
)

T_TEXT = "2 1 7 -7 2\n-3 4 -5 -6 3\n1 1 4 -5 2\n"
J_TEXT = "1 0 3 -2 0\n0 1 1 -3 0\n0 0 0 0 1\n"
T_SYSTEM = "2 1 7 -7 2 | 2\n-3 4 -5 -6 3 | 3\n1 1 4 -5 2 | 2\n"
EYE_TEXT = "1 0 0\n0 1 0\n0 0 1\n"


@pytest.fixture
def t_path(tmp_path):
    path = tmp_path / "T.mat"
    path.write_text(T_TEXT)
    return str(path)


class TestParseMatrix:
    def test_worked_example(self):
        assert parse_matrix(T_TEXT, QQ) == matrix_t()

    def test_single_entry(self):
        m = parse_matrix("1/2", QQ)
        assert (m.rows, m.cols) == (1, 1)
        assert str(m) == "1/2"

    def test_ragged_rows_name_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1 2\n3", QQ)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix("# only a comment\n\n", QQ)

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n1 2  # row one\n\n3 4\n"
        assert parse_matrix(text, QQ) == Matrix.from_rows([[1, 2], [3, 4]], QQ)

    def test_bad_scalar_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1 2\n3 x\n", QQ)

    def test_zero_denominator_names_the_line(self):
        assert run_cli(["rref"], "1 2\n3 1/0\n") == (
            2, "", "error: line 2: zero denominator in literal '1/0'\n"
        )

    def test_vanishing_denominator_over_gf_names_the_line(self):
        assert run_cli(["rref", "--field", "gf:7"], "1 2\n3 1/7\n") == (
            2, "", "error: line 2: denominator 7 vanishes in GF(7)\n"
        )

    @needs_digit_limit
    def test_oversized_literal_names_the_line(self):
        with pytest.raises(ParseError, match=r"^line 2: .*limit"):
            parse_matrix("1 2\n3 " + "9" * (DIGIT_LIMIT + 1) + "\n", QQ)

    @pytest.mark.parametrize(
        "token", ["+1", "1_0", "\u0661", "--1", "-", "1/", "/2", "1/-2", "1e3", "0x1", "\u22121"]
    )
    def test_rejected_spellings(self, token):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"1 2\n3 {token}\n", QQ)
        assert str(err.value) == f"line 2: malformed scalar literal {token!r}"

    @pytest.mark.parametrize(
        ("token", "value"), [("-0", 0), ("007", 7), ("0/5", 0), ("-3/6", Fraction(-1, 2))]
    )
    @pytest.mark.parametrize("field", [QQ, GF7], ids=str)
    def test_accepted_spellings(self, token, value, field):
        assert parse_matrix(f"1 {token}", field).entry(1, 2) == sc(value, field)


class TestFileEncoding:
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings_read_alike(self, eol, tmp_path):
        path = tmp_path / "T.mat"
        path.write_bytes(T_TEXT.replace("\n", eol).encode())
        assert parse_matrix(echelon.cli._read(str(path)), QQ) == matrix_t()

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("cmd", ["rref", "equiv"])
    def test_undecodable_byte_names_its_line(self, cmd, eol):
        bad = b"1 2" + eol + b"\xff 3" + eol
        # for equiv the bad file is the second one
        assert run_cli([cmd], *[T_TEXT] * (cmd == "equiv"), bad) == (
            2, "", "error: line 2: not UTF-8: invalid start byte 0xff\n"
        )

    @pytest.mark.parametrize("space", ["\f", "\v", "\x85", "\u2028"], ids=repr)
    def test_only_line_endings_break_lines(self, space, tmp_path):
        """Other characters that str.splitlines breaks at stay whitespace
        between entries."""
        path = tmp_path / "space.mat"
        path.write_bytes(f"1{space}2\n3{space}4\n".encode())
        assert parse_matrix(echelon.cli._read(str(path)), QQ) == mat([[1, 2], [3, 4]])
        wide = f"1 2{space}3 4\r5 6 7 8\r"
        assert parse_matrix(wide, QQ) == mat([[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_undecodable_byte_counts_lines_as_the_reader_does(self):
        assert run_cli(["rref"], b"1\x0c2\r3\x0b4\r\n5 \xff\r") == (
            2, "", "error: line 3: not UTF-8: invalid start byte 0xff\n"
        )

    def test_truncated_character_names_its_line(self):
        bad = b"1 2 | 3\n# caf\xc3\xa9\n4 5 | \xe2\x82"
        assert run_cli(["solve"], bad) == (
            2, "", "error: line 3: not UTF-8: unexpected end of data 0xe2\n"
        )


class TestParseSystem:
    def test_augmented_rows(self):
        system = parse_system("1 2 | 3\n4 5 | 6\n", QQ)
        assert system.coeff == Matrix.from_rows([[1, 2], [4, 5]], QQ)
        assert system.rhs == vec([3, 6])

    @pytest.mark.parametrize(
        "text",
        ["1 2 3\n", "1 | 2 | 3\n", "| 2\n", "1 2 | \n", "1 2 | 3 4\n"],
    )
    def test_malformed_rows(self, text):
        with pytest.raises(ParseError):
            parse_system(text, QQ)

    @needs_digit_limit
    def test_oversized_literal_names_the_line(self):
        with pytest.raises(ParseError, match=r"^line 2: .*limit"):
            parse_system("1 2 | 3\n4 5 | -" + "9" * (DIGIT_LIMIT + 1) + "\n", QQ)

    def test_zero_denominator_names_the_line(self):
        assert run_cli(["solve"], "1 2 | 1\n3 1/0 | 2\n") == (
            2, "", "error: line 2: zero denominator in literal '1/0'\n"
        )


def _literal_lines(bound):
    """Rows of int, negative, a/b and repeated literals, some of them
    malformed or with a zero denominator, so that lines take both parse
    paths and some fail."""
    ints = st.integers(-bound, bound).map(str)
    fractions = st.builds("{}/{}".format, st.integers(-bound, bound), st.integers(0, bound))
    repeated = st.sampled_from(["1", "-1", "2/3"])
    odd = st.sampled_from(["007", "-0", "+1", "1_0", "--1", "1.5", "\u0663"])
    literal = st.one_of(ints, ints, fractions, repeated, odd)
    row = st.integers(1, 5).map(lambda width: st.lists(literal, min_size=width, max_size=width))
    return row.flatmap(lambda rows: st.lists(rows, min_size=1, max_size=5))


def _reference_rows(lines, field):
    """Each token through parse_value on its own, as rows of (type, raw
    value) pairs, or the first error's message with its line number."""
    rows = []
    for lineno, tokens in enumerate(lines, start=1):
        try:
            rows.append([parse_value(token, field) for token in tokens])
        except (ParseError, ZeroDivisionError, ValueError) as exc:
            return f"line {lineno}: {exc}"
    return [[(type(x), x) for x in row] for row in rows]


def _typed_rows(parse):
    """The matrix parse() returns as rows of (type, raw value) pairs, or the
    message of its ParseError."""
    try:
        m = parse()
    except ParseError as exc:
        return str(exc)
    values, cols = m.values, m.cols
    return [[(type(x), x) for x in values[i : i + cols]] for i in range(0, len(values), cols)]


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
@given(data=st.data())
def test_line_paths_match_per_token_parsing(field, bound, data):
    """Integer lines read in one call and other lines read through the
    literal table give the raw values, and the diagnostics, that parsing
    every token on its own gives."""
    lines = data.draw(_literal_lines(bound))
    sep = data.draw(st.sampled_from([" ", "\t", " \f", "\v "]))
    expected = _reference_rows(lines, field)
    text = matrix_text(lines, sep)
    assert _typed_rows(lambda: parse_matrix(text, field)) == expected
    if len(lines[0]) > 1:
        system = system_text(lines, sep)
        assert _typed_rows(lambda: parse_system(system, field).augmented()) == expected


class TestPinnedDiagnostics:
    """Exact stderr, no stdout and exit code 2 on inputs that int() reads
    otherwise than the literal grammar, or that fail on the one-call line
    path."""

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0663", "--1", "1.5", "-"])
    @pytest.mark.parametrize("flag", ["q", "gf:32003"])
    def test_rejected_tokens(self, token, flag):
        got = run_cli(["rref", "--field", flag], f"1 2\n3 {token}\n")
        assert got == (2, "", f"error: line 2: malformed scalar literal {token!r}\n")

    @needs_digit_limit
    @pytest.mark.parametrize("flag", ["q", "gf:32003"])
    def test_digit_limit(self, flag):
        long = "9" * (DIGIT_LIMIT + 1)
        with pytest.raises(ValueError) as limit:
            int(long)
        got = run_cli(["rref", "--field", flag], f"1 2\n3 {long}\n")
        assert got == (2, "", f"error: line 2: {limit.value}\n")

    @pytest.mark.parametrize("space", ["\f", "\v"], ids=repr)
    def test_form_feed_and_vertical_tab_separate_entries(self, space):
        got = run_cli(["rref", "--field", "q"], f"1{space}2\n3{space}--1\n")
        assert got == (2, "", "error: line 2: malformed scalar literal '--1'\n")
        got = run_cli(["rref"], f"1{space}2\n3{space}4\n")
        assert got == (0, "1 0\n0 1\n", "")

    def test_integer_system_row(self):
        got = run_cli(["rref", "--field", "q"], "1 2\n3 | 4\n")
        assert got == (2, "", "error: line 2: malformed scalar literal '|'\n")
        got = run_cli(["solve", "--field", "q"], "1 2 | 3\n4 5 | 6 7\n")
        assert got == (2, "", "error: line 2: expected one right-hand-side entry\n")

    @pytest.mark.parametrize("literal", ["7/7", "14/7", "0/7"])
    def test_vanishing_denominator_of_a_cancelling_fraction(self, literal):
        got = run_cli(["rref", "--field", "gf:7"], f"1 2\n{literal} 1\n")
        assert got == (2, "", "error: line 2: denominator 7 vanishes in GF(7)\n")

    def test_repeated_vanishing_denominator_names_its_first_line(self):
        text = "1 2\n3 1/32003\n1/32003 4\n"
        got = run_cli(["rref", "--field", "gf:32003"], text)
        assert got == (2, "", "error: line 2: denominator 32003 vanishes in GF(32003)\n")


class TestGoldenOutputs:
    """Exact stdout, and no stderr, of each one-file command on T."""

    def test_rref(self):
        assert run_cli(["rref"], T_TEXT) == (0, J_TEXT, "")

    def test_pivots(self):
        assert run_cli(["pivots"], T_TEXT) == (0, "1 2 5\n", "")

    def test_graph(self):
        assert run_cli(["graph"], T_TEXT) == (
            0, "x1 = -3*x3 + 2*x4\nx2 = -1*x3 + 3*x4\nx5 = 0*x3 + 0*x4\n", ""
        )

    def test_check_identity(self):
        assert run_cli(["check"], EYE_TEXT) == (0, "RREF\n", "")

    def test_check_unreduced(self):
        assert run_cli(["check"], T_TEXT) == (1, "NOT RREF: Pivots\n", "")

    def test_basis(self):
        assert run_cli(["basis"], T_TEXT) == (0, "2 -3 1\n1 4 1\n2 3 2\n", "")

    def test_null(self):
        assert run_cli(["null"], T_TEXT) == (0, "-3 -1 1 0 0\n2 3 0 1 0\n", "")


class TestEquiv:
    def test_row_equivalent_pair(self):
        got = run_cli(["equiv"], T_TEXT, J_TEXT)
        assert got == (0, "ROW-EQUIVALENT\n", "")

    def test_not_equivalent(self):
        got = run_cli(["equiv"], "1 0\n0 1\n", "1 0\n0 0\n")
        assert got == (1, "NOT ROW-EQUIVALENT\n", "")

    def test_exit_agrees_with_library(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_matrix(rng, 3, 4, QQ)
            b = random_matrix(rng, 3, 4, QQ)
            expected = 0 if row_equivalent(a, b) else 1
            code, _, _ = run_cli(["equiv"], matrix_text(a), matrix_text(b))
            assert code == expected

    def test_shape_mismatch_is_an_error(self):
        code, _, err = run_cli(["equiv"], T_TEXT, EYE_TEXT)
        assert code == 2
        assert "error:" in err


class TestScript:
    def test_replay_reproduces_rref_output(self):
        code, script_text, _ = run_cli(["script"], T_TEXT)
        assert code == 0
        code, rref_text, _ = run_cli(["rref"], T_TEXT)
        assert code == 0
        replayed = apply_ops(matrix_t(), parse_ops(script_text, QQ))
        assert str(replayed) + "\n" == rref_text

    def test_reduced_input_gives_empty_script(self):
        assert run_cli(["script"], EYE_TEXT)[:2] == (0, "")

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=str)
    def test_script_builds_no_rref(self, field, monkeypatch):
        """`script` prints the oracle's log without building its reduced
        form: over GF(p) it unpacks at most one row per pivot (the pivot row,
        when chosen), not every row again at the end; over Q it takes one
        quotient per logged coefficient and no row of quotients to divide
        the rows back."""
        m = random_matrix(random.Random(2024), 12, 13, field)
        text = matrix_text(m)
        pivots = len(gauss_jordan(m).pivot_set)
        names = ("quotient", "quotients") if field.modulus is None else ("unpack",)
        calls = {name: [] for name in names}

        def counting(name):
            kernel = getattr(FieldSpec, name)
            return lambda self, *args: calls[name].append(1) or kernel(self, *args)

        for name in names:
            monkeypatch.setattr(FieldSpec, name, counting(name))
        flag = "q" if field.modulus is None else f"gf:{field.modulus}"
        code, out, _ = run_cli(["script", "--field", flag], text)
        assert code == 0
        lines = out.splitlines()
        assert pivots == 12 and lines
        if field.modulus is None:
            coefficients = sum(not line.startswith("swap") for line in lines)
            assert len(calls["quotient"]) == coefficients
            assert calls["quotients"] == []
        else:
            assert 0 < len(calls["unpack"]) <= pivots


class TestSolve:
    def test_consistent_system(self):
        assert run_cli(["solve"], T_SYSTEM) == (
            0, "particular: 0 0 0 0 1\nhomogeneous: -3 -1 1 0 0\nhomogeneous: 2 3 0 1 0\n", ""
        )

    def test_inconsistent_system(self):
        got = run_cli(["solve"], "1 1 | 0\n1 1 | 1\n")
        assert got == (1, "INCONSISTENT\n", "")


class TestSyseq:
    def test_scaled_twin(self):
        got = run_cli(["syseq"], "1 2 | 3\n0 1 | 1\n", "2 4 | 6\n0 1 | 1\n")
        assert got == (0, "SOLUTION-EQUIVALENT\n", "")

    def test_different_solutions(self):
        got = run_cli(["syseq"], "1 0 | 1\n0 1 | 0\n", "1 0 | 0\n0 1 | 1\n")
        assert got == (1, "NOT SOLUTION-EQUIVALENT\n", "")

    def test_inconsistent_input_is_an_error(self):
        code, _, err = run_cli(["syseq"], "1 0 | 1\n0 1 | 0\n", "1 1 | 0\n1 1 | 1\n")
        assert code == 2
        assert "error:" in err


# name: (command, input file texts, exit code, exact stdout of --format json)
JSON_GOLDENS = {
    "pivots": ("pivots", [T_TEXT], 0, '{"pivots": [1, 2, 5]}\n'),
    "basis": (
        "basis", [T_TEXT], 0,
        '{"indices": [1, 2, 5], "columns": '
        '[["2", "-3", "1"], ["1", "4", "1"], ["2", "3", "2"]]}\n',
    ),
    "null": (
        "null", [T_TEXT], 0,
        '{"free": [3, 4], "basis": [["-3", "-1", "1", "0", "0"], ["2", "3", "0", "1", "0"]]}\n',
    ),
    "graph": (
        "graph", [T_TEXT], 0,
        '{"free": [3, 4], "relations": [{"pivot": 1, "coefficients": ["-3", "2"]}, '
        '{"pivot": 2, "coefficients": ["-1", "3"]}, {"pivot": 5, "coefficients": ["0", "0"]}]}\n',
    ),
    "check-pass": ("check", [EYE_TEXT], 0, '{"rref": true}\n'),
    "check-fail": ("check", [T_TEXT], 1, '{"rref": false, "violated": "Pivots"}\n'),
    "script": (
        "script", [T_TEXT], 0,
        '{"ops": ["scale 1 1/2", "axpy 2 1 -3", "axpy 3 1 1", "scale 2 2/11", "axpy 1 2 1/2", '
        '"axpy 3 2 1/2", "scale 3 11/5", "axpy 1 3 5/11", "axpy 2 3 12/11"]}\n',
    ),
    "script-reduced": ("script", [EYE_TEXT], 0, '{"ops": []}\n'),
    "solve-consistent": (
        "solve", [T_SYSTEM], 0,
        '{"consistent": true, "particular": ["0", "0", "0", "0", "1"], '
        '"basis": [["-3", "-1", "1", "0", "0"], ["2", "3", "0", "1", "0"]]}\n',
    ),
    "solve-inconsistent": ("solve", ["1 1 | 0\n1 1 | 1\n"], 1, '{"consistent": false}\n'),
    "equiv-true": ("equiv", [T_TEXT, J_TEXT], 0, '{"row_equivalent": true}\n'),
    "equiv-false": ("equiv", ["1 0\n0 1\n", "1 0\n0 0\n"], 1, '{"row_equivalent": false}\n'),
    "syseq-true": (
        "syseq", ["1 2 | 3\n0 1 | 1\n", "2 4 | 6\n0 1 | 1\n"], 0,
        '{"solution_equivalent": true}\n',
    ),
    "syseq-false": (
        "syseq", ["1 0 | 1\n0 1 | 0\n", "1 0 | 0\n0 1 | 1\n"], 1,
        '{"solution_equivalent": false}\n',
    ),
}


# SHA-256 of stdout on seeded 40x41 inputs, where a packed GF(p) row takes
# dozens of updates before it is reduced: (modulus, command): (exit code,
# digest); solve reads the same rows with the last entry as right-hand side
LARGE_GOLDENS = {
    (32003, "rref"): (0, "7c811664f11e3d48c821299fdea684170d76bd373153a1b2811b027dcca4b788"),
    (32003, "script"): (0, "18b81ddbc000e9fcb760f6d884fabc0c511748e4d03d1cb55374fc2e5db4d3f0"),
    (32003, "null"): (0, "4fc0b227a4341fc4380a5e8d5e602e953426073b235fd3056b7461c3d930d298"),
    (32003, "solve"): (0, "311183a487185a15f88b46c42fc391bec17758ba7ee3b8f6015b8f25f9800bb6"),
    (2, "rref"): (0, "255bf4ee0563eecfbf5c3a39618ce78263016a33ac77d7855b2e5b7142120a89"),
    (2, "script"): (0, "77f592a2dc56568dd9889faf443f0fe9791783bc1265f723d5b6136cb90533a9"),
    (2, "null"): (0, "9db6b00825aeac7b997b2dd46e24447326034555e34c41f6f19c285becae1ec4"),
    (2, "solve"): (0, "5be209e221507222779d54c4737949c0379480feb04c18f63758de3372635ad9"),
}


@pytest.mark.parametrize(
    ("p", "cmd"), LARGE_GOLDENS, ids=[f"GF({p})-{cmd}" for p, cmd in LARGE_GOLDENS]
)
def test_large_gf_goldens(p, cmd):
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(41)] for _ in range(40)]
    text = system_text(rows) if cmd == "solve" else matrix_text(rows)
    code, digest = LARGE_GOLDENS[p, cmd]
    got, out, err = run_cli([cmd, "--field", f"gf:{p}"], text)
    assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


class TestJsonFormat:
    @pytest.mark.parametrize(
        ("cmd", "texts", "code", "out"), JSON_GOLDENS.values(), ids=JSON_GOLDENS
    )
    def test_exact_stdout(self, cmd, texts, code, out):
        assert run_cli([cmd, "--format", "json"], *texts) == (code, out, "")

    def test_rref(self):
        code, out, _ = run_cli(["rref", "--format", "json"], T_TEXT)
        assert code == 0
        assert json.loads(out) == {
            "rref": [
                ["1", "0", "3", "-2", "0"],
                ["0", "1", "1", "-3", "0"],
                ["0", "0", "0", "0", "1"],
            ]
        }

    def test_check_failure_names_the_condition(self):
        code, out, _ = run_cli(["check", "--format", "json"], T_TEXT)
        assert code == 1
        assert json.loads(out) == {"rref": False, "violated": "Pivots"}

    def test_solve(self):
        code, out, _ = run_cli(["solve", "--format", "json"], "1 0 | 1\n0 1 | 2\n")
        assert code == 0
        assert json.loads(out) == {
            "consistent": True,
            "particular": ["1", "2"],
            "basis": [],
        }


class TestLongAnswers:
    @needs_digit_limit
    def test_answers_over_the_digit_limit_print_in_full(self):
        # 64-bit a/b entries: the reduced form has entries of 4,792 digits
        m = random_fraction_matrix(random.Random(2022), 16, 17, QQ, bound=2**63)
        code, out, _ = run_cli(["rref"], matrix_text(m))
        assert code == 0
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT
        sys.set_int_max_str_digits(0)
        try:
            expected = str(gauche_rref(m).rref) + "\n"
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)
        assert out == expected
        assert max(len(token) for token in expected.split()) > DIGIT_LIMIT


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_cli_path_makes_no_scalar(field, monkeypatch):
    """Every command, script among them (it prints the oracle's raw op log),
    reads, reduces and prints raw values on a wide low-rank input: no Scalar
    is made on the way."""
    m = random_low_rank_matrix(random.Random(5), 8, 60, 3, field)
    mat_text, sys_text = matrix_text(m), system_text(m)
    calls = []
    init, raw = Scalar.__init__, Scalar._raw
    monkeypatch.setattr(
        Scalar, "__init__", lambda s, spec, v: calls.append("__init__") or init(s, spec, v)
    )
    monkeypatch.setattr(
        Scalar, "_raw", classmethod(lambda cls, spec, v: calls.append("_raw") or raw(spec, v))
    )
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    for cmd, texts, code in [
        ("rref", [mat_text], 0), ("pivots", [mat_text], 0), ("basis", [mat_text], 0),
        ("null", [mat_text], 0), ("graph", [mat_text], 0), ("check", [mat_text], 1),
        ("script", [mat_text], 0), ("solve", [sys_text], 0), ("equiv", [mat_text, mat_text], 0),
        ("syseq", [sys_text, sys_text], 0),
    ]:
        for fmt in ("plain", "json"):
            argv = [cmd, "--field", flag, "--format", fmt]
            got, _, err = run_cli(argv, *texts)
            assert (got, err) == (code, "")
    assert calls == []
    # the counters do count
    Scalar(field, 2)
    Scalar._raw(field, 2)
    assert calls == ["__init__", "_raw"]


def _script_shapes(field, bound):
    """1x1, all-zero, identity, a first pivot that needs a swap, and wide
    low-rank inputs for the script tests."""
    rng = random.Random(21)
    swap = random_matrix(rng, 4, 5, field, bound).with_entry(1, 1, 0).with_entry(2, 1, 1)
    return {
        "1x1": random_matrix(rng, 1, 1, field, bound),
        "zero": Matrix.zero(3, 4, field),
        "identity": Matrix.identity(4, field),
        "swap": swap,
        "wide": random_low_rank_matrix(rng, 4, 12, 2, field, bound),
    }


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
def test_script_text_is_format_op_and_replays(field, bound):
    """script prints the oracle's raw log; format_op writes the RowOps of
    gauss_jordan. Both texts agree line by line, plain and JSON, and the
    printed script replays the input to the sweep's RREF."""
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    for name, m in _script_shapes(field, bound).items():
        expected = [format_op(op) for op in gauss_jordan(m).ops]
        code, text, _ = run_cli(["script", "--field", flag], matrix_text(m))
        assert code == 0
        assert text.splitlines() == expected, name
        argv = ["script", "--field", flag, "--format", "json"]
        code, out, _ = run_cli(argv, matrix_text(m))
        assert code == 0
        assert json.loads(out) == {"ops": expected}, name
        assert apply_ops(m, parse_ops(text, field)) == gauche_rref(m).rref, name
        if name == "identity":
            assert expected == []
        elif name == "swap":
            assert expected[0] == "swap 1 2"


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_graph_formats_each_coefficient_once(fmt, monkeypatch):
    """Both renderings of `graph` come from one list of literals: on T (3
    pivot expressions over 2 free variables) 6 values are formatted."""
    formatted = []
    fmt_values = echelon.cli.format_values

    def counted(values):
        formatted.extend(values)
        return fmt_values(values)

    monkeypatch.setattr(echelon.cli, "format_values", counted)
    monkeypatch.setattr(echelon.nullspace, "format_values", counted)
    assert run_cli(["graph", "--format", fmt], T_TEXT)[0] == 0
    assert len(formatted) == 6


WIDE_TEXT = "1 2 3 4 5 6 7 8\n2 4 6 8 10 12 14 16\n"
WIDE_SYSTEM = "1 2 3 4 5 6 7 8 | 1\n2 4 6 8 10 12 14 16 | 2\n"


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize(
    ("cmd", "text", "count", "made"),
    [
        ("null", T_TEXT, 6, 0),
        ("solve", T_SYSTEM, 11, 2),
        ("null", WIDE_TEXT, 7, 0),
        ("solve", WIDE_SYSTEM, 15, 2),
    ],
    ids=["null", "solve", "null-wide", "solve-wide"],
)
def test_null_and_solve_format_each_coefficient_once(
    cmd, text, count, made, fmt, monkeypatch
):
    """`null` and `solve` render the null basis from the relation
    coefficients: on T (3 pivots over 2 free variables) `null` formats 6
    values and makes no Vector, and `solve` on T's system formats its
    particular solution (5 values) and the 3 x 2 coefficients. The wide
    inputs (1 pivot over 7 free variables) format 7 and 8 + 7. Either way
    `solve` makes two Vectors, the parsed right-hand side and the particular
    solution, and none per free variable."""
    formatted, vectors = [], []
    fmt_values, raw = echelon.cli.format_values, Vector._raw

    def counted(values):
        formatted.extend(values)
        return fmt_values(values)

    monkeypatch.setattr(echelon.cli, "format_values", counted)
    monkeypatch.setattr(echelon.nullspace, "format_values", counted)
    monkeypatch.setattr(Vector, "_raw", staticmethod(lambda v, f: vectors.append(v) or raw(v, f)))
    assert run_cli([cmd, "--format", fmt], text)[0] == 0
    assert len(formatted) == count
    assert len(vectors) == made


def _reference_null(m: Matrix) -> tuple[int, str, dict]:
    """null's exit code, stdout and JSON payload, each entry of each
    null_basis vector rendered on its own."""
    nb = null_basis(m)
    basis = [[str(x) for x in v.entries] for v in nb.basis]
    return 0, matrix_text(basis), {"free": list(nb.free_indices), "basis": basis}


def _reference_solve(system: LinearSystem) -> tuple[int, str, dict]:
    """solve's exit code, stdout and JSON payload, each entry of each vector
    of the solution set rendered on its own."""
    sol = solve(system)
    if isinstance(sol, Inconsistent):
        return 1, "INCONSISTENT\n", {"consistent": False}
    particular = [str(x) for x in sol.particular.entries]
    basis = [[str(x) for x in v.entries] for v in sol.homogeneous.basis]
    text = matrix_text([["particular:", *particular]] + [["homogeneous:", *v] for v in basis])
    return 0, text, {"consistent": True, "particular": particular, "basis": basis}


def _null_space_case(rng, field, bound, kind) -> Matrix:
    """A zero matrix (every column free), a matrix of full column rank (no
    column free), or a wide low-rank matrix with each column scaled by an
    a/b unit."""
    rows = rng.randint(1, 5)
    if kind == "zero":
        return Matrix.zero(rows, rng.randint(1, 12), field)
    if kind == "full":
        # unit upper triangular over the first cols rows, a/b entries
        # everywhere else, then the rows shuffled
        cols = rng.randint(1, rows)
        noise = [list(r) for r in random_fraction_matrix(rng, rows, cols, field, bound).raw_rows()]
        for i in range(cols):
            noise[i][: i + 1] = [0] * i + [1]
        rng.shuffle(noise)
        return Matrix.from_rows(noise, field)
    cols = rng.randint(rows, 4 * rows + 4)
    low = random_low_rank_matrix(rng, rows, cols, rng.randint(0, rows - 1), field, bound)
    scales = random_fraction_matrix(rng, 1, cols, field, bound).row(1).entries
    units = [c if c else field.one() for c in scales]
    return Matrix.from_rows([[c * x for c, x in zip(units, r)] for r in scalar_rows(low)], field)


@pytest.mark.parametrize(("field", "bound"), FIELD_CASES)
@given(kind=st.sampled_from(["zero", "full", "wide"]), rng=st.randoms(use_true_random=False))
def test_null_and_solve_print_what_their_vectors_hold(field, bound, kind, rng):
    """`null` and `solve`, laid out from literals of the relation
    coefficients, print in plain text and JSON what rendering each entry of
    null_basis(m) and solve(system) on its own prints."""
    m = _null_space_case(rng, field, bound, kind)
    if rng.random() < 0.7:
        rhs = m @ random_fraction_vector(rng, m.cols, field, bound)
    else:
        rhs = random_fraction_vector(rng, m.rows, field, bound)
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    system = LinearSystem(m, rhs)
    for cmd, input_text, (code, text, payload) in [
        ("null", matrix_text(m), _reference_null(m)),
        ("solve", system_text(system), _reference_solve(system)),
    ]:
        argv = [cmd, "--field", flag]
        assert run_cli(argv, input_text) == (code, text, "")
        json_code, json_text, err = run_cli(argv + ["--format", "json"], input_text)
        assert (json_code, json.loads(json_text), err) == (code, payload, "")
    if kind == "full":
        assert _reference_null(m)[1] == ""
    if kind == "zero":
        assert null_basis(m).free_indices == tuple(range(1, m.cols + 1))


class TestFieldFlag:
    def test_prime_field_reduction(self):
        assert run_cli(["rref", "--field", "gf:7"], T_TEXT) == (
            0, "1 0 3 5 0\n0 1 1 4 0\n0 0 0 0 1\n", ""
        )

    def test_composite_modulus_rejected(self):
        code, _, err = run_cli(["rref", "--field", "gf:6"], T_TEXT)
        assert code == 2 and "error:" in err

    def test_modulus_too_large_to_decide_rejected(self):
        code, _, err = run_cli(["rref", "--field", f"gf:{2**89 - 1}"], T_TEXT)
        assert code == 2 and "too large" in err

    @pytest.mark.parametrize("flag", ["gf:3_1", "gf:+7", "gf: 7", "gf:\u0667"])
    def test_modulus_is_plain_ascii_digits(self, flag):
        code, _, err = run_cli(["rref", "--field", flag], T_TEXT)
        assert code == 2 and "modulus must be an integer" in err

    def test_unknown_field_rejected(self):
        code, _, err = run_cli(["rref", "--field", "r"], T_TEXT)
        assert code == 2 and "error:" in err


class TestErrorPaths:
    def test_missing_file(self):
        code, _, err = run_cli(["rref", "/nonexistent/file.mat"])
        assert code == 2 and "error:" in err

    def test_parse_error(self):
        code, _, err = run_cli(["rref"], "1 2\n3\n")
        assert code == 2 and "line 2" in err

    def test_usage_error(self):
        assert run_cli([])[0] == 2

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate", "x"])[0] == 2


class TestArgumentForms:
    """One flat parser reads every command: options may sit anywhere after
    `echelon`, each command takes its own number of files, and --help lists
    the commands."""

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.mat").write_text(T_TEXT)
        (tmp_path / "b.mat").write_text("1 1 4 -5 2\n4 2 14 -14 4\n-3 4 -5 -6 3\n")
        (tmp_path / "a.sys").write_text("1 2 | 3\n4 5 | 6\n")
        (tmp_path / "b.sys").write_text("4 5 | 6\n2 4 | 6\n")

    @pytest.mark.parametrize(
        ("mixed", "last"),
        [
            (
                ["equiv", "a.mat", "--field", "gf:7", "b.mat"],
                ["equiv", "a.mat", "b.mat", "--field", "gf:7"],
            ),
            (
                ["syseq", "a.sys", "--format", "json", "b.sys"],
                ["syseq", "a.sys", "b.sys", "--format", "json"],
            ),
            (["rref", "--format", "json", "a.mat"], ["rref", "a.mat", "--format", "json"]),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_options_between_files(self, mixed, last):
        expected = run_cli(last)
        code, out, err = expected
        assert code == 0 and out and not err
        assert run_cli(mixed) == expected

    @pytest.mark.parametrize(
        ("only_argparse", "plain"),
        [
            (["rref", "a.mat", "--fo", "json"], ["rref", "a.mat", "--format", "json"]),
            (["rref", "--", "a.mat"], ["rref", "a.mat"]),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_forms_only_argparse_reads(self, only_argparse, plain, capsys, monkeypatch):
        """An abbreviated option and `--` are left to argparse, which reads
        them as their plain forms; main() with no argv reads sys.argv[1:]."""
        assert echelon.cli._plain_args(only_argparse) is None
        expected = run_cli(plain)
        assert expected[0] == 0 and expected[1] and not expected[2]
        assert run_cli(only_argparse) == expected
        monkeypatch.setattr(sys, "argv", ["echelon", *only_argparse])
        assert (main(), *capsys.readouterr()) == expected

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["rref", "a.mat", "b.mat"], "rref takes 1 FILE, got 2"),
            (["equiv", "a.mat"], "equiv takes 2 FILEs, got 1"),
            (["syseq", "a.sys"], "syseq takes 2 FILEs, got 1"),
            (["rref"], "the following arguments are required: FILE"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_wrong_file_count_is_a_usage_error(self, argv, error):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: echelon ")
        assert argv[0] in err
        assert err.splitlines()[-1] == f"echelon: error: {error}"

    @pytest.mark.parametrize("argv", [["--help"], ["rref", "--help"]], ids=" ".join)
    def test_help_lists_every_command(self, argv):
        code, out, _ = run_cli(argv)
        assert code == 0
        lines = out.splitlines()
        names = "rref pivots basis null graph check script solve equiv syseq".split()
        assert list(echelon.cli._COMMANDS) == names
        for name, (*_, help_text) in echelon.cli._COMMANDS.items():
            assert any(
                line.split()[:1] == [name] and line.endswith(help_text) for line in lines
            ), name


def test_one_parser_per_call(t_path, monkeypatch):
    """Plain argvs (a command, its FILEs, `--field` and `--format`) are read
    without argparse and build no ArgumentParser. Any other argv builds the
    process's one parser on first use (no subparser, no parent parser), and
    later calls reuse it, with the same exit code, stdout and stderr as the
    call that built it."""
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs),
    )
    plain = [
        ["rref", t_path],
        ["equiv", t_path, "--field=gf:7", t_path],
        ["rref", "--format", "json", t_path, "--field", "q"],
    ]
    others, codes = [["rref"], ["--help"]], [2, 0]
    echelon.cli.build_parser.cache_clear()  # as in a fresh process
    assert [run_cli(argv)[0] for argv in plain] == [0, 0, 0]
    assert made == []
    for first, code in zip(others, codes):
        echelon.cli.build_parser.cache_clear()
        made.clear()
        built = run_cli(first)
        assert made == [1] and built[0] == code, first
        assert [run_cli(argv)[0] for argv in plain + others] == [0, 0, 0] + codes
        assert run_cli(first) == built, first
        assert made == [1], first
    # the counter does count
    made.clear()
    argparse.ArgumentParser()
    assert made == [1]


# every command name, two file names, both options in each spelling, their
# values, and arguments that argparse reads in its own ways: abbreviations,
# help, `--`, a lone dash, a negative number and the empty string
ARGV_WORDS = [
    *echelon.cli._COMMANDS, "a.mat", "b.mat", "--field", "--format", "--field=gf:7",
    "--format=json", "gf:7", "q", "json", "plain", "xml", "--fo", "--fiel", "-h", "--help",
    "--", "-", "-5", "",
]


# a word, or an option followed by a word: the pairs put the plain form's
# options next to every value, trailing options among them
ARGV_CHUNKS = st.sampled_from(ARGV_WORDS).map(lambda word: [word]) | st.tuples(
    st.sampled_from(["--field", "--format"]), st.sampled_from(ARGV_WORDS)
).map(list)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(echelon.cli._COMMANDS)), st.lists(ARGV_CHUNKS, max_size=4))
@example(command="rref", chunks=[["rref"], ["--format", "rref"], ["--format", "json"]])
def test_plain_reader_agrees_with_argparse(command, chunks):
    """Whatever argv the plain-form reader accepts, argparse accepts too and
    reads as the same command, files, field and format, with the file count
    the command takes."""
    argv = [command, *chain.from_iterable(chunks)]
    plain = echelon.cli._plain_args(argv)
    if plain is None:
        return
    args = echelon.cli.build_parser().parse_intermixed_args(argv)
    assert (args.command, args.files, args.field, args.fmt) == plain
    assert len(args.files) == echelon.cli._COMMANDS[args.command][2]


def test_every_format_value_is_checked():
    """A bad --format is an error even when a good one follows it, as
    argparse checks each value it reads, not only the last."""
    argv = ["rref", "--format", "bogus", "--format", "json"]
    code, out, err = run_cli(argv, T_TEXT)
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'bogus'" in err


def test_usage_rendered_once(t_path, monkeypatch):
    """Valid calls after the first main call do not render the usage text:
    the parser keeps it from when it was built."""
    assert run_cli(["rref", t_path])[0] == 0
    rendered = []
    format_usage = argparse.ArgumentParser.format_usage
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "format_usage",
        lambda self: rendered.append(1) or format_usage(self),
    )
    for argv in (["rref", t_path], ["equiv", t_path, "--field", "gf:7", t_path], ["null", t_path]):
        assert run_cli(argv)[0] == 0
    assert rendered == []
    # the counter does count
    assert run_cli(["rref"])[0] == 2
    assert rendered


@pytest.mark.parametrize("field", [QQ, GF7], ids=str)
def test_parse_print_roundtrip(field):
    rng = random.Random(404)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), field)
        assert parse_matrix(str(m), field) == m


def _cli_child(*args):
    """The argv and environment of `python -m echelon ARGS` in a child
    process that imports the echelon package under test, not some other
    installed copy."""
    package_root = str(Path(echelon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "echelon", *args], {**os.environ, "PYTHONPATH": path}


def _run_cli(*args):
    argv, env = _cli_child(*args)
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_closed_pipe_exits_141_quietly(tmp_path):
    """A reader that stops early, as `head -1` does, ends the command with
    128 + SIGPIPE and nothing on stderr, not a BrokenPipeError traceback."""
    path = tmp_path / "ones.mat"
    path.write_text(matrix_text([[1] * 800]))  # 799 null vectors, over 1 MB
    argv, env = _cli_child("null", str(path))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"-1 1 0")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_console_entry_point(t_path):
    proc = _run_cli("pivots", t_path)
    assert proc.returncode == 0
    assert proc.stdout == "1 2 5\n"
    usage = _run_cli()
    assert usage.returncode == 2
    assert "usage: echelon" in usage.stderr


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(not PYPROJECT.exists(), reason="pyproject.toml not beside tests/")
def test_console_script_mapping():
    tomllib = pytest.importorskip("tomllib")
    import echelon.__main__

    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["echelon"] == "echelon.cli:entry"
    assert echelon.__main__.entry is echelon.cli.entry


@pytest.mark.skipif(shutil.which("echelon") is None, reason="no echelon launcher on PATH")
def test_installed_launcher(t_path):
    proc = subprocess.run(["echelon", "pivots", t_path], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1 2 5\n"
