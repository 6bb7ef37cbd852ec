"""Command-line surface: file parsing, golden outputs, exit codes."""
import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
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
    random_fraction_matrix,
    random_fraction_vector,
    random_low_rank_matrix,
    random_matrix,
    sc,
    scalar_rows,
    vec,
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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


@pytest.fixture
def eye_path(tmp_path):
    path = tmp_path / "I.mat"
    path.write_text(EYE_TEXT)
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

    def test_zero_denominator_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "zero.mat"
        path.write_text("1 2\n3 1/0\n")
        assert main(["rref", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: zero denominator in literal '1/0'\n"

    def test_vanishing_denominator_over_gf_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "seven.mat"
        path.write_text("1 2\n3 1/7\n")
        assert main(["rref", str(path), "--field", "gf:7"]) == 2
        assert capsys.readouterr().err == "error: line 2: denominator 7 vanishes in GF(7)\n"

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
    def test_undecodable_byte_names_its_line(self, cmd, eol, t_path, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"1 2" + eol + b"\xff 3" + eol)
        # for equiv the bad file is the second one
        assert main([cmd, *[t_path] * (cmd == "equiv"), str(bad)]) == 2
        assert capsys.readouterr() == ("", "error: line 2: not UTF-8: invalid start byte 0xff\n")

    @pytest.mark.parametrize("space", ["\f", "\v", "\x85", "\u2028"], ids=repr)
    def test_only_line_endings_break_lines(self, space, tmp_path):
        """Other characters that str.splitlines breaks at stay whitespace
        between entries."""
        path = tmp_path / "space.mat"
        path.write_bytes(f"1{space}2\n3{space}4\n".encode())
        assert parse_matrix(echelon.cli._read(str(path)), QQ) == mat([[1, 2], [3, 4]])
        wide = f"1 2{space}3 4\r5 6 7 8\r"
        assert parse_matrix(wide, QQ) == mat([[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_undecodable_byte_counts_lines_as_the_reader_does(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"1\x0c2\r3\x0b4\r\n5 \xff\r")
        assert main(["rref", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8: invalid start byte 0xff\n"

    def test_truncated_character_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sys"
        bad.write_bytes(b"1 2 | 3\n# caf\xc3\xa9\n4 5 | \xe2\x82")
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8: unexpected end of data 0xe2\n"


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

    def test_zero_denominator_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "zero.sys"
        path.write_text("1 2 | 1\n3 1/0 | 2\n")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: zero denominator in literal '1/0'\n"


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
    text = "".join(sep.join(tokens) + "\n" for tokens in lines)
    assert _typed_rows(lambda: parse_matrix(text, field)) == expected
    if len(lines[0]) > 1:
        system = "".join(sep.join([*t[:-1], "|", t[-1]]) + "\n" for t in lines)
        assert _typed_rows(lambda: parse_system(system, field).augmented()) == expected


class TestPinnedDiagnostics:
    """Exact stderr and exit code 2 on inputs that int() reads otherwise
    than the literal grammar, or that fail on the one-call line path."""

    def _run(self, tmp_path, capsys, cmd, text, flag="q"):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode())
        code = main([cmd, str(path), "--field", flag])
        out, err = capsys.readouterr()
        assert out == ""
        return code, err

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0663", "--1", "1.5", "-"])
    @pytest.mark.parametrize("flag", ["q", "gf:32003"])
    def test_rejected_tokens(self, token, flag, tmp_path, capsys):
        got = self._run(tmp_path, capsys, "rref", f"1 2\n3 {token}\n", flag)
        assert got == (2, f"error: line 2: malformed scalar literal {token!r}\n")

    @needs_digit_limit
    @pytest.mark.parametrize("flag", ["q", "gf:32003"])
    def test_digit_limit(self, flag, tmp_path, capsys):
        long = "9" * (DIGIT_LIMIT + 1)
        with pytest.raises(ValueError) as limit:
            int(long)
        got = self._run(tmp_path, capsys, "rref", f"1 2\n3 {long}\n", flag)
        assert got == (2, f"error: line 2: {limit.value}\n")

    @pytest.mark.parametrize("space", ["\f", "\v"], ids=repr)
    def test_form_feed_and_vertical_tab_separate_entries(self, space, tmp_path, capsys):
        got = self._run(tmp_path, capsys, "rref", f"1{space}2\n3{space}--1\n")
        assert got == (2, "error: line 2: malformed scalar literal '--1'\n")
        path = tmp_path / "ok.txt"
        path.write_bytes(f"1{space}2\n3{space}4\n".encode())
        assert main(["rref", str(path)]) == 0
        assert capsys.readouterr() == ("1 0\n0 1\n", "")

    def test_integer_system_row(self, tmp_path, capsys):
        got = self._run(tmp_path, capsys, "rref", "1 2\n3 | 4\n")
        assert got == (2, "error: line 2: malformed scalar literal '|'\n")
        got = self._run(tmp_path, capsys, "solve", "1 2 | 3\n4 5 | 6 7\n")
        assert got == (2, "error: line 2: expected one right-hand-side entry\n")

    @pytest.mark.parametrize("literal", ["7/7", "14/7", "0/7"])
    def test_vanishing_denominator_of_a_cancelling_fraction(self, literal, tmp_path, capsys):
        got = self._run(tmp_path, capsys, "rref", f"1 2\n{literal} 1\n", "gf:7")
        assert got == (2, "error: line 2: denominator 7 vanishes in GF(7)\n")

    def test_repeated_vanishing_denominator_names_its_first_line(self, tmp_path, capsys):
        got = self._run(tmp_path, capsys, "rref", "1 2\n3 1/32003\n1/32003 4\n", "gf:32003")
        assert got == (2, "error: line 2: denominator 32003 vanishes in GF(32003)\n")


class TestGoldenOutputs:
    def test_rref(self, t_path, capsys):
        assert main(["rref", t_path]) == 0
        assert capsys.readouterr().out == "1 0 3 -2 0\n0 1 1 -3 0\n0 0 0 0 1\n"

    def test_pivots(self, t_path, capsys):
        assert main(["pivots", t_path]) == 0
        assert capsys.readouterr().out == "1 2 5\n"

    def test_graph(self, t_path, capsys):
        assert main(["graph", t_path]) == 0
        assert capsys.readouterr().out == (
            "x1 = -3*x3 + 2*x4\nx2 = -1*x3 + 3*x4\nx5 = 0*x3 + 0*x4\n"
        )

    def test_check_identity(self, eye_path, capsys):
        assert main(["check", eye_path]) == 0
        assert capsys.readouterr().out == "RREF\n"

    def test_check_unreduced(self, t_path, capsys):
        assert main(["check", t_path]) == 1
        assert capsys.readouterr().out == "NOT RREF: Pivots\n"

    def test_basis(self, t_path, capsys):
        assert main(["basis", t_path]) == 0
        assert capsys.readouterr().out == "2 -3 1\n1 4 1\n2 3 2\n"

    def test_null(self, t_path, capsys):
        assert main(["null", t_path]) == 0
        assert capsys.readouterr().out == "-3 -1 1 0 0\n2 3 0 1 0\n"


class TestEquiv:
    def test_row_equivalent_pair(self, t_path, tmp_path, capsys):
        j_path = tmp_path / "J.mat"
        j_path.write_text(J_TEXT)
        assert main(["equiv", t_path, str(j_path)]) == 0
        assert capsys.readouterr().out == "ROW-EQUIVALENT\n"

    def test_not_equivalent(self, tmp_path, capsys):
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("1 0\n0 1\n")
        b.write_text("1 0\n0 0\n")
        assert main(["equiv", str(a), str(b)]) == 1
        assert capsys.readouterr().out == "NOT ROW-EQUIVALENT\n"

    def test_exit_agrees_with_library(self, tmp_path):
        rng = random.Random(17)
        for _ in range(15):
            a = random_matrix(rng, 3, 4, QQ)
            b = random_matrix(rng, 3, 4, QQ)
            pa, pb = tmp_path / "ra.mat", tmp_path / "rb.mat"
            pa.write_text(str(a) + "\n")
            pb.write_text(str(b) + "\n")
            expected = 0 if row_equivalent(a, b) else 1
            assert main(["equiv", str(pa), str(pb)]) == expected

    def test_shape_mismatch_is_an_error(self, t_path, eye_path, capsys):
        assert main(["equiv", t_path, eye_path]) == 2
        assert "error:" in capsys.readouterr().err


class TestScript:
    def test_replay_reproduces_rref_output(self, t_path, capsys):
        assert main(["script", t_path]) == 0
        script_text = capsys.readouterr().out
        assert main(["rref", t_path]) == 0
        rref_text = capsys.readouterr().out
        replayed = apply_ops(matrix_t(), parse_ops(script_text, QQ))
        assert str(replayed) + "\n" == rref_text

    def test_reduced_input_gives_empty_script(self, eye_path, capsys):
        assert main(["script", eye_path]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=str)
    def test_script_builds_no_rref(self, field, tmp_path, capsys, monkeypatch):
        """`script` prints the oracle's log without building its reduced
        form: over GF(p) it unpacks at most one row per pivot (the pivot row,
        when chosen), not every row again at the end; over Q it takes one
        quotient per logged coefficient and none to divide the rows back."""
        m = random_matrix(random.Random(2024), 12, 13, field)
        path = tmp_path / "m.mat"
        path.write_text(str(m) + "\n")
        pivots = len(gauss_jordan(m).pivot_set)
        name = "quotients" if field.modulus is None else "unpack"
        calls = []
        kernel = getattr(FieldSpec, name)
        monkeypatch.setattr(
            FieldSpec, name, lambda self, *args: calls.append(1) or kernel(self, *args)
        )
        flag = "q" if field.modulus is None else f"gf:{field.modulus}"
        assert main(["script", str(path), "--field", flag]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert pivots == 12 and lines
        if field.modulus is None:
            assert len(calls) == sum(not line.startswith("swap") for line in lines)
        else:
            assert 0 < len(calls) <= pivots


class TestSolve:
    def test_consistent_system(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text(T_SYSTEM)
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == (
            "particular: 0 0 0 0 1\nhomogeneous: -3 -1 1 0 0\nhomogeneous: 2 3 0 1 0\n"
        )

    def test_inconsistent_system(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("1 1 | 0\n1 1 | 1\n")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().out == "INCONSISTENT\n"


class TestSyseq:
    def test_scaled_twin(self, tmp_path, capsys):
        a = tmp_path / "a.sys"
        b = tmp_path / "b.sys"
        a.write_text("1 2 | 3\n0 1 | 1\n")
        b.write_text("2 4 | 6\n0 1 | 1\n")
        assert main(["syseq", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "SOLUTION-EQUIVALENT\n"

    def test_different_solutions(self, tmp_path, capsys):
        a = tmp_path / "a.sys"
        b = tmp_path / "b.sys"
        a.write_text("1 0 | 1\n0 1 | 0\n")
        b.write_text("1 0 | 0\n0 1 | 1\n")
        assert main(["syseq", str(a), str(b)]) == 1
        assert capsys.readouterr().out == "NOT SOLUTION-EQUIVALENT\n"

    def test_inconsistent_input_is_an_error(self, tmp_path, capsys):
        a = tmp_path / "a.sys"
        b = tmp_path / "b.sys"
        a.write_text("1 0 | 1\n0 1 | 0\n")
        b.write_text("1 1 | 0\n1 1 | 1\n")
        assert main(["syseq", str(a), str(b)]) == 2
        assert "error:" in capsys.readouterr().err


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
def test_large_gf_goldens(p, cmd, tmp_path, capsys):
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(41)] for _ in range(40)]
    if cmd == "solve":
        text = "".join(" ".join(map(str, row[:-1])) + f" | {row[-1]}\n" for row in rows)
    else:
        text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, digest = LARGE_GOLDENS[p, cmd]
    assert main([cmd, "--field", f"gf:{p}", str(path)]) == code
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (digest, "")


class TestJsonFormat:
    @pytest.mark.parametrize(
        ("cmd", "texts", "code", "out"), JSON_GOLDENS.values(), ids=JSON_GOLDENS
    )
    def test_exact_stdout(self, cmd, texts, code, out, tmp_path, capsys):
        paths = [tmp_path / f"in{k}.txt" for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text)
        assert main([cmd, *map(str, paths), "--format", "json"]) == code
        assert capsys.readouterr() == (out, "")

    def test_rref(self, t_path, capsys):
        assert main(["rref", t_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "rref": [
                ["1", "0", "3", "-2", "0"],
                ["0", "1", "1", "-3", "0"],
                ["0", "0", "0", "0", "1"],
            ]
        }

    def test_check_failure_names_the_condition(self, t_path, capsys):
        assert main(["check", t_path, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"rref": False, "violated": "Pivots"}

    def test_solve(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("1 0 | 1\n0 1 | 2\n")
        assert main(["solve", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "consistent": True,
            "particular": ["1", "2"],
            "basis": [],
        }


class TestLongAnswers:
    @needs_digit_limit
    def test_answers_over_the_digit_limit_print_in_full(self, tmp_path, capsys):
        # 64-bit a/b entries: the reduced form has entries of 4,792 digits
        m = random_fraction_matrix(random.Random(2022), 16, 17, QQ, bound=2**63)
        path = tmp_path / "wide.mat"
        path.write_text(str(m) + "\n")
        assert main(["rref", str(path)]) == 0
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT
        sys.set_int_max_str_digits(0)
        try:
            expected = str(gauche_rref(m).rref) + "\n"
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)
        assert capsys.readouterr().out == expected
        assert max(len(token) for token in expected.split()) > DIGIT_LIMIT


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_cli_path_makes_no_scalar(field, tmp_path, capsys, monkeypatch):
    """Every command, script among them (it prints the oracle's raw op log),
    reads, reduces and prints raw values on a wide low-rank input: no Scalar
    is made on the way."""
    m = random_low_rank_matrix(random.Random(5), 8, 60, 3, field)
    mat_path, sys_path = tmp_path / "m.mat", tmp_path / "m.sys"
    mat_path.write_text(str(m) + "\n")
    sys_path.write_text(
        "".join(" | ".join(row.rsplit(" ", 1)) + "\n" for row in str(m).splitlines())
    )
    calls = []
    init, raw = Scalar.__init__, Scalar._raw
    monkeypatch.setattr(
        Scalar, "__init__", lambda s, spec, v: calls.append("__init__") or init(s, spec, v)
    )
    monkeypatch.setattr(
        Scalar, "_raw", classmethod(lambda cls, spec, v: calls.append("_raw") or raw(spec, v))
    )
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    for cmd, paths, code in [
        ("rref", [mat_path], 0), ("pivots", [mat_path], 0), ("basis", [mat_path], 0),
        ("null", [mat_path], 0), ("graph", [mat_path], 0), ("check", [mat_path], 1),
        ("script", [mat_path], 0), ("solve", [sys_path], 0), ("equiv", [mat_path, mat_path], 0),
        ("syseq", [sys_path, sys_path], 0),
    ]:
        for fmt in ("plain", "json"):
            assert main([cmd, *map(str, paths), "--field", flag, "--format", fmt]) == code
    assert capsys.readouterr().err == ""
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
def test_script_text_is_format_op_and_replays(field, bound, tmp_path, capsys):
    """script prints the oracle's raw log; format_op writes the RowOps of
    gauss_jordan. Both texts agree line by line, plain and JSON, and the
    printed script replays the input to the sweep's RREF."""
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    for name, m in _script_shapes(field, bound).items():
        path = tmp_path / f"{name}.mat"
        path.write_text(str(m) + "\n")
        expected = [format_op(op) for op in gauss_jordan(m).ops]
        assert main(["script", str(path), "--field", flag]) == 0
        text = capsys.readouterr().out
        assert text.splitlines() == expected, name
        assert main(["script", str(path), "--field", flag, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ops": expected}, name
        assert apply_ops(m, parse_ops(text, field)) == gauche_rref(m).rref, name
        if name == "identity":
            assert expected == []
        elif name == "swap":
            assert expected[0] == "swap 1 2"


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_graph_formats_each_coefficient_once(fmt, t_path, capsys, monkeypatch):
    """Both renderings of `graph` come from one list of literals: on T (3
    pivot expressions over 2 free variables) 6 values are formatted."""
    formatted = []
    fmt_values = echelon.cli.format_values

    def counted(values):
        formatted.extend(values)
        return fmt_values(values)

    monkeypatch.setattr(echelon.cli, "format_values", counted)
    monkeypatch.setattr(echelon.nullspace, "format_values", counted)
    assert main(["graph", t_path, "--format", fmt]) == 0
    capsys.readouterr()
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
    cmd, text, count, made, fmt, tmp_path, capsys, monkeypatch
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
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert main([cmd, str(path), "--format", fmt]) == 0
    capsys.readouterr()
    assert len(formatted) == count
    assert len(vectors) == made


def _render(rows: list[list[str]]) -> str:
    return "".join(" ".join(row) + "\n" for row in rows)


def _reference_null(m: Matrix) -> tuple[int, str, dict]:
    """null's exit code, stdout and JSON payload, each entry of each
    null_basis vector rendered on its own."""
    nb = null_basis(m)
    basis = [[str(x) for x in v.entries] for v in nb.basis]
    return 0, _render(basis), {"free": list(nb.free_indices), "basis": basis}


def _reference_solve(system: LinearSystem) -> tuple[int, str, dict]:
    """solve's exit code, stdout and JSON payload, each entry of each vector
    of the solution set rendered on its own."""
    sol = solve(system)
    if isinstance(sol, Inconsistent):
        return 1, "INCONSISTENT\n", {"consistent": False}
    particular = [str(x) for x in sol.particular.entries]
    basis = [[str(x) for x in v.entries] for v in sol.homogeneous.basis]
    text = _render([["particular:", *particular]] + [["homogeneous:", *v] for v in basis])
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


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, out.getvalue()


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
    with tempfile.TemporaryDirectory() as work:
        mat_path, sys_path = Path(work, "m.mat"), Path(work, "m.sys")
        mat_path.write_text(f"{m}\n")
        sys_path.write_text("".join(f"{m.row(i + 1)} | {b}\n" for i, b in enumerate(rhs.entries)))
        for cmd, path, (code, text, payload) in [
            ("null", mat_path, _reference_null(m)),
            ("solve", sys_path, _reference_solve(LinearSystem(m, rhs))),
        ]:
            argv = [cmd, str(path), "--field", flag]
            assert _cli(argv) == (code, text)
            json_code, json_text = _cli(argv + ["--format", "json"])
            assert (json_code, json.loads(json_text)) == (code, payload)
    if kind == "full":
        assert _reference_null(m)[1] == ""
    if kind == "zero":
        assert null_basis(m).free_indices == tuple(range(1, m.cols + 1))


class TestFieldFlag:
    def test_prime_field_reduction(self, t_path, capsys):
        assert main(["rref", t_path, "--field", "gf:7"]) == 0
        assert capsys.readouterr().out == "1 0 3 5 0\n0 1 1 4 0\n0 0 0 0 1\n"

    def test_composite_modulus_rejected(self, t_path, capsys):
        assert main(["rref", t_path, "--field", "gf:6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_modulus_too_large_to_decide_rejected(self, t_path, capsys):
        assert main(["rref", t_path, "--field", f"gf:{2**89 - 1}"]) == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["gf:3_1", "gf:+7", "gf: 7", "gf:\u0667"])
    def test_modulus_is_plain_ascii_digits(self, t_path, capsys, flag):
        assert main(["rref", t_path, "--field", flag]) == 2
        assert "modulus must be an integer" in capsys.readouterr().err

    def test_unknown_field_rejected(self, t_path, capsys):
        assert main(["rref", t_path, "--field", "r"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["rref", "/nonexistent/file.mat"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("1 2\n3\n")
        assert main(["rref", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x"]) == 2


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
    def test_options_between_files(self, mixed, last, capsys):
        assert main(last) == 0
        expected = capsys.readouterr()
        assert expected.out and not expected.err
        assert main(mixed) == 0
        assert capsys.readouterr() == expected

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
    def test_wrong_file_count_is_a_usage_error(self, argv, error, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: echelon ")
        assert argv[0] in captured.err
        assert captured.err.splitlines()[-1] == f"echelon: error: {error}"

    @pytest.mark.parametrize("argv", [["--help"], ["rref", "--help"]], ids=" ".join)
    def test_help_lists_every_command(self, argv, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        names = "rref pivots basis null graph check script solve equiv syseq".split()
        assert list(echelon.cli._COMMANDS) == names
        for name, (*_, help_text) in echelon.cli._COMMANDS.items():
            assert any(
                line.split()[:1] == [name] and line.endswith(help_text) for line in lines
            ), name


def test_one_parser_per_call(t_path, capsys, monkeypatch):
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

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    echelon.cli.build_parser.cache_clear()  # as in a fresh process
    assert [run(argv)[0] for argv in plain] == [0, 0, 0]
    assert made == []
    for first, code in zip(others, codes):
        echelon.cli.build_parser.cache_clear()
        made.clear()
        built = run(first)
        assert made == [1] and built[0] == code, first
        assert [run(argv)[0] for argv in plain + others] == [0, 0, 0] + codes
        assert run(first) == built, first
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


def test_every_format_value_is_checked(t_path, capsys):
    """A bad --format is an error even when a good one follows it, as
    argparse checks each value it reads, not only the last."""
    assert main(["rref", t_path, "--format", "bogus", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --format: invalid choice: 'bogus'" in err


def test_usage_rendered_once(t_path, capsys, monkeypatch):
    """Valid calls after the first main call do not render the usage text:
    the parser keeps it from when it was built."""
    assert main(["rref", t_path]) == 0
    rendered = []
    format_usage = argparse.ArgumentParser.format_usage
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "format_usage",
        lambda self: rendered.append(1) or format_usage(self),
    )
    for argv in (["rref", t_path], ["equiv", t_path, "--field", "gf:7", t_path], ["null", t_path]):
        assert main(argv) == 0
    assert rendered == []
    # the counter does count
    assert main(["rref"]) == 2
    assert rendered
    capsys.readouterr()


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
    path.write_text(" ".join(["1"] * 800) + "\n")  # 799 null vectors, over 1 MB
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
