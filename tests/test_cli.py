"""Command-line surface: file parsing, golden outputs, exit codes."""
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import echelon.cli
from echelon import (
    GF,
    QQ,
    Matrix,
    ParseError,
    Scalar,
    apply_ops,
    gauche_rref,
    parse_ops,
    row_equivalent,
)
from echelon.cli import format_matrix, main, parse_matrix, parse_system

from helpers import (
    GF7,
    matrix_t,
    random_fraction_matrix,
    random_low_rank_matrix,
    random_matrix,
    sc,
    vec,
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="no int digit limit in this interpreter"
)

T_TEXT = "2 1 7 -7 2\n-3 4 -5 -6 3\n1 1 4 -5 2\n"


@pytest.fixture
def t_path(tmp_path):
    path = tmp_path / "T.mat"
    path.write_text(T_TEXT)
    return str(path)


@pytest.fixture
def eye_path(tmp_path):
    path = tmp_path / "I.mat"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n")
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
        j_path.write_text("1 0 3 -2 0\n0 1 1 -3 0\n0 0 0 0 1\n")
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
            pa.write_text(format_matrix(a) + "\n")
            pb.write_text(format_matrix(b) + "\n")
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
        assert format_matrix(replayed) + "\n" == rref_text

    def test_reduced_input_gives_empty_script(self, eye_path, capsys):
        assert main(["script", eye_path]) == 0
        assert capsys.readouterr().out == ""


class TestSolve:
    def test_consistent_system(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("2 1 7 -7 2 | 2\n-3 4 -5 -6 3 | 3\n1 1 4 -5 2 | 2\n")
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


class TestJsonFormat:
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
        path.write_text(format_matrix(m) + "\n")
        assert main(["rref", str(path)]) == 0
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT
        sys.set_int_max_str_digits(0)
        try:
            expected = format_matrix(gauche_rref(m).rref) + "\n"
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)
        assert capsys.readouterr().out == expected
        assert max(len(token) for token in expected.split()) > DIGIT_LIMIT


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_cli_path_makes_no_scalar(field, tmp_path, capsys, monkeypatch):
    """rref, null, check and solve on a wide low-rank input read, reduce
    and print raw values: no Scalar is made on the way."""
    m = random_low_rank_matrix(random.Random(5), 8, 60, 3, field)
    mat_path, sys_path = tmp_path / "m.mat", tmp_path / "m.sys"
    mat_path.write_text(format_matrix(m) + "\n")
    sys_path.write_text(
        "".join(" | ".join(row.rsplit(" ", 1)) + "\n" for row in format_matrix(m).splitlines())
    )
    calls = []
    init, make = Scalar.__init__, Scalar._make
    monkeypatch.setattr(
        Scalar, "__init__", lambda s, spec, v: calls.append("__init__") or init(s, spec, v)
    )
    monkeypatch.setattr(
        Scalar, "_make", staticmethod(lambda spec, v: calls.append("_make") or make(spec, v))
    )
    flag = "q" if field.modulus is None else f"gf:{field.modulus}"
    for cmd, path, code in [
        ("rref", mat_path, 0), ("null", mat_path, 0), ("check", mat_path, 1),
        ("solve", sys_path, 0),
    ]:
        for fmt in ("plain", "json"):
            assert main([cmd, str(path), "--field", flag, "--format", fmt]) == code
    assert capsys.readouterr().err == ""
    assert calls == []
    # the counters do count
    Scalar(field, 2)
    Scalar._make(field, 2)
    assert calls == ["__init__", "_make"]


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


@pytest.mark.parametrize("field", [QQ, GF7], ids=str)
def test_parse_print_roundtrip(field):
    rng = random.Random(404)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), field)
        assert parse_matrix(format_matrix(m), field) == m


def _run_cli(*args):
    """Run `python -m echelon ARGS` in a child process that imports the
    echelon package under test, not some other installed copy."""
    package_root = str(Path(echelon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "echelon", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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
