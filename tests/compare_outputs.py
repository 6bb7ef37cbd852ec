"""Compare what two source trees of echelon print on the benchmark corpora.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1,2,3]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Either may
instead name a git revision of this repository (`HEAD~1`, a commit hash):
that revision's `src/` is exported with `git archive` to a temporary
directory, so `python tests/compare_outputs.py HEAD src` checks the working
tree against the last commit in one command. For each
workload of perfbench/corpus.py and each seed (1, 2 and 3 unless `--seeds`
names others), the corpus is built once in a
temporary directory, and every job runs through `echelon.cli.main` under each
tree in a child process, in `--format plain` and `--format json`. The exit
code, stdout and stderr of each run are compared; a job that raises records
`raised <Type>: <message>` in place of its exit code. A fixed set of edge
cases runs the same way once: inconsistent, differently sized, GF(2) and
all-zero `syseq` pairs, a one-row all-zero pair and an all-zero system against
a nonzero one, a 4x12 rank-2 system against a row-operation image of itself
and against itself with the right-hand side moved, a pair whose
coefficient ranks differ, the identity system against two systems whose
coefficient part diag(1, P) loses rank mod P = 268435399, the prime of the
image sweep (one equivalent, also run the other way round, and one not),
and, in both orders, against diag(1, q) x = (1, q), which loses rank mod
q = 268435367, the prime of the rank shortcut and the certificate;
`syseq` pairs whose second system fails the inclusion and cannot be shown
consistent on the image of its sweep: one whose right-hand side is 0 mod P
(the candidate x = 0 is refuted, and the system is inconsistent), and, in
both orders, the identity system against one holding the literal 1/P and
against two whose solutions 2**40/3 and 2**43/3 do not reconstruct or
reconstruct wrongly mod P, and the same four, in both orders, as 16-row
systems against the 16-row identity system, since the image is tried only
from 16 rows; `null`, `graph`, `solve` and `syseq` on three
16-row inputs on which the image RREF is refused, one for each branch of
that route: diag(1, ..., 1, P), the system diag(3, 1, ..., 1) x = (2**40,
1, ..., 1), and diag(1, ..., 1, q) with q = 268435367, the certificate's
prime; `rref`, `null` and `graph` on a Q matrix whose first column is zero
and whose keeper columns, over distinct denominators, are each followed by
a column on all the keepers so far, and `rref` on a seeded 10x11 matrix of
a/b literals with 64-bit a and b; `equiv` pairs that differ only in their
first column and only in their last;
`script` on an all-zero matrix and the identity (empty logs), on a GF(2)
matrix whose first pivot needs a swap and on a Q matrix of a/b literals
(Fraction coefficients); `pivots` and `basis` on a matrix whose leading 2x2
minor is q, on one holding the literal 1/q (no image mod q), on the same
two with P in place of q (the first takes the rank shortcut, the second
drops rank mod q), and on a wide full-row-rank Q matrix; and `rref` on a malformed literal, a ragged row, a
non-UTF-8 byte and a missing file, so diagnostics and exit code 2 are
compared too. Last come argv forms, each run once as it
stands: help, no arguments, an unknown command, a missing and an extra FILE,
options before the command, `--field=V`, an abbreviated `--fo`, a format
argparse rejects, a trailing `--field`, `--` before a file, a repeated
`--field`, and a rejected `--format` followed by a good one, so that help,
usage and error text are compared too. Prints the number of runs, of
edge-case runs among them, and each run that differs; exits 1 if any does,
and 2, with the child's stderr, if a child itself fails (for example, when a
tree does not import). Last it prints the size of `src/echelon` in both
trees, as `src/echelon: A -> B lines, C -> D code lines`: code lines are the
lines that hold a token other than a comment, a newline or indentation (per
`tokenize`), less the lines of module, class and function docstrings (per
`ast`).
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402

# run in a child process: argv 1 is the src directory, argv 2 a JSON file of
# argvs; prints one JSON list of [exit code or raise, stdout, stderr] per argv
_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from echelon.cli import main
results = []
for argv in json.load(open(sys.argv[2])):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a raise is a differing run, not a dead child
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _outputs(src: str, argvs_path: str) -> list:
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src, argvs_path], capture_output=True, text=True
    )
    if child.returncode != 0:
        sys.stderr.write(f"the child under {src} exited {child.returncode}:\n{child.stderr}")
        sys.exit(2)
    return json.loads(child.stdout)


def _src_dir(arg: str, stack: contextlib.ExitStack) -> str:
    """arg itself when it is a directory, else the `src` of git revision arg,
    exported to a temporary directory that lives as long as the stack."""
    if os.path.isdir(arg):
        return os.path.abspath(arg)
    tmp = stack.enter_context(tempfile.TemporaryDirectory())
    archive = subprocess.run(["git", "-C", ROOT, "archive", arg, "src"], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(f"{arg} is neither a directory nor a git revision with a src/:\n")
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        sys.exit(2)
    subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
    return os.path.join(tmp, "src")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", help="a src directory or a git revision")
    ap.add_argument("new_src", help="a src directory or a git revision")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated corpus seeds")
    args = ap.parse_args()
    with contextlib.ExitStack() as stack:
        old_src, new_src = (_src_dir(src, stack) for src in (args.old_src, args.new_src))
        code = _compare(old_src, new_src, args.seeds)
        (lines, old_code), (new_lines, new_code) = _size(old_src), _size(new_src)
        print(f"src/echelon: {lines} -> {new_lines} lines, {old_code} -> {new_code} code lines")
        return code


_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _size(src: str) -> tuple[int, int]:
    """(lines, code lines) of the .py files of src/echelon, counted as the
    module docstring says."""
    lines = code = 0
    for path in sorted(glob.glob(os.path.join(src, "echelon", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines += text.count("\n")
        held = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _LAYOUT:
                held.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text, filename=path)):
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                held.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code += len(held)
    return lines, code


# 16-row inputs, at the size where null, graph, solve and syseq lay the RREF
# out from the image mod P and take it only through the certificate, each
# refused by another branch: diag(1, ..., 1, 268435399) loses rank mod P;
# the system diag(3, 1, ..., 1) x = (2**40, 1, ..., 1) has a solution with
# no reconstruction mod P; diag(1, ..., 1, 268435367) keeps full rank mod P
# and loses it mod the certificate's prime. The last three are, at 16 rows,
# the second systems that the image cannot prove consistent (see
# column_p.sys below); thirds16 is the fourth. A system's right-hand side
# is its diagonal unless given; the .mat file holds the same rows, unbarred.
_DIAGONALS = [
    ("diag_p16", [1] * 15 + [268435399], None),
    ("thirds16", [3] + [1] * 15, [2**40] + [1] * 15),
    ("diag_q16", [1] * 15 + [268435367], None),
    ("eye16", [1] * 16, None),
    ("column_p16", [1, 0] + [1] * 14, [0, 268435399] + [0] * 14),
    ("inverse_p16", [1] * 16, [1] * 15 + ["1/268435399"]),
    ("thirds43_16", [3] + [1] * 15, [2**43] + [1] * 15),
]


def _diagonal(entries: list[int], rhs: list[int], bar: list[str]) -> bytes:
    """diag(entries), each row followed by the tokens of bar and its entry of rhs."""
    rows = [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]
    return "".join(" ".join(map(str, [*row, *bar, b])) + "\n" for row, b in zip(rows, rhs)).encode()


def _int64_fractions(rows: int, cols: int) -> bytes:
    """A seeded rows x cols matrix of a/b literals with 64-bit a and b."""
    rng = random.Random(2022)
    lines = (
        " ".join(f"{rng.randint(-(2**63), 2**63)}/{rng.randint(1, 2**63)}" for _ in range(cols))
        for _ in range(rows)
    )
    return "".join(line + "\n" for line in lines).encode()


# inputs no corpus holds, so that diagnostics and exit code 2 are diffed too:
# file name -> bytes, then the argvs that read them (with --format appended)
_EDGE_FILES = {
    "ok.sys": b"1 0 | 1\n0 1 | 1\n",
    "twin.sys": b"1 1 | 0\n0 1 | 1\n",
    "inconsistent.sys": b"1 1 | 0\n1 1 | 1\n",
    "wide.sys": b"1 0 0 | 1\n0 1 0 | 1\n",
    "zero.sys": b"0 0 | 0\n0 0 | 0\n",
    "zero1.sys": b"0 0 | 0\n",
    "rank1.sys": b"1 0 0 | 1\n2 0 0 | 2\n",
    # rows r1, r2, r1 + r2 and 2*r1 - r2: rank 2
    "low.sys": (
        b"1 2 0 -1 3 0 1 1 2 0 -2 1 | 3\n"
        b"0 1 1 2 -1 1 0 3 1 1 0 -1 | 2\n"
        b"1 3 1 1 2 1 1 4 3 1 -2 0 | 5\n"
        b"2 3 -1 -4 7 -1 2 -1 3 -1 -4 3 | 4\n"
    ),
    # rows r1 + r2, r1, 2*r2 and 3*r1 - r2 of low.sys
    "low_twin.sys": (
        b"1 3 1 1 2 1 1 4 3 1 -2 0 | 5\n"
        b"1 2 0 -1 3 0 1 1 2 0 -2 1 | 3\n"
        b"0 2 2 4 -2 2 0 6 2 2 0 -2 | 4\n"
        b"3 5 -1 -5 10 -1 3 0 5 -1 -6 4 | 7\n"
    ),
    # low.sys with column 1 added to the right-hand side
    "low_moved.sys": (
        b"1 2 0 -1 3 0 1 1 2 0 -2 1 | 4\n"
        b"0 1 1 2 -1 1 0 3 1 1 0 -1 | 2\n"
        b"1 3 1 1 2 1 1 4 3 1 -2 0 | 6\n"
        b"2 3 -1 -4 7 -1 2 -1 3 -1 -4 3 | 6\n"
    ),
    "zero.mat": b"0 0 0\n0 0 0\n",
    "eye.mat": b"1 0 0\n0 1 0\n0 0 1\n",
    "swap.mat": b"0 1 1\n1 0 1\n1 1 1\n",
    "fractions.mat": b"1/2 2/3 -3/4 1\n5/6 -1/3 7/5 0\n2 1/7 3 -2/9\n",
    "literal.mat": b"1 2\n3 4x\n",
    "ragged.mat": b"1 2\n3\n",
    "bytes.mat": b"1 2\n3 \xff\n",
    # the identity over Q, rank 1 over GF(2)
    "field.mat": b"1 1\n1 3\n",
    # inputs whose image mod 268435399, the prime of the image sweep, loses
    # rank or does not exist: a leading 2x2 minor of 268435399, a literal
    # 1/268435399, and systems whose coefficient part is diag(1, 268435399);
    # the rank shortcut, mod 268435367, proves the full-rank ones
    "minor_p.mat": b"268435399 0 1\n0 1 0\n",
    "inverse_p.mat": b"1/268435399 1\n2/268435399 2\n",
    "wide_full.mat": b"1 2 0 -1 3 0 1\n0 1 1 2 -1 1 0\n2 -3 1 1/2 4 0 5\n",
    "diag_p.sys": b"1 0 | 1\n0 268435399 | 268435399\n",
    "diag_p_moved.sys": b"1 0 | 1\n0 268435399 | 1\n",
    # the same against 268435367, the prime of the rank shortcut and the
    # certificate, on which that shortcut proves nothing
    "minor_q.mat": b"268435367 0 1\n0 1 0\n",
    "inverse_q.mat": b"1/268435367 1\n2/268435367 2\n",
    "diag_q.sys": b"1 0 | 1\n0 268435367 | 268435367\n",
    # second systems that the image of their sweep cannot prove consistent:
    # a right-hand side that is 0 mod P (the image offers x = 0, which
    # refutes it, and the system is inconsistent), the literal 1/P (no
    # image), and solutions 2**40/3 (no reconstruction mod P) and 2**43/3
    # (reconstructed as 1083/8192, which refutes it)
    "column.sys": b"1 | 1\n0 | 0\n",
    "column_p.sys": b"1 | 0\n0 | 268435399\n",
    "inverse_p.sys": b"1 0 | 1\n0 1 | 1/268435399\n",
    "thirds40.sys": b"3 0 | 1099511627776\n0 1 | 1\n",
    "thirds43.sys": b"3 0 | 8796093022208\n0 1 | 1\n",
    # a zero first column, then after each of three keeper columns over
    # denominators 3, 5 and 7 a column on all the keepers so far, and e_1
    "subordinates.mat": (
        b"0 2/3 1 1/5 8/15 5/7 -169/105 1\n"
        b"0 1/3 1/2 4/5 -1/5 1/7 113/210 0\n"
        b"0 1 3/2 -2/5 19/15 1/7 -23/70 0\n"
    ),
    "int64_fractions.mat": _int64_fractions(10, 11),
    # row equivalence decided at the first column (zero against a keeper)
    # and at the last (one coefficient differs)
    "pair.mat": b"1 2 0 1\n0 1 1 2\n",
    "pair_first.mat": b"0 2 0 1\n0 1 1 2\n",
    "pair_last.mat": b"1 2 0 2\n0 1 1 2\n",
    **{
        f"{name}.{ext}": _diagonal(entries, rhs or entries, bar)
        for name, entries, rhs in _DIAGONALS
        for ext, bar in (("sys", ["|"]), ("mat", []))
    },
}

_EDGE_ARGVS = [
    ["syseq", "inconsistent.sys", "ok.sys"],
    ["syseq", "ok.sys", "inconsistent.sys"],
    ["syseq", "ok.sys", "wide.sys"],
    ["syseq", "--field", "gf:2", "ok.sys", "twin.sys"],
    ["syseq", "ok.sys", "twin.sys"],
    ["syseq", "zero.sys", "zero.sys"],
    ["syseq", "zero1.sys", "zero1.sys"],
    ["syseq", "zero.sys", "ok.sys"],
    ["syseq", "low.sys", "low_twin.sys"],
    ["syseq", "low_twin.sys", "low.sys"],
    ["syseq", "low.sys", "low_moved.sys"],
    ["syseq", "--field", "gf:7", "low.sys", "low_moved.sys"],
    ["syseq", "wide.sys", "rank1.sys"],
    ["syseq", "rank1.sys", "wide.sys"],
    ["syseq", "ok.sys", "diag_p.sys"],
    ["syseq", "diag_p.sys", "ok.sys"],
    ["syseq", "ok.sys", "diag_p_moved.sys"],
    ["syseq", "ok.sys", "diag_q.sys"],
    ["syseq", "diag_q.sys", "ok.sys"],
    ["syseq", "column.sys", "column_p.sys"],
    ["syseq", "ok.sys", "inverse_p.sys"],
    ["syseq", "inverse_p.sys", "ok.sys"],
    ["syseq", "ok.sys", "thirds40.sys"],
    ["syseq", "thirds40.sys", "ok.sys"],
    ["syseq", "ok.sys", "thirds43.sys"],
    ["syseq", "thirds43.sys", "ok.sys"],
    *(
        argv
        for name in ("diag_p16", "thirds16", "diag_q16")
        for argv in (
            ["null", f"{name}.mat"],
            ["graph", f"{name}.mat"],
            ["solve", f"{name}.sys"],
            ["syseq", f"{name}.sys", "eye16.sys"],
        )
    ),
    *(
        argv
        for name in ("column_p16", "inverse_p16", "thirds43_16")
        for argv in (["syseq", "eye16.sys", f"{name}.sys"], ["syseq", f"{name}.sys", "eye16.sys"])
    ),
    ["syseq", "eye16.sys", "thirds16.sys"],
    ["rref", "subordinates.mat"],
    ["null", "subordinates.mat"],
    ["graph", "subordinates.mat"],
    ["rref", "int64_fractions.mat"],
    ["equiv", "pair.mat", "pair_first.mat"],
    ["equiv", "pair.mat", "pair_last.mat"],
    ["solve", "zero.sys"],
    ["script", "zero.mat"],
    ["script", "eye.mat"],
    ["script", "--field", "gf:2", "swap.mat"],
    ["script", "fractions.mat"],
    ["pivots", "minor_p.mat"],
    ["basis", "minor_p.mat"],
    ["pivots", "inverse_p.mat"],
    ["basis", "inverse_p.mat"],
    ["pivots", "minor_q.mat"],
    ["basis", "minor_q.mat"],
    ["pivots", "inverse_q.mat"],
    ["basis", "inverse_q.mat"],
    ["pivots", "wide_full.mat"],
    ["basis", "wide_full.mat"],
    ["rref", "literal.mat"],
    ["rref", "ragged.mat"],
    ["rref", "bytes.mat"],
    ["rref", "missing.mat"],
]
# argv forms on both sides of the boundary between the CLI's plain-form
# reader and argparse, run as they stand (no --format appended)
_ARGV_FORMS = [
    ["--help"],
    ["rref", "--help"],
    [],
    ["frobnicate", "eye.mat"],
    ["equiv", "eye.mat"],
    ["rref", "eye.mat", "eye.mat"],
    ["--field", "gf:2", "rref", "field.mat"],
    ["rref", "field.mat", "--field=gf:2"],
    ["rref", "fractions.mat", "--fo", "json"],
    ["rref", "eye.mat", "--format", "xml"],
    ["rref", "eye.mat", "--field"],
    ["rref", "--", "field.mat"],
    ["rref", "field.mat", "--field", "q", "--field", "gf:2"],
    ["rref", "field.mat", "--format", "bogus", "--format", "json"],
]


def _edge_cases(work: str) -> list[list[str]]:
    """The edge-case argvs, plain and JSON, then the argv forms, their files
    written to work."""
    for name, data in _EDGE_FILES.items():
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(data)
    argvs = [argv + ["--format", fmt] for argv in _EDGE_ARGVS for fmt in ("plain", "json")]
    return [
        [os.path.join(work, arg) if arg.endswith((".sys", ".mat")) else arg for arg in argv]
        for argv in argvs + _ARGV_FORMS
    ]


def _compare(old_src: str, new_src: str, seeds: str) -> int:
    runs = differ = edge_runs = 0
    groups = [(w, int(seed)) for w in sorted(corpus.WORKLOADS) for seed in seeds.split(",")]
    for workload, seed in groups + [("edge cases", None)]:
        with tempfile.TemporaryDirectory() as work:
            if seed is None:
                argvs = _edge_cases(work)
            else:
                jobs = corpus.build(workload, seed, work)
                argvs = [job.argv + ["--format", fmt] for job in jobs for fmt in ("plain", "json")]
            argvs_path = os.path.join(work, "argvs.json")
            with open(argvs_path, "w") as fh:
                json.dump(argvs, fh)
            old = _outputs(old_src, argvs_path)
            new = _outputs(new_src, argvs_path)
        for argv, a, b in zip(argvs, old, new):
            if a != b:
                differ += 1
                label = workload if seed is None else f"{workload} seed {seed}"
                print(f"DIFFERS {label}: {' '.join(argv)}")
                print(f"  old {a!r}\n  new {b!r}")
        runs += len(argvs)
        edge_runs += len(argvs) if seed is None else 0
    print(f"{runs} runs ({edge_runs} edge cases), {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
