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
and against itself with the right-hand side moved, and a pair whose
coefficient ranks differ. The crafted inputs on which the image mod P or
the rank loop mod q fails are written from the table in tests/crafted.py,
which names each and says how it fails; they run as: `syseq` of the
identity system against systems whose coefficient part loses rank mod P
(one equivalent, one not) or mod q, so that the rank shortcut and the
exact sweep each decide; `syseq` pairs whose second system fails the
inclusion and cannot be shown consistent on the image of its sweep (the
pairs of crafted.FALLBACKS), at 2 rows and at 16, since the image is tried
only from 16 rows; `null`, `graph`, `solve` and `syseq` on three 16-row
inputs on which the image RREF is refused, one for each branch of that
route; and `pivots` and `basis` on matrices whose image mod q or mod P
drops rank or does not exist, so that the rank shortcut falls back or
proves rank. Then `rref`, `null` and `graph` on a Q matrix whose first
column is zero and whose keeper columns, over distinct denominators, are
each followed by a column on all the keepers so far, and `rref` on a
seeded 10x11 matrix of a/b literals with 64-bit a and b; `equiv` pairs
that differ only in their first column and only in their last; `script`
on an all-zero matrix and the identity (empty logs), on a GF(2) matrix
whose first pivot needs a swap and on a Q matrix of a/b literals
(Fraction coefficients); `pivots` and `basis` on a wide full-row-rank Q
matrix; and `rref` on a malformed literal, a ragged row, a non-UTF-8 byte
and a missing file, so diagnostics and exit code 2 are
compared too. Last come argv forms, each run as it
stands: help, no arguments, an unknown command, a missing and an extra FILE,
options before the command, `--field=V`, an abbreviated `--fo`, a format
argparse rejects, a trailing `--field`, `--` before a file, a repeated
`--field`, a rejected `--format` followed by a good one, `-h`, an
ambiguous `--f`, an unknown option, and the abbreviated `--fo` a second
time, so that help, usage and error text are compared too, and a tree that
keeps a parser between calls is compared with one that builds one per
call. Prints the number of runs, of
edge-case runs among them, and each run that differs; exits 1 if any does,
and 2, with the child's stderr, if a child itself fails (for example, when a
tree does not import). Last it prints the size of `src/echelon` in both
trees, as `src/echelon: A -> B lines, C -> D code lines`: code lines are the
lines that hold a token other than a comment, a newline or indentation (per
`tokenize`), less the lines of module, class and function docstrings (per
`ast`). Then it reports how many modules outside echelon a fresh
`python -I -S` loads under each tree to import `echelon.cli` and run one
plain GF(7) `rref`, as `start-up modules: A -> B (added: ...; removed:
...)`, naming each module only one tree loads; this line only reports, and
leaves the exit code alone.
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
from crafted import CRAFTED, SYSTEMS, rows_text  # noqa: E402

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


# run in a fresh `python -I -S`, as the bench's worker runs: argv 1 is the
# src directory, argv 2 a GF(7) matrix file; prints, one a line, the modules
# outside echelon that `import echelon.cli` and one plain `rref` load
_STARTUP = """
import io, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import echelon.cli
sys.stdout = io.StringIO()
echelon.cli.main(["rref", sys.argv[2], "--field", "gf:7"])
sys.stdout = sys.__stdout__
print("\\n".join(sorted(n for n in set(sys.modules) - before if n.split(".")[0] != "echelon")))
"""


def _child(src: str, *args: str) -> str:
    """The stdout of `python *args` run on the tree src; exits 2 with the
    child's stderr if it fails."""
    child = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    if child.returncode != 0:
        sys.stderr.write(f"the child under {src} exited {child.returncode}:\n{child.stderr}")
        sys.exit(2)
    return child.stdout


def _outputs(src: str, argvs_path: str) -> list:
    return json.loads(_child(src, "-c", _CHILD, src, argvs_path))


def _startup_modules(src: str) -> set[str]:
    """The modules outside echelon that a fresh interpreter loads to import
    the tree's CLI and run one plain GF(7) `rref`."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "m.mat")
        with open(path, "w") as fh:
            fh.write("2 4\n1 3\n")
        return set(_child(src, "-I", "-S", "-c", _STARTUP, src, path).split())


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
        old_mods, new_mods = _startup_modules(old_src), _startup_modules(new_src)
        added = ", ".join(sorted(new_mods - old_mods)) or "none"
        removed = ", ".join(sorted(old_mods - new_mods)) or "none"
        print(
            f"start-up modules: {len(old_mods)} -> {len(new_mods)} "
            f"(added: {added}; removed: {removed})"
        )
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


# the crafted inputs of tests/crafted.py by file name: a .mat file holds
# the rows as a matrix, a .sys file as a system
_CRAFTED_FILES = {
    "ok.sys": SYSTEMS["eye"],
    "column.sys": SYSTEMS["column"],
    "minor_p.mat": CRAFTED["minor-P"],
    "inverse_p.mat": CRAFTED["1/P-rank-1"],
    "minor_q.mat": CRAFTED["minor-q"],
    "inverse_q.mat": CRAFTED["1/q-rank-1"],
    "diag_p.sys": SYSTEMS["drop-P"],
    "diag_p_moved.sys": SYSTEMS["drop-P-moved"],
    "diag_q.sys": SYSTEMS["drop-q"],
    "column_p.sys": CRAFTED["diag(1,P)"],
    "inverse_p.sys": CRAFTED["1/P"],
    "thirds40.sys": CRAFTED["2^40/3"],
    "thirds43.sys": CRAFTED["2^43/3"],
    # the 16-row systems, also as unbarred matrices
    **{
        f"{name}.{ext}": SYSTEMS[key]
        for name, key in [
            ("diag_p16", "diag-P-ones"),
            ("thirds16", "2^40/3-16rows"),
            ("diag_q16", "diag-q-ones"),
            ("eye16", "eye16"),
            ("column_p16", "zero-mod-P-16rows"),
            ("inverse_p16", "1/P-16rows"),
            ("thirds43_16", "2^43/3-16rows"),
        ]
        for ext in ("sys", "mat")
    },
}


def _int64_fractions(rows: int, cols: int) -> bytes:
    """A seeded rows x cols matrix of a/b literals with 64-bit a and b."""
    rng = random.Random(2022)
    return rows_text(
        [[f"{rng.randint(-(2**63), 2**63)}/{rng.randint(1, 2**63)}" for _ in range(cols)]
         for _ in range(rows)]
    ).encode()


# inputs no corpus holds, so that diagnostics and exit code 2 are diffed too:
# file name -> bytes, then the argvs that read them (with --format appended)
_EDGE_FILES = {
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
    "wide_full.mat": b"1 2 0 -1 3 0 1\n0 1 1 2 -1 1 0\n2 -3 1 1/2 4 0 5\n",
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
        name: rows_text(rows, bar=name.endswith(".sys")).encode()
        for name, rows in _CRAFTED_FILES.items()
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
    ["rref", "-h"],
    ["rref", "eye.mat", "--f", "q"],
    ["rref", "eye.mat", "--bogus"],
    ["rref", "fractions.mat", "--fo", "json"],
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
