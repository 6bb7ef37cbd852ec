"""Compare what two source trees of echelon print on the benchmark corpora.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1,2]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Either may
instead name a git revision of this repository (`HEAD~1`, a commit hash):
that revision's `src/` is exported with `git archive` to a temporary
directory, so `python tests/compare_outputs.py HEAD src` checks the working
tree against the last commit in one command. For each
workload of perfbench/corpus.py and each seed, the corpus is built once in a
temporary directory, and every job runs through `echelon.cli.main` under each
tree in a child process, in `--format plain` and `--format json`. The exit
code, stdout and stderr of each run are compared; a job that raises records
`raised <Type>: <message>` in place of its exit code. A fixed set of edge
cases runs the same way once: inconsistent, differently sized, GF(2) and
all-zero `syseq` pairs, a one-row all-zero pair and an all-zero system against
a nonzero one, a 4x12 rank-2 system against a row-operation image of itself
and against itself with the right-hand side moved, a pair whose
coefficient ranks differ, and the identity system against two systems whose
coefficient part diag(1, P) loses rank mod P = 268435399, the prime of the
rank shortcut (one equivalent, also run the other way round, and one not);
`syseq` pairs whose second system fails the inclusion and cannot be shown
consistent on the image of its sweep: one whose right-hand side is 0 mod P
(the candidate x = 0 is refuted, and the system is inconsistent), and, in
both orders, the identity system against one holding the literal 1/P and
against two whose solutions 2**40/3 and 2**43/3 do not reconstruct or
reconstruct wrongly mod P; `equiv` pairs that differ only in their first
column and only in their last;
`script` on an all-zero matrix and the identity (empty logs), on a GF(2)
matrix whose first pivot needs a swap and on a Q matrix of a/b literals
(Fraction coefficients); `pivots` and `basis` on a matrix whose leading 2x2
minor is P, on one holding the literal 1/P (no image mod P) and on a wide
full-row-rank Q matrix; and `rref` on a malformed literal, a ragged row, a
non-UTF-8 byte and a missing file, so diagnostics and exit code 2 are
compared too. Last come argv forms, each run once as it
stands: help, no arguments, an unknown command, a missing and an extra FILE,
options before the command, `--field=V`, an abbreviated `--fo`, a format
argparse rejects, a trailing `--field`, `--` before a file, a repeated
`--field`, and a rejected `--format` followed by a good one, so that help,
usage and error text are compared too. Prints the number of runs, of
edge-case runs among them, and each run that differs; exits 1 if any does,
and 2, with the child's stderr, if a child itself fails (for example, when a
tree does not import).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile

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
    ap.add_argument("--seeds", default="1,2", help="comma-separated corpus seeds")
    args = ap.parse_args()
    with contextlib.ExitStack() as stack:
        old_src, new_src = (_src_dir(src, stack) for src in (args.old_src, args.new_src))
        return _compare(old_src, new_src, args.seeds)


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
    # inputs whose image mod 268435399, the prime of the rank shortcut, loses
    # rank or does not exist: a leading 2x2 minor of 268435399, a literal
    # 1/268435399, and systems whose coefficient part is diag(1, 268435399)
    "minor_p.mat": b"268435399 0 1\n0 1 0\n",
    "inverse_p.mat": b"1/268435399 1\n2/268435399 2\n",
    "wide_full.mat": b"1 2 0 -1 3 0 1\n0 1 1 2 -1 1 0\n2 -3 1 1/2 4 0 5\n",
    "diag_p.sys": b"1 0 | 1\n0 268435399 | 268435399\n",
    "diag_p_moved.sys": b"1 0 | 1\n0 268435399 | 1\n",
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
    # row equivalence decided at the first column (zero against a keeper)
    # and at the last (one coefficient differs)
    "pair.mat": b"1 2 0 1\n0 1 1 2\n",
    "pair_first.mat": b"0 2 0 1\n0 1 1 2\n",
    "pair_last.mat": b"1 2 0 2\n0 1 1 2\n",
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
    ["syseq", "column.sys", "column_p.sys"],
    ["syseq", "ok.sys", "inverse_p.sys"],
    ["syseq", "inverse_p.sys", "ok.sys"],
    ["syseq", "ok.sys", "thirds40.sys"],
    ["syseq", "thirds40.sys", "ok.sys"],
    ["syseq", "ok.sys", "thirds43.sys"],
    ["syseq", "thirds43.sys", "ok.sys"],
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
