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
`raised <Type>: <message>` in place of its exit code. Prints the number of
runs and each one that differs; exits 1 if any does, and 2, with the child's
stderr, if a child itself fails (for example, when a tree does not import).
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


def _compare(old_src: str, new_src: str, seeds: str) -> int:
    runs = differ = 0
    for workload in sorted(corpus.WORKLOADS):
        for seed in map(int, seeds.split(",")):
            with tempfile.TemporaryDirectory() as work:
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
                    print(f"DIFFERS {workload} seed {seed}: {' '.join(argv)}")
                    print(f"  old {a!r}\n  new {b!r}")
            runs += len(argvs)
    print(f"{runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
