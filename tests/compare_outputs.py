"""Compare what two source trees of echelon print on the benchmark corpora.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1,2]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. For each
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--seeds", default="1,2", help="comma-separated corpus seeds")
    args = ap.parse_args()
    runs = differ = 0
    for workload in sorted(corpus.WORKLOADS):
        for seed in map(int, args.seeds.split(",")):
            with tempfile.TemporaryDirectory() as work:
                jobs = corpus.build(workload, seed, work)
                argvs = [job.argv + ["--format", fmt] for job in jobs for fmt in ("plain", "json")]
                argvs_path = os.path.join(work, "argvs.json")
                with open(argvs_path, "w") as fh:
                    json.dump(argvs, fh)
                old = _outputs(os.path.abspath(args.old_src), argvs_path)
                new = _outputs(os.path.abspath(args.new_src), argvs_path)
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
