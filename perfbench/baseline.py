"""Run the benchmark over many seeds and summarize it, one run at a time.

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

For each workload in BENCHMARK.json it runs perfbench/run.py once per seed
untraced, and once traced on the first seed. Per end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, flagged when that spread is not below a third of the metric's bound
in BENCHMARK.json. With --out it writes the summary as JSON, replacing the
file. That is how perfbench/baseline.json was made: the numbers the next
change diffs against.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    summary = {"commit": run._commit(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "seconds": args.seconds, "seeds": seeds,
               "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        print(f"{workload}: attempted {entry['attempted']}, failed {sum(entry['failed'])}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- not below bound/3"
            steady = steady and spread < bound / 3
            print(f"  {name:12s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:6.3f} (bound {bound}){flag}")
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": values}
        traced = _run(workload, seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
