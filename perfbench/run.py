"""echelon's benchmark: seeded corpora of CLI jobs, verified, timed per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed, runs it in a fresh worker
interpreter (src/ on its path, no install needed), verifies every distinct
output with perfbench/verify.py outside the timed region, and prints one
JSON object as the last line of stdout. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs untraced and traced passes and
reports the per-layer metrics. Each run's full record goes to
perfbench/out/. See perfbench/README.md for the definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import corpus
import layertrace
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 16
# nominal seconds of passes.reference() and passes.setup_reference():
# normalized times read as seconds on a machine where the calibration tasks
# take this long
REFERENCE_S = 0.002
SETUP_REFERENCE_S = 0.006
WORKER_TIMEOUT_S = 120
# an integer entry that is not part of a fraction
_FIRST_INT = re.compile(r"(?<![\w/-])-?\d+(?![\w/])")


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; a plain
    source tree reports 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _launch(workdir: str, mode: str, seconds: float) -> dict:
    cmd = [sys.executable, "-I", "-S", os.path.join(HERE, "worker.py"), workdir, mode, str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(workdir, f"result-{mode}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _verify(jobs, workdir, passes):
    """Failed job count over all passes, per-job reasons, and whether the
    verifier rejected two deliberately corrupted results."""
    reasons = {}
    results = []
    for i, job in enumerate(jobs):
        with open(os.path.join(workdir, "out", f"{i}.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        results.append(res)
        why = verify.check(job, res["code"], res["out"], res["err"])
        if why is not None:
            reasons[i] = f"{job.cls}: {why}"
    failed = 0
    for rows in passes:
        for i, (_, _, same, _) in enumerate(rows):
            if i in reasons or not same:
                failed += 1
                if not same:
                    reasons.setdefault(i, f"{jobs[i].cls}: output differs between passes")
    return failed, reasons, _rejects_corruption(jobs, results, reasons)


def _rejects_corruption(jobs, results, reasons) -> bool:
    """Corrupted copies of good outputs must all be rejected, so a zero
    failure count cannot hold by construction: one entry bumped, one op
    appended to a script, and, where the workload has verdict jobs, one
    verdict flipped with its exit code kept."""
    good = [i for i in range(len(jobs)) if i not in reasons]

    def first(cmds):
        return next((i for i in good if jobs[i].cmd in cmds), None)

    entry, script = first(("rref", "pivots", "basis", "null")), first(("script",))
    if entry is None or script is None:
        return False
    out = results[entry]["out"]
    corrupted = [(entry, _FIRST_INT.sub(lambda m: str(int(m.group()) + 1), out, count=1))]
    # scaling row 1 of a reduced matrix by 2 breaks its leading 1, or over
    # GF(2) is no invertible operation
    corrupted.append((script, "\n".join(results[script]["out"].splitlines() + ["scale 1 2"])))
    verdict = first(("equiv", "syseq", "check"))
    if verdict is not None:
        out = results[verdict]["out"]
        corrupted.append((verdict, out[4:] if out.startswith("NOT ") else "NOT " + out))
    return all(
        verify.check(jobs[i], results[i]["code"], out, results[i]["err"]) is not None
        for i, out in corrupted
    )


def _speed(calibration):
    """Calibration seconds at the machine's least-loaded moments nearby: the
    lower quartile, like a job's best time over several passes."""
    return statistics.quantiles(calibration, n=4)[0]


def _normalized(rows):
    """Job seconds at the machine speed where the worker's calibration task
    takes REFERENCE_S, each job scaled by the five calibration runs nearest
    to it."""
    calib = [row[3] for row in rows]
    return [row[0] * REFERENCE_S / _speed(calib[max(0, i - 2): i + 3])
            for i, row in enumerate(rows)]


def _end_to_end(passes, setups, rss_kb):
    """Timings from each distinct job's best normalized time over the passes."""
    best = [min(times) for times in zip(*map(_normalized, passes))]
    setup = [s["setup_s"] * SETUP_REFERENCE_S / _speed(s["setup_calibration"]) for s in setups]
    return {
        "jobs_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
        "job_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
        "job_p90_ms": {"value": 1000 * statistics.quantiles(best, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def _span_groups(path):
    """Span groups (one per traced job) streamed from the worker's file."""
    group: list = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                if group:
                    yield group
                group = []
                continue
            index, start, end, parent, job = line.split()
            group.append((int(index), float(start), float(end), int(parent), int(job)))
    if group:
        yield group


def _per_layer(result, workdir, jobs_per_pass):
    """Per-layer metrics, per corpus pass, from the traced passes."""
    pairs = len(result["traced"])
    totals = layertrace.summarize(_span_groups(os.path.join(workdir, "spans.txt")),
                                  result["names"])
    units = {"self_s": "s", "parse_s": "s", "calls": "count", "sweeps": "count",
             "columns": "count"}
    metrics = {key: {"value": value / pairs, "unit": units[key.split(".", 1)[1]]}
               for key, value in totals.items()}
    metrics["gauche.sweeps_per_job"] = {
        "value": totals["gauche.sweeps"] / (pairs * jobs_per_pass), "unit": "1/job"}
    metrics["rowops.ops_logged"] = {"value": result["ops_logged"], "unit": "count"}
    untraced = sum(sum(_normalized(rows)) for rows in result["passes"])
    traced = sum(sum(_normalized(rows)) for rows in result["traced"])
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1, "unit": "fraction"}
    return metrics


def _by_class(jobs, passes):
    """Median seconds per job class, for the record."""
    times: dict[str, list] = {}
    for rows in passes:
        for job, row in zip(jobs, rows):
            times.setdefault(job.cls, []).append(row[0])
    return {cls: statistics.median(ts) for cls, ts in sorted(times.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "echelon", "cli.py")):
        print(f"error: no echelon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        jobs = corpus.build(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "warmup.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(corpus.smallest(jobs).argv))
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump([{"argv": j.argv} for j in jobs], fh)

        mode = "trace" if args.trace else "run"
        # set-up launches before and after the main worker, so one burst of
        # machine load cannot move them all
        launches = 0 if args.trace else SETUP_LAUNCHES // 2
        setups = [_launch(workdir, "setup", 0) for _ in range(launches)]
        started = time.perf_counter()
        result = _launch(workdir, mode, args.seconds)
        measured_s = time.perf_counter() - started
        setups += [_launch(workdir, "setup", 0) for _ in range(launches)]
        passes = result["passes"] + result.get("traced", [])
        shutil.copy(os.path.join(workdir, f"result-{mode}.json"),
                    os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.times.json"))
        failed, reasons, rejects = _verify(jobs, workdir, passes)
        attempted = sum(len(rows) for rows in passes)

        if args.trace:
            metrics = _per_layer(result, workdir, len(jobs))
            shutil.copy(os.path.join(workdir, "spans.txt"),
                        os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.txt"))
        else:
            metrics = _end_to_end(passes, setups + [result], result["peak_rss_kb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": len(result["passes"]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "verifier_rejects_corruption": rejects,
        "worker_wall_s": measured_s,
        "failures": reasons,
        "absent_names": result.get("absent", []),
        "class_median_s": _by_class(jobs, result["passes"]),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for why in list(reasons.values())[:10]:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and rejects,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
