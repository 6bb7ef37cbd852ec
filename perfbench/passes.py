"""What a worker does after set-up: calibration, passes over the corpus,
and the result file.

Jobs are read from WORKDIR/jobs.json and run one at a time (closed loop,
one client). The first pass writes each job's output to WORKDIR/out/ for
the verifier; later passes must print the same bytes. The result goes to
WORKDIR/result-MODE.json, spans of traced passes to WORKDIR/spans.txt.
"""
from __future__ import annotations

import hashlib
import json
import marshal
import os
import resource
import time
from fractions import Fraction

CALIBRATIONS = 9  # calibration runs after set-up

# ---- calibration -----------------------------------------------------------
# A fixed task resembling a job's mix: elimination over big Fractions and over
# residues, small-object churn and formatting. It is timed next to every job,
# outside the job's timer, so that run.py can divide out the machine's speed
# at that moment.

_Q = [[Fraction((7 * i + 13 * j) % 23 - 11, 1 + (i * j) % 5) * (2**40 + 3 * i + j)
       for j in range(7)] for i in range(6)]
_GF = [[(31 * i * i + 17 * j + 5) % 32003 for j in range(13)] for i in range(12)]


class _Cell:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __mul__(self, other):
        return _Cell(self.v * other.v, self.p)


def _gauss_jordan(rows, inv, mod):
    rows = [list(r) for r in rows]
    for c in range(len(rows)):
        k = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if k is None:
            continue
        rows[c], rows[k] = rows[k], rows[c]
        f = inv(rows[c][c])
        rows[c] = [mod(x * f) for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                g = rows[r][c]
                rows[r] = [mod(x - g * y) for x, y in zip(rows[r], rows[c])]
    return rows


def reference() -> float:
    """Seconds one run of the calibration task takes."""
    start = time.perf_counter()
    q = _gauss_jordan(_Q, lambda x: 1 / x, lambda x: x)
    gf = _gauss_jordan(_GF, lambda x: pow(x, -1, 32003), lambda x: x % 32003)
    acc = _Cell(1, 32003)
    for i in range(1, 400):
        acc = acc * _Cell(i, 32003)
    "\n".join(" ".join(str(x) for x in row) for row in q + gf)
    return time.perf_counter() - start


# A fixed task resembling set-up: compiling, loading and running module code
# that defines classes. Set-up is normalized by it rather than by
# reference(), because an import follows the machine's speed at compiling
# and allocating more closely than arithmetic does.

_MODULE = "\n".join(
    f"class C{i}:\n"
    f"    def __init__(self, a, b={i}):\n"
    f"        self.a, self.b = a, b\n\n"
    f"    def f(self, x):\n"
    f"        return [y * self.a for y in range(x) if y % {i + 2}]\n"
    for i in range(60))


def setup_reference() -> float:
    """Seconds one run of the set-up calibration task takes."""
    start = time.perf_counter()
    exec(marshal.loads(marshal.dumps(compile(_MODULE, "<calibration>", "exec"))), {})
    return time.perf_counter() - start


class Passes:
    def __init__(self, run_job, jobs, workdir):
        self.run_job, self.jobs, self.workdir = run_job, jobs, workdir
        self.digests: list[str] = []

    def run(self, after_job=None) -> list:
        """One pass over the corpus: per job (seconds, exit code, same output
        as the first pass, seconds of the calibration task run before it)."""
        first = not self.digests
        rows = []
        for i, job in enumerate(self.jobs):
            calibration = reference()
            elapsed, code, out, err = self.run_job(job["argv"])
            if after_job is not None:
                after_job(i)
            digest = hashlib.sha1(f"{code}\0{out}\0{err}".encode()).hexdigest()
            if first:
                self.digests.append(digest)
                path = os.path.join(self.workdir, "out", f"{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"code": code, "out": out, "err": err}, fh)
            rows.append((elapsed, code, digest == self.digests[i], calibration))
        return rows


def finish(run_job, workdir: str, mode: str, seconds: float, setup_s: float) -> None:
    """Calibrate, run the passes MODE asks for and write the result file."""
    result = {"setup_s": setup_s,
              "setup_calibration": [setup_reference() for _ in range(CALIBRATIONS)]}
    if mode != "setup":
        with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
            jobs = json.load(fh)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        passes = Passes(run_job, jobs, workdir)
        if mode == "run":
            result["passes"] = _timed_passes(passes, seconds)
        else:
            result.update(_traced_passes(passes, seconds, workdir))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(workdir, f"result-{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _first_pass(passes, seconds):
    """The first pass, and how many passes fit in `seconds` of wall time."""
    start = time.perf_counter()
    first = passes.run()
    return first, max(1, round(seconds / (time.perf_counter() - start)))


def _timed_passes(passes, seconds):
    first, count = _first_pass(passes, seconds)
    return [first] + [passes.run() for _ in range(count - 1)]


def _traced_passes(passes, seconds, workdir):
    """Pairs of one untraced and one traced pass, about `seconds` in all."""
    from layertrace import Tracer

    tracer = Tracer()
    first, pairs = _first_pass(passes, seconds / 2)
    untraced, traced = [first], []
    with open(os.path.join(workdir, "spans.txt"), "w", encoding="utf-8") as fh:

        def write_spans(i):
            # one group per job; span ids restart, so memory stays one job's worth
            fh.write(f"# pass {len(traced)} job {i}\n")
            for span in tracer.take():
                fh.write("%d %r %r %d %d\n" % span)
            tracer.job = i + 1

        for k in range(pairs):
            if k:
                untraced.append(passes.run())
            tracer.job = 0
            tracer.install()
            try:
                traced.append(passes.run(after_job=write_spans))
            finally:
                tracer.uninstall()
    return {
        "passes": untraced,
        "traced": traced,
        "names": tracer.names,
        "absent": tracer.absent,
        "ops_logged": tracer.ops_logged // pairs,
    }
