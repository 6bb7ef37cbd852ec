"""Smoke test of the benchmark harness in perfbench/: every workload's
corpus builds, the smallest job of each (subcommand, exit code) class runs
through the CLI and passes the independent verifier, and the layer tracer
still finds the sweep's entry points. No timing is asserted."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import corpus, layertrace, verify  # noqa: E402

from helpers import run_cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_smallest_jobs_pass_the_verifier(workload, tmp_path):
    jobs = corpus.build(workload, 1, str(tmp_path))
    classes = {}
    for job in jobs:
        classes.setdefault((job.cmd, job.expect.get("code", 0)), []).append(job)
    for group in classes.values():
        job = corpus.smallest(group)
        code, out, err = run_cli(job.argv)
        assert verify.check(job, code, out, err) is None, job.cls


def test_tracer_finds_the_sweep():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for name in ("gauche.gauche_rref", "gauche.KeeperState.__init__", "gauche.KeeperState.llq"):
            assert name not in tracer.absent
    finally:
        tracer.uninstall()
