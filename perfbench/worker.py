"""One benchmark worker: a fresh interpreter that runs a corpus of CLI jobs.

Usage: python3 -I -S worker.py WORKDIR MODE SECONDS, with MODE one of
  setup  import echelon.cli and run the warm-up job, then stop;
  run    also run whole passes over the corpus for about SECONDS;
  trace  alternate untraced and traced passes for about SECONDS.

Set-up is timed first. The warm-up job's argv is read from
WORKDIR/warmup.txt, one argument a line. Until set-up is taken, the worker
imports only modules that a bare interpreter (`-S`, no site) has already
loaded, so set-up pays for every module echelon needs. The passes, the
calibration task and the result file are in passes.py, imported after it.
"""
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_job(cli, argv):
    """One CLI call with stdout and stderr captured: (seconds, exit code or
    the exception it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raise is a failed job, not a dead worker
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = real
    return elapsed, code, out.getvalue(), err.getvalue()


def main() -> int:
    workdir, mode, seconds = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    with open(os.path.join(workdir, "warmup.txt"), encoding="utf-8") as fh:
        warmup = fh.read().splitlines()

    start = time.perf_counter()
    import echelon.cli as cli
    run_job(cli, warmup)
    setup_s = time.perf_counter() - start

    import passes
    passes.finish(lambda argv: run_job(cli, argv), workdir, mode, seconds, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
