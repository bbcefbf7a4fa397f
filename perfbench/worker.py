"""One pass over a workload's job list, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py --workload lp --seed 1 --trace 0

Set-up is importing ``treasurehunt`` and building the job list with its
pins and derived seeds; the monotonic clock reading at the end of set-up is
reported as ``setup_done``, so the parent can time set-up from process start.
Then every job runs once, one at a time, and its output is checked. A job
that raises, exits with an unexpected code or misses its pin is counted as
failed; the pass goes on. The last line of standard output is one JSON
object. The exit code is 0 whenever the pass completed, whatever the jobs
gave, and another code when the program could not be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_checkout():
    """Import treasurehunt from this checkout's src/, never from elsewhere."""
    import treasurehunt

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(treasurehunt.__file__).startswith(src):
        raise SystemExit(f"treasurehunt was imported from {treasurehunt.__file__}, not {src}")
    return treasurehunt


def _run_job(job, tmp: str):
    if job.call is not None:
        return job.call()
    from treasurehunt import cli

    argv = [arg.replace("{tmp}", tmp) for arg in job.argv]
    return cli.main(argv + ["--out", os.path.join(tmp, job.name + ".out")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-pin", default=None, metavar="JOB",
                        help="pin this job to a wrong value, to test failure counting")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report, and run no job")
    args = parser.parse_args(argv)

    _import_checkout()
    from jobs import Mismatch, build_jobs, with_wrong_pin

    jobs = [with_wrong_pin(job) if job.name == args.wrong_pin else job
            for job in build_jobs(args.workload, args.seed)]
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, instrument, layer_metrics

        tracer = Tracer()
    results = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        with instrument(tracer) if tracer is not None else nullcontext():
            wall_start = time.perf_counter()
            for job in jobs:
                start = time.perf_counter()
                entry = {"name": job.name, "allocations": job.allocations, "trials": job.trials}
                try:
                    if tracer is not None and job.call is None:
                        with tracer.span("cli"):
                            result = _run_job(job, tmp)
                    else:
                        result = _run_job(job, tmp)
                    entry["outcome"] = job.check(result, tmp)
                    entry["ok"] = True
                except Mismatch as exc:
                    entry.update(ok=False, error=str(exc))
                except Exception as exc:  # a failing job is counted, the pass goes on
                    traceback.print_exc(file=sys.stderr)
                    entry.update(ok=False, error=f"{type(exc).__name__}: {exc}")
                entry["seconds"] = time.perf_counter() - start
                results.append(entry)
            wall_s = time.perf_counter() - wall_start

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_done": setup_done,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
