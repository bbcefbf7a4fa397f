"""Benchmark of the treasurehunt CLI: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload lp --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each pass over the workload's job list is a
fresh worker process (perfbench/worker.py) that runs every job once, one at
a time, and checks every output against its pin: a closed loop with one
client. Passes repeat until the next one would end after ``--seconds``;
there is always at least one, and with ``--trace 1`` at least one untraced
and one traced, alternating.

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
the passes: setup_s (process start to the first job, also over extra
set-up-only starts), wall_s (the job list, set-up excluded) and peak_rss_mb
(ru_maxrss of the worker). With ``--trace 1`` they are the per-layer
figures of the traced passes (medians of times, exact counts that must
repeat in every traced pass), the throughputs of the untraced passes, and
trace.overhead_s, the traced minus the untraced median wall_s.

The last line of standard output is the JSON result. ``correct`` is false
when a job failed or an exact count or a job outcome differed between
passes; ``failed`` of ``attempted`` counts jobs over all passes. The exit
code is not 0, and no result is printed, when a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402

DEADLINE_S = 175  # a run must end within 180 s
SETUP_STARTS = 10  # set-up-only starts per untraced run, on top of one per pass
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerError(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, timeout: float,
             extra: tuple[str, ...] = ()) -> dict:
    """One worker process over the job list; waits until it has ended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)), *extra]
    started = monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran past {timeout:.0f} s") from exc
    ended = monotonic()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_done") - started
    result["pass_s"] = ended - started
    return result


def run_passes(workload: str, seed: int, seconds: int,
               trace: bool) -> tuple[list[dict], list[float]]:
    """Passes until the next would end after ``seconds``; traced ones alternate.

    Also returns the set-up times of the untraced starts. An untraced run
    first starts SETUP_STARTS workers that only set up, so that setup_s is
    the median of many set-ups.
    """
    start = monotonic()
    setups = []
    if not trace:
        setups = [run_pass(workload, seed, False, DEADLINE_S, extra=("--setup-only",))["setup_s"]
                  for _ in range(SETUP_STARTS)]
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = DEADLINE_S - (monotonic() - start)
        passes.append(run_pass(workload, seed, traced, remaining))
        elapsed = monotonic() - start
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        typical = statistics.median(p["pass_s"] for p in passes if p["traced"] == next_traced)
        if elapsed + typical > seconds:
            return passes, setups + [p["setup_s"] for p in passes if not p["traced"]]


def _median(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def _per_second(passes: list[dict], field: str) -> float:
    """Work of the jobs that do it, over the seconds they took; median over passes."""
    rates = []
    for p in passes:
        jobs = [j for j in p["jobs"] if j[field]]
        seconds = sum(j["seconds"] for j in jobs)
        rates.append(sum(j[field] for j in jobs) / seconds if seconds else 0.0)
    return statistics.median(rates)


def summarize(passes: list[dict], setups: list[float], trace: bool) -> dict:
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not j["ok"] for p in passes for j in p["jobs"])
    for index, p in enumerate(passes):
        for j in p["jobs"]:
            if not j["ok"]:
                print(f"FAILED {j['name']} (pass {index}): {j['error']}", file=sys.stderr)

    # The same seed must give the same outcomes, traced or not.
    outcomes = {json.dumps([j.get("outcome") for j in p["jobs"]], sort_keys=True) for p in passes}
    consistent = len(outcomes) == 1

    plain = [p for p in passes if not p["traced"]]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": _median(plain, lambda p: p["wall_s"]),
            "peak_rss_mb": _median(plain, lambda p: p["peak_rss_mb"]),
        }
        units = UNITS
    else:
        traced = [p for p in passes if p["traced"]]
        layers = traced[0]["layers"]
        metrics, units = {}, {}
        for name in layers:
            if name in EXACT_COUNTS:
                values = {p["layers"][name] for p in traced}
                consistent = consistent and len(values) == 1
                metrics[name], units[name] = layers[name], "count"
            else:
                metrics[name] = _median(traced, lambda p: p["layers"][name])
                units[name] = "us" if name.endswith("_us_p50") or name.endswith("_us_p99") else "s"
        metrics["allocations_per_s"], units["allocations_per_s"] = _per_second(plain, "allocations"), "1/s"
        metrics["trials_per_s"], units["trials_per_s"] = _per_second(plain, "trials"), "1/s"
        metrics["trace.overhead_s"] = (_median(traced, lambda p: p["wall_s"])
                                       - _median(plain, lambda p: p["wall_s"]))
        units["trace.overhead_s"] = "s"

    walls = ", ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}" for p in passes)
    print(f"pass wall_s (T traced): {walls}; fail_ratio {failed}/{attempted}; "
          f"outcomes and counts repeat: {consistent}", file=sys.stderr)
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(passes, setups, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
