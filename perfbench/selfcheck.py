"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload simulate ...]

For each workload named (all by default):

1. A deliberately wrong pin is counted as one failed job, and the pass
   still completes and reports.
2. The exact per-layer counts are identical in traced passes with two
   different seeds.
3. Job outcomes (values, positions, Monte Carlo wins) are identical in an
   untraced and a traced pass with the same seed.

Prints one line per check and exits with 0 when every check holds. Takes
about two minutes for all three workloads.
"""

from __future__ import annotations

import argparse
import sys

from run import DEADLINE_S, run_pass, summarize
from jobs import WORKLOADS
from tracing import EXACT_COUNTS


def check_workload(workload: str) -> list[tuple[str, bool]]:
    results = []
    plain = run_pass(workload, 1, False, DEADLINE_S)

    wrong = plain["jobs"][-1]["name"]
    passes = [run_pass(workload, 1, False, DEADLINE_S, extra=("--wrong-pin", wrong))]
    summary = summarize(passes, [passes[0]["setup_s"]], trace=False)
    failed = [j["name"] for j in passes[0]["jobs"] if not j["ok"]]
    results.append((f"{workload}: wrong pin on {wrong} counted as the one failure",
                    failed == [wrong] and summary["failed"] == 1 and not summary["correct"]))

    traced = [run_pass(workload, seed, True, DEADLINE_S) for seed in (1, 2)]
    same_counts = all(traced[0]["layers"][name] == traced[1]["layers"][name]
                      for name in EXACT_COUNTS)
    results.append((f"{workload}: exact counts repeat across seeds", same_counts))
    outcomes = [[j.get("outcome") for j in p["jobs"]] for p in (plain, traced[0])]
    results.append((f"{workload}: outcomes identical traced and untraced",
                    outcomes[0] == outcomes[1] and all(j["ok"] for j in plain["jobs"])))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        for label, held in check_workload(workload):
            print(f"{'ok  ' if held else 'FAIL'} {label}")
            ok = ok and held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
