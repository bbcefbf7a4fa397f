"""Workload job lists, each job with its pinned exact output and its check.

A job runs the way a user starts it, through ``treasurehunt.cli.main(argv)``
with ``--out`` pointing into a temporary directory, and its output file is then
checked against the pins: exact value, tight flag, exit code, and for LP jobs
the dual value. Monte Carlo jobs are checked by a 4-sigma z-test against the
pinned exact value, never by pinned win counts. The one library job covers a
path no CLI command reaches.

``check`` returns an outcome record: what the job produced that must repeat
exactly between runs of one seed (values, positions, wins). It raises
``Mismatch`` when an output differs from its pin.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Callable

WORKLOADS = ("lp", "certify", "simulate")
MC_TRIALS = 100_000


class Mismatch(Exception):
    """An output differs from its pin."""


@dataclass(frozen=True)
class Job:
    """One job and its pins. ``value`` is a tuple of values for a sweep."""

    name: str
    kind: str  # which check reads the output: sweep, lp, certify, simulate, library
    value: Fraction | tuple[Fraction, ...]
    tight: bool | tuple[bool, ...] | None = None
    exit_code: int = 0
    argv: tuple[str, ...] = ()  # CLI arguments; "{tmp}" marks the temporary dir
    call: Callable[[], object] | None = None  # library job, run instead of argv
    certificate: str | None = None  # certificate file an LP job writes into {tmp}
    check_exact: bool = False  # a simulate job that runs --check-exact
    allocations: int = 0  # allocations a certify job certifies
    trials: int = 0  # Monte Carlo trials a simulate job runs

    def check(self, result, tmp: str) -> dict:
        """Outcome record of a finished job; raises Mismatch on a pin mismatch.

        ``result`` is the exit code of a CLI job, the report of a library job.
        """
        return _CHECKS[self.kind](self, result, tmp)


def _fraction(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, pinned {want!r}")


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _out(tmp: str, job: Job) -> str:
    return os.path.join(tmp, job.name + ".out")


# ---------------------------------------------------------------------------
# Checks, one per output form
# ---------------------------------------------------------------------------

def _check_sweep(job: Job, code: int, tmp: str) -> dict:
    _expect("exit code", code, job.exit_code)
    with open(_out(tmp, job), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    _expect("rows", len(rows), len(job.value))
    for row, value, tight in zip(rows, job.value, job.tight):
        at = f"n={row['n']} d={row['d']} k={row['k']}"
        _expect(f"error at {at}", row["error"], "")
        _expect(f"value at {at}", Fraction(int(row["value_num"]), int(row["value_den"])), value)
        _expect(f"tight at {at}", row["tight"], str(tight))
    return {"values": [str(v) for v in job.value]}


def _check_lp(job: Job, code: int, tmp: str) -> dict:
    _expect("exit code", code, job.exit_code)
    payload = _read_json(_out(tmp, job))
    _expect("value", _fraction(payload["value"]), job.value)
    _expect("dual_value", _fraction(payload["details"]["dual_value"]), job.value)
    _expect("tight", payload["tight"], job.tight)
    outcome = {"value": str(job.value), "positions": payload["stats"]["positions"]}
    if job.certificate is not None:
        cert = _read_json(os.path.join(tmp, job.certificate))
        # The plan guarantees the value against every allocation.
        guarantee = min(_fraction(entry["value"]) for entry in cert["per_allocation"])
        _expect("certificate guarantee", guarantee, job.value)
        outcome["certified_allocations"] = len(cert["per_allocation"])
    return outcome


def _check_certify(job: Job, code: int, tmp: str) -> dict:
    _expect("exit code", code, job.exit_code)
    payload = _read_json(_out(tmp, job))
    _expect("value", _fraction(payload["value"]), job.value)
    _expect("tight", payload["tight"], job.tight)
    return {"value": str(job.value), "worst_allocation": payload["worst_allocation"]}


def _check_simulate(job: Job, code: int, tmp: str) -> dict:
    from treasurehunt import GameConfig, McReport, compare_to_exact

    _expect("exit code", code, job.exit_code)
    payload = _read_json(_out(tmp, job))
    _expect("trials", payload["trials"], job.trials)
    if job.check_exact:
        _expect("exact check", _fraction(payload["check"]["exact"]), job.value)
        _expect("exact check passed", payload["check"]["passed"], True)
    config = GameConfig(payload["n"], payload["d"], payload["k"],
                        occupancy=payload["variant"], reveal=payload["reveal"])
    report = McReport(config, payload["searcher"], payload["hider"],
                      payload["trials"], payload["wins"], payload["seed"])
    test = compare_to_exact(report, job.value)
    if not test.passed:
        raise Mismatch(f"z-test against {job.value}: z = {test.z_score:.3f}")
    return {"wins": payload["wins"], "trials": payload["trials"], "seed": payload["seed"]}


def _check_library(job: Job, report, _tmp: str) -> dict:
    _expect("value", report.value, job.value)
    return {"value": str(job.value)}


_CHECKS = {
    "sweep": _check_sweep,
    "lp": _check_lp,
    "certify": _check_certify,
    "simulate": _check_simulate,
    "library": _check_library,
}


def _sbr_uniform_treasures():
    """Searcher best response to the uniform hider, chance reveals by treasure."""
    from treasurehunt import GameConfig, solver, strategies

    config = GameConfig(5, 3, 2, reveal="uniform-treasures")
    hider = strategies.uniform_hider(config)
    return solver.searcher_best_response_value(config, hider)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _lp_jobs() -> list[Job]:
    return [
        # (3,3,2) pins the certified 3/5, not the stated 2/3 of the known defect.
        Job("sweep-n3-5-d3-k2", "sweep",
            value=(Fraction(3, 5), Fraction(2, 5), Fraction(8, 35)), tight=(False, True, True),
            argv=("sweep", "--param", "n", "--start", "3", "--stop", "5", "-d", "3", "-k", "2",
                  "--method", "lp")),
        Job("lp-n7-d2-k2-cert", "lp", value=Fraction(1, 7), tight=True,
            argv=("lp", "-n", "7", "-d", "2", "-k", "2",
                  "--emit-certificate", os.path.join("{tmp}", "cert.json")),
            certificate="cert.json"),
        Job("lp-single-n7-d3-k2", "lp", value=Fraction(8, 35), tight=True,
            argv=("lp", "--variant", "single", "-n", "7", "-d", "3", "-k", "2")),
        Job("lp-single-n4-d2-k2", "lp", value=Fraction(2, 3), tight=True,
            argv=("lp", "--variant", "single", "-n", "4", "-d", "2", "-k", "2")),
    ]


def _certify_jobs() -> list[Job]:
    return [
        Job("certify-n30-d4-k3", "certify", value=Fraction(27, 13640), tight=True,
            argv=("certify", "-n", "30", "-d", "4", "-k", "3"),
            allocations=comb(30 + 4 - 1, 4)),
        Job("certify-n29-d5-k2", "certify", value=Fraction(4, 29667), tight=True,
            argv=("certify", "-n", "29", "-d", "5", "-k", "2"),
            allocations=comb(29 + 5 - 1, 5)),
        Job("certify-single-fresh-n12-d4-k3", "certify", value=Fraction(9, 55), tight=True,
            argv=("certify", "--variant", "single", "--searcher", "fresh-k",
                  "-n", "12", "-d", "4", "-k", "3"),
            allocations=comb(12, 4)),
        Job("sbr-n5-d3-k2-uniform-treasures", "library", value=Fraction(8, 35),
            call=_sbr_uniform_treasures),
    ]


def _simulate_jobs(seed: int) -> list[Job]:
    from treasurehunt.montecarlo import derive_seed

    specs = [
        ("simulate-n9-d3-k2-check", Fraction(8, 165), True,
         ("-n", "9", "-d", "3", "-k", "2", "--check-exact")),
        ("simulate-n20-d4-k2-uniform-treasures", Fraction(16, 8855), False,
         ("-n", "20", "-d", "4", "-k", "2", "--reveal", "uniform-treasures")),
        ("simulate-single-fresh-n6-d3-k2-uniform-doors", Fraction(2, 5), False,
         ("--variant", "single", "--searcher", "fresh-k", "-n", "6", "-d", "3", "-k", "2",
          "--reveal", "uniform-doors")),
    ]
    return [
        Job(name, "simulate", value=exact, check_exact=check_exact,
            argv=("simulate", *args, "--trials", str(MC_TRIALS),
                  "--seed", str(derive_seed(seed, index))),
            trials=MC_TRIALS)
        for index, (name, exact, check_exact, args) in enumerate(specs)
    ]


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list. Only Monte Carlo seeds depend on ``seed``."""
    if workload == "lp":
        return _lp_jobs()
    if workload == "certify":
        return _certify_jobs()
    if workload == "simulate":
        return _simulate_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def with_wrong_pin(job: Job) -> Job:
    """The same job pinned to a deliberately wrong value."""
    if isinstance(job.value, tuple):
        return replace(job, value=(job.value[0] + 1,) + job.value[1:])
    return replace(job, value=job.value + 1)
