"""Command-line front end.

Subcommands: value, ptable, certify, lp, simulate, sweep. Machine output is
JSON by default (fractions as num/den pairs, never decimals); sweeps print
CSV. Exit codes are stable: 0 success or tight, 2 usage error, 3 invalid
table, 4 certification not tight, 5 budget exceeded, 6 internal error (a
self-check failed, which is a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache

from .combinatorics import MULTI, SINGLE
from .errors import (
    AdversarialRevealError,
    BudgetExceededError,
    ExceedsUnitError,
    InternalError,
    InvalidTableError,
    TreasureHuntError,
)
from .game import ADVERSARIAL, LOWEST_INDEX, GameConfig
from .jsonio import fraction_to_json
from .montecarlo import CSV_HEADER, MIN_CHECK_TRIALS, compare_to_exact, run_mc
from .solver import (
    DEFAULT_NODE_BUDGET,
    ValueReport,
    all_in_one_bound,
    closed_form_value,
    evaluate_under_reveal,
    hider_best_response_value,
    per_allocation_values,
    sequence_form_value,
)
from .staytables import StayTable, min_scalable_doors, scaled_stay_table
from .strategies import (
    all_in_one_hider,
    fresh_doors_searcher,
    load_hider_json,
    mimic_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_TABLE = 3
EXIT_NOT_TIGHT = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6

_REVEAL_CHOICES = {
    "lowest": LOWEST_INDEX,
    "uniform-doors": "uniform-doors",
    "uniform-treasures": "uniform-treasures",
}


class UsageError(TreasureHuntError):
    pass


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by every later one.

    Each subcommand's ``set_defaults(func=cmd_*)`` binds its command
    function at that first build, so replacing a ``cmd_*`` afterwards does
    not change what ``main`` runs.
    """
    parser = argparse.ArgumentParser(
        prog="treasurehunt",
        description="Exact values, strategies, certificates, and simulations "
        "for the treasure-hunt door games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_nd=True, formats=("json", "text")):
        p.add_argument("--variant", choices=[SINGLE, MULTI], default=MULTI)
        p.add_argument("-n", type=int, required=need_nd, help="number of doors")
        p.add_argument("-d", type=int, required=need_nd, help="number of treasures")
        p.add_argument("-k", type=int, required=need_nd, help="maximum guess size")
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    def add_node_budget(p):
        p.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    def add_searcher(p):
        p.add_argument(
            "--searcher",
            choices=["fresh-k", "ptable-scaled", "ptable-file", "mu-mimic"],
            default=None,
            help="default: ptable-scaled",
        )
        p.add_argument("--ptable-file", default=None)

    p_value = sub.add_parser("value", help="closed-form value with applicability notes")
    add_common(p_value)
    p_value.set_defaults(func=cmd_value)

    p_ptable = sub.add_parser("ptable", help="scaled stay-probability table")
    add_common(p_ptable, need_nd=False)
    p_ptable.add_argument("--min-valid-n", action="store_true",
                          help="print the smallest n >= d*k at which scaling works")
    p_ptable.set_defaults(func=cmd_ptable)

    p_certify = sub.add_parser("certify", help="certify a searcher strategy by best response")
    add_common(p_certify)
    add_node_budget(p_certify)
    add_searcher(p_certify)
    p_certify.set_defaults(func=cmd_certify)

    p_lp = sub.add_parser("lp", help="exact game value by sequence-form LP")
    add_common(p_lp)
    add_node_budget(p_lp)
    p_lp.add_argument("--emit-certificate", default=None, metavar="PATH")
    p_lp.set_defaults(func=cmd_lp)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    add_common(p_sim, formats=("json", "csv", "text"))
    add_node_budget(p_sim)
    add_searcher(p_sim)
    p_sim.add_argument("--reveal", choices=sorted(_REVEAL_CHOICES), default="lowest")
    p_sim.add_argument("--hider", choices=["uniform", "all-in-one", "file"], default="uniform")
    p_sim.add_argument("--hider-file", default=None)
    p_sim.add_argument("--trials", type=positive_int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--check-exact", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="tabulate values over a parameter range")
    add_common(p_sweep, need_nd=False, formats=("csv", "json"))
    add_node_budget(p_sweep)
    add_searcher(p_sweep)
    p_sweep.add_argument("--param", choices=["n", "d", "k"], required=True)
    p_sweep.add_argument("--start", type=int, required=True)
    p_sweep.add_argument("--stop", type=int, required=True, help="inclusive upper end")
    p_sweep.add_argument("--method", choices=["value", "certify", "lp"], default="value")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config(args, reveal: str = ADVERSARIAL) -> GameConfig:
    """The game a subcommand runs; only simulate plays a chance reveal rule."""
    try:
        return GameConfig(n=args.n, d=args.d, k=args.k, occupancy=args.variant, reveal=reveal)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_searcher(args, config):
    if args.ptable_file is not None and args.searcher != "ptable-file":
        raise UsageError("--ptable-file needs --searcher ptable-file")
    if args.searcher in (None, "ptable-scaled"):
        return scaled_searcher(config)
    if args.searcher == "fresh-k":
        return fresh_doors_searcher(config)
    if args.searcher == "mu-mimic":
        return mimic_searcher(config)
    if args.ptable_file is None:
        raise UsageError("--searcher ptable-file needs --ptable-file PATH")
    return stay_table_searcher(config, StayTable.load(args.ptable_file))


def _resolve_hider(args, config):
    if args.hider_file is not None and args.hider != "file":
        raise UsageError("--hider-file needs --hider file")
    if args.hider == "uniform":
        return uniform_hider(config)
    if args.hider == "all-in-one":
        return all_in_one_hider(config)
    if args.hider_file is None:
        raise UsageError("--hider file needs --hider-file PATH")
    return load_hider_json(config, args.hider_file)


def _emit(args, payload: dict, text: str) -> None:
    """The payload as JSON, or ``text`` under ``--format text``."""
    _write(args, text if args.format == "text" else json.dumps(payload, indent=2, sort_keys=True))


def _write(args, body: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
    else:
        print(body)


def _write_csv(args, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(args, buf.getvalue().rstrip("\n"))


def _report_text(report: ValueReport) -> str:
    lines = [
        f"game: variant={report.config.occupancy} n={report.config.n} "
        f"d={report.config.d} k={report.config.k}",
        f"value: {report.value} (method: {report.method})",
    ]
    if report.tight is not None:
        lines.append(f"tight: {report.tight}")
    for name, val in report.details.items():
        lines.append(f"{name}: {val}")
    lines.extend(report.notes)
    return "\n".join(lines)


def cmd_value(args) -> int:
    report = closed_form_value(_config(args))
    _emit(args, report.to_json(), _report_text(report))
    return EXIT_OK


def cmd_ptable(args) -> int:
    if args.variant != MULTI:
        raise UsageError("stay tables belong to the multi-occupancy game")
    if args.min_valid_n:
        if args.n is not None:
            raise UsageError("-n conflicts with --min-valid-n; drop the flag")
        if args.d is None or args.k is None:
            raise UsageError("--min-valid-n needs -d and -k")
        n = min_scalable_doors(args.d, args.k)
        _emit(args, {"d": args.d, "k": args.k, "min_valid_n": n}, str(n))
        return EXIT_OK
    if args.n is None or args.d is None or args.k is None:
        raise UsageError("ptable needs -n, -d and -k")
    _config(args)  # a usage error for n, d or k outside the game's ranges
    try:
        table = scaled_stay_table(args.n, args.d, args.k)
    except ExceedsUnitError as exc:
        payload = {
            "error": "exceeds-unit",
            "diagram": list(exc.diagram),
            "p": fraction_to_json(exc.value),
        }
        _emit(args, payload, f"stay probability {exc.value} > 1 at diagram {list(exc.diagram)}")
        return EXIT_BAD_TABLE
    text = "\n".join(
        f"{list(diagram)}: {p}" for diagram, p in table.sorted_items()
    )
    _emit(args, table.to_json(), text)
    return EXIT_OK


def cmd_certify(args) -> int:
    config = _config(args)
    searcher = _resolve_searcher(args, config)
    report = hider_best_response_value(config, searcher, node_budget=args.node_budget)
    payload = report.to_json()
    payload["searcher"] = searcher.name
    if config.occupancy == MULTI:
        payload["details"]["all_in_one_cap"] = fraction_to_json(all_in_one_bound(config))
    worst = report.certificate["worst_allocation"]
    payload["worst_allocation"] = list(worst)
    text = _report_text(report) + f"\nsearcher: {searcher.name}\nworst allocation: {list(worst)}"
    _emit(args, payload, text)
    return EXIT_OK if report.tight else EXIT_NOT_TIGHT


def cmd_lp(args) -> int:
    config = _config(args)
    report = sequence_form_value(config, node_budget=args.node_budget)
    payload = report.to_json()
    payload["stats"] = report.certificate.stats
    if args.emit_certificate:
        cert = report.certificate.to_json()
        plan_report = hider_best_response_value(
            config, report.certificate.searcher_strategy, node_budget=args.node_budget
        )
        cert["per_allocation"] = [
            {"allocation": list(a), "value": fraction_to_json(v)}
            for a, v in per_allocation_values(plan_report)
        ]
        with open(args.emit_certificate, "w", encoding="utf-8") as handle:
            json.dump(cert, handle, indent=2, sort_keys=True)
    _emit(args, payload, _report_text(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.check_exact and args.trials < MIN_CHECK_TRIALS:
        raise UsageError(f"--check-exact needs --trials {MIN_CHECK_TRIALS} or more")
    if args.check_exact and args.format == "csv":
        raise UsageError("--format csv has no columns for --check-exact; use json or text")
    config = _config(args, _REVEAL_CHOICES[args.reveal])
    searcher = _resolve_searcher(args, config)
    hider = _resolve_hider(args, config)
    report = run_mc(config, searcher, hider, args.trials, args.seed)
    payload = report.to_json()
    text_lines = [
        f"estimate: {report.wins}/{report.trials} = {float(report.estimate):.6f}",
        f"stderr: {report.stderr:.6g}",
        f"seed: {report.seed}",
    ]
    if args.check_exact:
        memo: dict = {}
        exact = Fraction(0)
        for allocation, p in hider.distribution:
            exact += p * evaluate_under_reveal(
                config, searcher, allocation, config.reveal,
                node_budget=args.node_budget, _memo=memo,
            )
        check = compare_to_exact(report, exact)
        payload["check"] = {
            "exact": fraction_to_json(exact),
            "z_score": check.z_score,
            "passed": check.passed,
        }
        text_lines.append(f"exact: {exact}, z = {check.z_score:.3f}, passed: {check.passed}")
    if (args.format or "json") == "csv":
        _write_csv(args, CSV_HEADER, [report.csv_row()])
    else:
        _emit(args, payload, "\n".join(text_lines))
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = {"n": args.n, "d": args.d, "k": args.k}
    if base[args.param] is not None and base[args.param] != args.start:
        raise UsageError(f"-{args.param} conflicts with --param {args.param}; drop the flag")
    if args.stop < args.start:
        raise UsageError(f"--stop {args.stop} is below --start {args.start}; the range is empty")
    if args.method != "certify" and (args.searcher or args.ptable_file):
        raise UsageError(f"--method {args.method} takes no searcher; drop --searcher, --ptable-file")
    header = ["n", "d", "k", "variant", "method", "value_num", "value_den", "tight", "error"]
    rows = []
    for point in range(args.start, args.stop + 1):
        params = dict(base)
        params[args.param] = point
        if any(v is None for v in params.values()):
            raise UsageError("sweep needs the two fixed parameters set")
        row = [params["n"], params["d"], params["k"], args.variant, args.method]
        try:
            config = GameConfig(
                n=params["n"], d=params["d"], k=params["k"],
                occupancy=args.variant, reveal=ADVERSARIAL,
            )
            if args.method == "value":
                report = closed_form_value(config)
            elif args.method == "lp":
                report = sequence_form_value(config, node_budget=args.node_budget)
            else:
                searcher = _resolve_searcher(args, config)
                report = hider_best_response_value(config, searcher, node_budget=args.node_budget)
            row.extend([report.value.numerator, report.value.denominator, report.tight, ""])
        except UsageError:
            raise  # a flag problem, not a property of this row's game
        except (TreasureHuntError, ValueError) as exc:
            row.extend(["", "", "", str(exc)])
        rows.append(row)
    fmt = args.format or "csv"
    if fmt == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        _write(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        _write_csv(args, header, rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, AdversarialRevealError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidTableError as exc:
        print(f"invalid table: {exc}", file=sys.stderr)
        return EXIT_BAD_TABLE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
