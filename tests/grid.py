"""The exactness grid: exact values the package reports on small games,
each under a key that names how it was computed.

``entries(wide)`` yields ``(key, outcome)`` pairs. An outcome is the
``repr`` of a value, or ``"TypeName: message"`` when the computation
raises a package error or ValueError; any other exception propagates.
Per game (n 2-7, d 1-3, k 1-3, both variants) and per bundled searcher
(fresh-k, the scaled table, the mimic, the tables pinned in
``test_staytables.py`` at their own sizes and lifted LP plans of small
games) it records how the searcher builds, ``evaluate_exact`` and
``evaluate_under_reveal`` under every chance rule on the first 60
allocations with one memo per searcher, and the
``hider_best_response_value`` report. Per game it records
``searcher_best_response_value`` against the uniform, all-in-one and a
by-shape hider under all four rules. ``wide=False`` is the slice that
Tier-1 pins; ``wide=True`` evaluates every allocation instead of the
first 60 and adds the pinned tables above n = 7 and the lifted plans of
games above n = 3.

Run as a script from the repository root::

    PYTHONPATH=src python tests/grid.py digest [--wide]        # entry count and sha256
    PYTHONPATH=src python tests/grid.py dump [--wide]          # one JSON [repr(key), outcome] a line
    PYTHONPATH=src python tests/grid.py diff OLD NEW [--wide]  # keys that differ between two checkouts

``diff`` runs this file's grid against each checkout's ``src`` in a
subprocess and prints every key whose outcome differs, with both outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from treasurehunt.combinatorics import allocation_shape, enumerate_allocations, shape_representatives
from treasurehunt.errors import TreasureHuntError
from treasurehunt.game import ADVERSARIAL, CHANCE_REVEALS, GameConfig
from treasurehunt.solver import (
    evaluate_exact,
    evaluate_under_reveal,
    hider_best_response_value,
    searcher_best_response_value,
    sequence_form_value,
)
from treasurehunt.staytables import StayTable
from treasurehunt.strategies import (
    HiderStrategy,
    all_in_one_hider,
    fresh_doors_searcher,
    mimic_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

ALLOCATIONS = 60
RULES = (ADVERSARIAL,) + tuple(sorted(CHANCE_REVEALS))


def _outcome(compute) -> str:
    try:
        return repr(compute())
    except (TreasureHuntError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def games():
    for occupancy in ("multi", "single"):
        for n in range(2, 8):
            for d in range(1, 4):
                if occupancy == "single" and d > n:
                    continue
                for k in range(1, min(3, n) + 1):
                    yield GameConfig(n, d, k, occupancy=occupancy)


def _lp_plan(config):
    return sequence_form_value(config).certificate.searcher_strategy


def _pinned_tables():
    """``(n, d, k, entries)`` of every table ``test_staytables.py`` pins."""
    from test_staytables import ORDERS_842, _bound_rows

    yield (8, 4, 2, ORDERS_842)
    for row in _bound_rows():
        yield row.values


def by_shape_hider(config) -> HiderStrategy:
    """A door-symmetric hider that puts weight i on the i-th allocation shape
    (``shape_representatives`` order), spread evenly over the shape."""
    shapes = [allocation_shape(a) for a in shape_representatives(config.n, config.d, config.occupancy)]
    weight = {shape: i for i, shape in enumerate(shapes, 1)}
    allocations = enumerate_allocations(config.n, config.d, config.occupancy)
    members = {shape: sum(allocation_shape(a) == shape for a in allocations) for shape in shapes}
    total = sum(weight.values())
    return HiderStrategy(config, tuple(
        (a, Fraction(weight[allocation_shape(a)], total * members[allocation_shape(a)])) for a in allocations
    ), name="by-shape")


def _searcher_entries(config, name, build, allocations):
    game = (config.occupancy, config.n, config.d, config.k, name)
    try:
        searcher = build(config)
    except (TreasureHuntError, ValueError) as exc:
        yield ("build",) + game, f"{type(exc).__name__}: {exc}"
        return
    yield ("build",) + game, "ok"
    memo: dict = {}
    for allocation in enumerate_allocations(config.n, config.d, config.occupancy)[:allocations]:
        yield ("evaluate",) + game + (ADVERSARIAL, allocation), _outcome(
            lambda: evaluate_exact(config, searcher, allocation, _memo=memo))
        for rule in sorted(CHANCE_REVEALS):
            yield ("evaluate",) + game + (rule, allocation), _outcome(
                lambda: evaluate_under_reveal(config, searcher, allocation, rule, _memo=memo))

    def report():
        r = hider_best_response_value(config, searcher)
        return r.value, r.tight, r.certificate["worst_allocation"], r.certificate["checked"]

    yield ("hider-best-response",) + game, _outcome(report)


def entries(wide: bool = False):
    """Every ``(key, outcome)`` of the grid, in a fixed order."""
    searchers = [("fresh-k", fresh_doors_searcher), ("ptable-scaled", scaled_searcher), ("mu-mimic", mimic_searcher)]
    for config in games():
        game = (config.occupancy, config.n, config.d, config.k)
        makers = list(searchers)
        if config.n <= (7 if wide else 3):
            makers.append(("lp-plan", _lp_plan))
        for name, build in makers:
            yield from _searcher_entries(config, name, build, None if wide else ALLOCATIONS)
        for hider_name, make_hider in (
            ("uniform", uniform_hider), ("all-in-one", all_in_one_hider), ("by-shape", by_shape_hider),
        ):
            for rule in RULES:
                chance = GameConfig(config.n, config.d, config.k, occupancy=config.occupancy, reveal=rule)
                yield ("searcher-best-response",) + game + (hider_name, rule), _outcome(
                    lambda: searcher_best_response_value(chance, make_hider(chance)).value)
    for n, d, k, table in _pinned_tables():
        if wide or n <= 7:
            table = StayTable(n, d, k, table)
            yield from _searcher_entries(
                GameConfig(n, d, k), "pinned", lambda c: stay_table_searcher(c, table), None if wide else ALLOCATIONS)


def digest(wide: bool = False) -> tuple[int, str]:
    """The number of entries and the sha256 of their ``repr``s, in order."""
    h = hashlib.sha256()
    count = 0
    for entry in entries(wide):
        h.update(repr(entry).encode())
        count += 1
    return count, h.hexdigest()


def _dump(root: str, wide: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(root) / "src"), str(Path(__file__).parent)]))
    argv = [sys.executable, __file__, "dump"] + (["--wide"] if wide else [])
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return dict(json.loads(line) for line in out.splitlines())


def main(argv: list[str]) -> int:
    wide = "--wide" in argv
    args = [a for a in argv if a != "--wide"]
    if args[:1] == ["digest"]:
        print(*digest(wide))
    elif args[:1] == ["dump"]:
        for key, outcome in entries(wide):
            print(json.dumps([repr(key), outcome]))
    elif args[:1] == ["diff"] and len(args) == 3:
        old, new = _dump(args[1], wide), _dump(args[2], wide)
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                print(json.dumps({"key": key, "old": old.get(key), "new": new.get(key)}))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
