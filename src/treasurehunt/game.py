"""Game parameters and the rules every solver shares.

A hider places d treasures behind n doors (one per door in the single
occupancy variant, repeats allowed in the multi variant). Each round the
searcher guesses at most k doors. A guess covering no remaining treasure
loses immediately; otherwise exactly one treasure behind one guessed door
is revealed. The searcher wins when all d treasures are revealed, which
takes exactly d rounds. Who picks the revealed door is the reveal rule:
the hider (adversarial), chance (uniform over candidate doors or over
candidate treasures), or the deterministic lowest-index door.

The evaluator, the best responses, the simulator and the LP build each
step a game on their own tuple of remaining counts; this module holds
what they share: the configuration, the guess set, the legal-guess rule
(``check_guess``), the chance reveal, history summaries and door relabeling.
The step-by-step rules engine that checks them is in ``tests/oracle_utils``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Collection, Sequence

from .combinatorics import MULTI, OCCUPANCIES, SINGLE, Allocation

ADVERSARIAL = "adversarial"
UNIFORM_DOORS = "uniform-doors"
UNIFORM_TREASURES = "uniform-treasures"
LOWEST_INDEX = "lowest-index"
REVEAL_RULES = (ADVERSARIAL, UNIFORM_DOORS, UNIFORM_TREASURES, LOWEST_INDEX)
CHANCE_REVEALS = (UNIFORM_DOORS, UNIFORM_TREASURES, LOWEST_INDEX)

# One round of observable play: the guessed doors and the door a treasure
# was revealed from, or None when the guess revealed nothing (the loss).
Event = tuple[frozenset[int], int | None]
History = tuple[Event, ...]
# Rounds in canonical form: sorted guessed doors and the revealed door, -1
# while a guess waits for its reveal. A position adds the treasure counts.
Events = tuple[tuple[tuple[int, ...], int], ...]
Position = tuple[tuple[int, ...], Events]


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: doors, treasures, guess size, occupancy, reveal rule."""

    n: int
    d: int
    k: int
    occupancy: str = MULTI
    reveal: str = LOWEST_INDEX

    def __post_init__(self):
        if set(map(type, (self.n, self.d, self.k))) != {int}:
            raise ValueError(f"n, d and k must be int, got {self.n!r}, {self.d!r}, {self.k!r}")
        if self.n < 1:
            raise ValueError("need at least one door")
        if self.d < 1:
            raise ValueError("need at least one treasure")
        if not 1 <= self.k <= self.n:
            raise ValueError("guess size k must satisfy 1 <= k <= n")
        if self.occupancy not in OCCUPANCIES:
            raise ValueError(f"unknown occupancy {self.occupancy!r}")
        if self.reveal not in REVEAL_RULES:
            raise ValueError(f"unknown reveal rule {self.reveal!r}")
        if self.occupancy == SINGLE and self.d > self.n:
            raise ValueError("single occupancy needs d <= n")

    def is_valid_allocation(self, allocation: Allocation) -> bool:
        counts = tuple(allocation)
        # Exact int counts only: bool and float are other types.
        if len(counts) != self.n or set(map(type, counts)) != {int} or min(counts) < 0:
            return False
        if sum(counts) != self.d:
            return False
        if self.occupancy == SINGLE and max(counts) > 1:
            return False
        return True


def every_guess(config: GameConfig) -> list:
    """Every legal guess by orbits, in the form of ``guess_orbits``: one
    orbit per size 1 to k, taking that many doors from the pool of all
    doors, at mass 1. ``orbit_representatives`` splits it by a position's
    cells; the LP build lists the orbits by size, then lexicographically."""
    return [(((tuple(range(config.n)), size),), 1) for size in range(1, config.k + 1)]


def check_guess(config: GameConfig, guess: Collection[int], history: History) -> None:
    """Raise ValueError unless the guess is legal: 1 to k doors of range(n)."""
    if not 1 <= len(guess) <= config.k or any(not 0 <= o < config.n for o in guess):
        raise ValueError(f"illegal guess {sorted(guess)} at history {history}")


def chance_reveal(
    remaining, options: Sequence[int], rule: str
) -> tuple[Sequence[int], tuple[int, ...]]:
    """The chance move: which of the candidate doors gives up a treasure.

    ``options`` are the guessed doors that still hide a treasure, sorted and
    nonempty; ``remaining`` holds the treasure count per door. Returns the
    doors that can come out (``options`` itself or its first door) and
    their integer weights, proportional to their probabilities. A single
    candidate is forced under every rule, adversarial included; a real
    adversarial choice is not a chance move and is rejected, so callers
    resolve it themselves.
    """
    if len(options) == 1:
        return options, (1,)
    if rule == LOWEST_INDEX:
        return options[:1], (1,)
    if rule == UNIFORM_DOORS:
        return options, (1,) * len(options)
    if rule == UNIFORM_TREASURES:
        return options, tuple(remaining[o] for o in options)
    raise ValueError(f"{rule!r} is not a chance reveal rule")


def discovery_counts(history: History) -> tuple[int, ...]:
    """Per-door reveal counts in order of first discovery."""
    order: list[int] = []
    counts: dict[int, int] = {}
    for _, revealed in history:
        if revealed is None:
            continue
        if revealed not in counts:
            order.append(revealed)
            counts[revealed] = 0
        counts[revealed] += 1
    return tuple(counts[door] for door in order)


def guessed_doors(history: History) -> frozenset[int]:
    doors: set[int] = set()
    for guess, _ in history:
        doors |= guess
    return frozenset(doors)


# ---------------------------------------------------------------------------
# Door relabeling
# ---------------------------------------------------------------------------

def relabeling(
    counts: Sequence[int], events: Events | History
) -> tuple[Position, tuple[int, ...], tuple[int, ...]]:
    """Canonical form of a position, one relabeling onto it, and its cells.

    The canonical form is the smallest image (relabeled counts, relabeled
    events) over all door relabelings; ``sigma[door]`` is the door's label
    in it, and ``starts[door]`` the first label of its cell. Every event is
    a one-door predicate (was the door guessed, was it revealed), so
    ordered partition refinement finds it without a search: put the doors
    into cells by ascending treasure count, fold ``split_cells`` over the
    events, and number the doors cell by cell, in index order inside a
    cell. On the canonical form cell j thus holds consecutive labels,
    ``sorted(starts)`` is each label's cell start, and the relabelings that
    fix the position permute doors inside cells: ``stabilizer_size(starts)``
    of them. Pass zero counts for the canonical form of a history alone.
    """
    ordered = sorted(counts)
    starts = tuple(bisect_left(ordered, count) for count in counts)
    for doors, revealed in events:
        starts = split_cells(starts, doors, revealed)
    sigma = [0] * len(starts)
    for label, door in enumerate(sorted(range(len(starts)), key=starts.__getitem__)):
        sigma[door] = label
    relabeled = tuple(
        (tuple(sorted(sigma[x] for x in doors)), sigma[o] if o >= 0 else -1)
        for doors, o in events
    )
    return (tuple(ordered), relabeled), tuple(sigma), starts


def split_cells(starts: Sequence[int], doors: Collection[int], revealed: int) -> tuple[int, ...]:
    """The cell start of every door after one more event, from ``starts``.

    A cell keeps its label range and splits into the revealed door, the
    other guessed doors and the rest, in that order; ``revealed`` is one of
    ``doors``, or -1 for a guess still waiting for its reveal.
    """
    taken = [starts[x] for x in doors]
    found = starts[revealed] if revealed >= 0 else -1
    return tuple(
        start if door == revealed else start + (start == found) if door in doors else start + taken.count(start)
        for door, start in enumerate(starts)
    )


def orbit_key(starts: Sequence[int], doors: Collection[int]) -> tuple[int, ...]:
    """Orbit representative of a door set: the smallest image of its
    relabeling onto the canonical form under the relabelings that fix it.

    ``starts`` gives each door's cell start (``relabeling``). Those
    relabelings move doors only inside their cells, so the smallest image
    takes the first c_j labels of each cell j that c_j of the doors lie in.
    Door sets share a key exactly when they lie in one orbit. On the
    canonical form itself the key is its orbit's first member as sorted door
    tuples, by size, then lexicographically.
    """
    labels: list[int] = []
    for start in sorted(starts[door] for door in doors):
        labels.append(start if not labels or start > labels[-1] else labels[-1] + 1)
    return tuple(labels)


def cell_pools(pool: Sequence[int], starts: Sequence[int]) -> dict[int, list[int]]:
    """A pool's doors grouped by cell, keyed by cell start, in pool order.

    Raises ValueError, as ``check_guess`` does, for a door outside
    ``range(len(starts))``: no guess may hold it.
    """
    if pool and not 0 <= min(pool) <= max(pool) < len(starts):
        raise ValueError(f"illegal guess pool {sorted(pool)}: doors must lie in range({len(starts)})")
    cells: dict[int, list[int]] = {}
    for door in pool:
        cells.setdefault(starts[door], []).append(door)
    return cells


def orbit_representatives(orbits, starts: Sequence[int]):
    """One guess per orbit of a position's stabilizer, with the orbit's mass.

    ``orbits`` is a list in the form of ``SearcherStrategy.guess_orbits``
    and ``starts`` the position's cell starts. The stabilizer permutes
    doors inside the position's cells, so splitting each pool by cell, the
    guesses that take c_j doors from the j-th part of every pool form one
    orbit, of size the product of the C(|part|, c_j). Its representative,
    a sorted door tuple, takes the first c_j doors of each part: the
    orbit's lexicographically first member.
    """
    for parts, each in orbits:
        reps = [((), each)]
        for pool, m in parts:
            cells = list(cell_pools(pool, starts).values())
            reps = [(doors + more, mass * size) for doors, mass in reps for more, size in _splits(cells, m)]
        for doors, mass in reps:
            yield tuple(sorted(doors)), mass


def _splits(cells: list[list[int]], m: int):
    """Every way to take m doors from the cells, c_j from cell j: the first
    c_j doors of each cell and the number of such choices."""
    if m == 0:
        yield (), 1
        return
    if not cells:
        return
    head, rest = cells[0], cells[1:]
    for c in range(min(m, len(head)) + 1):
        for more, size in _splits(rest, m - c):
            yield tuple(head[:c]) + more, comb(len(head), c) * size


def refine(position: Position, starts: Sequence[int], doors: Collection[int], revealed: int) -> Position:
    """The canonical form after one more event, in O(k) instead of O(n).

    ``position`` and ``starts`` are the form and cell starts that one
    ``relabeling(counts, events)`` call returns, and ``revealed`` is one of
    ``doors``. The result equals
    ``relabeling(counts, events + ((doors, revealed),))[0]``, and its cell
    starts are ``split_cells(starts, doors, revealed)``. Splitting keeps
    each cell's label range, and every earlier guess is a union of cells
    and every earlier revealed door a cell of its own, so the earlier
    events keep their labels. Inside each cell the revealed door takes the
    cell's first label and the other guessed doors the labels after it, so
    the guessed doors take ``orbit_key(starts, doors)`` whichever of them
    was revealed.
    """
    counts, events = position
    return counts, events + ((orbit_key(starts, doors), starts[revealed]),)


def stabilizer_size(starts: Sequence[int]) -> int:
    """Relabelings that fix a position with these cell starts."""
    return prod(factorial(size) for size in Counter(starts).values())
