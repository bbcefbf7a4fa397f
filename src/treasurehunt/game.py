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
what they share: the configuration, the guess set, the chance reveal,
history summaries and door relabeling. The step-by-step rules engine
that checks them lives in the tests (``oracle_utils``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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


def all_guesses(config: GameConfig) -> list[tuple[int, ...]]:
    """Every legal guess as a sorted door tuple: sizes 1 to k, each size in
    lexicographic order. The LP build lists guess orbits in the order this
    list first reaches them, by ``orbit_representatives``."""
    return [g for size in range(1, config.k + 1) for g in combinations(range(config.n), size)]


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
    """Canonical form of a position, one relabeling onto it, and its cell sizes.

    The canonical form is the smallest image (relabeled counts, relabeled
    events) over all door relabelings; ``sigma[door]`` is the door's label
    in it. Every event is a one-door predicate (was the door guessed, was
    it revealed), so ordered partition refinement finds it without a
    search: order the doors by ascending treasure count, then, for each
    event in turn, split every cell into the revealed door, the other
    guessed doors and the unguessed doors, and number the doors cell by
    cell, in index order inside a cell. On the canonical form cell j thus
    holds consecutive labels, and the relabelings that fix the position
    permute doors inside cells: ``stabilizer_size(cells)`` of them. Pass
    zero counts for the canonical form of a history alone.
    """
    by_count: dict[int, list[int]] = {}
    for door, count in enumerate(counts):
        by_count.setdefault(count, []).append(door)
    cells = [by_count[count] for count in sorted(by_count)]
    for doors, revealed in events:
        refined = []
        for cell in cells:
            parts: tuple[list[int], ...] = ([], [], [])
            for door in cell:
                parts[0 if door == revealed else 1 if door in doors else 2].append(door)
            refined.extend(part for part in parts if part)
        cells = refined
    sigma = [0] * len(counts)
    label = 0
    for cell in cells:
        for door in cell:
            sigma[door] = label
            label += 1
    relabeled = tuple(
        (tuple(sorted(sigma[x] for x in doors)), sigma[o] if o >= 0 else -1)
        for doors, o in events
    )
    return (tuple(sorted(counts)), relabeled), tuple(sigma), tuple(map(len, cells))


def cell_starts(sigma: Sequence[int], cells: Sequence[int]) -> tuple[int, ...]:
    """The first label of each door's cell, per door, from the ``sigma``
    and cell sizes of one ``relabeling`` call: what ``refine`` needs."""
    first: list[int] = []
    for size in cells:
        first.extend([len(first)] * size)
    return tuple(first[label] for label in sigma)


def orbit_key(starts: Sequence[int], doors: Collection[int]) -> tuple[int, ...]:
    """Orbit representative of a door set: the smallest image of its
    relabeling onto the canonical form under the relabelings that fix it.

    ``starts`` gives each door's cell start (``cell_starts``). Those
    relabelings move doors only inside their cells, so the smallest image
    takes the first c_j labels of each cell j that c_j of the doors lie in.
    Door sets share a key exactly when they lie in one orbit. On the
    canonical form itself the key is its orbit's first member in
    ``all_guesses`` order.
    """
    labels: list[int] = []
    for start in sorted(starts[door] for door in doors):
        labels.append(start if not labels or start > labels[-1] else labels[-1] + 1)
    return tuple(labels)


def cell_pools(pool: Sequence[int], starts: Sequence[int]) -> dict[int, list[int]]:
    """A pool's doors grouped by cell, keyed by cell start, in pool order."""
    cells: dict[int, list[int]] = {}
    for door in pool:
        cells.setdefault(starts[door], []).append(door)
    return cells


def orbit_representatives(orbits, starts: Sequence[int]):
    """One guess per orbit of a position's stabilizer, with the orbit's mass.

    ``orbits`` is a list in the form of ``SearcherStrategy.guess_orbits``
    and ``starts`` the position's ``cell_starts``. The stabilizer permutes
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

    ``position`` and ``starts`` come from one ``relabeling(counts, events)``
    call (``starts`` through ``cell_starts``), and ``revealed`` is one of
    ``doors``. The result equals
    ``relabeling(counts, events + ((doors, revealed),))[0]``. Splitting a
    cell by the new event keeps the cell's label range, and every earlier
    guess is a union of cells and every earlier revealed door a cell of its
    own, so the earlier events keep their labels. Inside each cell the
    revealed door takes the cell's first label and the other guessed doors
    the labels after it, so the guessed doors take ``orbit_key(starts,
    doors)`` whichever of them was revealed.
    """
    counts, events = position
    return counts, events + ((orbit_key(starts, doors), starts[revealed]),)


def canonical_form(counts: Sequence[int], events: Events | History) -> Position:
    """The canonical form alone; without events it is the sorted counts."""
    return relabeling(counts, events)[0]


def stabilizer_size(cells: Sequence[int]) -> int:
    """Relabelings that fix a position with these cell sizes."""
    return prod(factorial(size) for size in cells)
