"""Rules engine for the treasure-hunt games.

A hider places d treasures behind n doors (one per door in the single
occupancy variant, repeats allowed in the multi variant). Each round the
searcher guesses at most k doors. A guess covering no remaining treasure
loses immediately; otherwise exactly one treasure behind one guessed door
is revealed. The searcher wins when all d treasures are revealed, which
takes exactly d rounds. Who picks the revealed door is the reveal rule:
the hider (adversarial), chance (uniform over candidate doors or over
candidate treasures), or the deterministic lowest-index door.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .combinatorics import MULTI, OCCUPANCIES, SINGLE, Allocation, Partition, count_allocations
from .errors import NonMonotoneDiagramError

ADVERSARIAL = "adversarial"
UNIFORM_DOORS = "uniform-doors"
UNIFORM_TREASURES = "uniform-treasures"
LOWEST_INDEX = "lowest-index"
REVEAL_RULES = (ADVERSARIAL, UNIFORM_DOORS, UNIFORM_TREASURES, LOWEST_INDEX)
CHANCE_REVEALS = (UNIFORM_DOORS, UNIFORM_TREASURES, LOWEST_INDEX)

ONGOING = "ongoing"
WON = "won"
LOST = "lost"

# One round of observable play: the guessed doors and the door a treasure
# was revealed from, or None when the guess revealed nothing (the loss).
Event = tuple[frozenset[int], int | None]
History = tuple[Event, ...]


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

    @property
    def allocation_count(self) -> int:
        return count_allocations(self.n, self.d, self.occupancy)

    def is_valid_allocation(self, allocation: Allocation) -> bool:
        counts = tuple(allocation)
        if len(counts) != self.n or any(c < 0 for c in counts):
            return False
        if sum(counts) != self.d:
            return False
        if self.occupancy == SINGLE and any(c > 1 for c in counts):
            return False
        return True


@dataclass(frozen=True)
class GameState:
    """Immutable snapshot of one game against a fixed allocation."""

    remaining: tuple[int, ...]
    found: tuple[int, ...]
    discovery_order: tuple[int, ...]
    round: int
    status: str

    @property
    def found_total(self) -> int:
        return sum(self.found)


def initial_state(config: GameConfig, allocation: Allocation) -> GameState:
    """Fresh game state with all treasures hidden per the allocation."""
    if not config.is_valid_allocation(allocation):
        raise ValueError(f"allocation {tuple(allocation)} invalid for {config}")
    return GameState(
        remaining=tuple(allocation),
        found=(0,) * config.n,
        discovery_order=(),
        round=0,
        status=ONGOING,
    )


def is_legal_guess(config: GameConfig, guess) -> bool:
    doors = frozenset(guess)
    return 1 <= len(doors) <= config.k and all(0 <= o < config.n for o in doors)


def all_guesses(config: GameConfig) -> list[tuple[int, ...]]:
    """Every legal guess as a sorted door tuple: sizes 1 to k, each size in
    lexicographic order. The LP's column order follows this order."""
    return [g for size in range(1, config.k + 1) for g in combinations(range(config.n), size)]


def reveal_options(state: GameState, guess) -> frozenset[int]:
    """Guessed doors that still hide a treasure; empty means immediate loss."""
    if state.status != ONGOING:
        raise ValueError("game is over")
    return frozenset(o for o in guess if state.remaining[o] > 0)


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


def reveal_weights(state: GameState, guess, rule: str) -> list[tuple[int, Fraction]]:
    """Chance distribution over the revealed door under a chance reveal rule.

    Empty list signals that the guess loses. An adversarial reveal with a
    real choice is not a chance move and is rejected here; resolving it
    needs the solver.
    """
    options = sorted(reveal_options(state, guess))
    if not options:
        return []
    doors, weights = chance_reveal(state.remaining, options, rule)
    total = sum(weights)
    return [(o, Fraction(w, total)) for o, w in zip(doors, weights)]


def apply_guess(state: GameState, guess, revealed_door: int | None) -> GameState:
    """Advance the game by one round.

    revealed_door must come from reveal_options; pass None only when the
    options are empty, which records the loss.
    """
    options = reveal_options(state, guess)
    if revealed_door is None:
        if options:
            raise ValueError("guess covers a treasure, a door must be revealed")
        return replace(state, round=state.round + 1, status=LOST)
    if revealed_door not in options:
        raise ValueError(f"door {revealed_door} is not a legal reveal for this guess")
    remaining = list(state.remaining)
    found = list(state.found)
    remaining[revealed_door] -= 1
    found[revealed_door] += 1
    order = state.discovery_order
    if revealed_door not in order:
        order = order + (revealed_door,)
    # Each round reveals exactly one treasure, so emptying `remaining` means
    # all d treasures were found with d guesses: the win condition.
    status = WON if sum(remaining) == 0 else ONGOING
    return GameState(
        remaining=tuple(remaining),
        found=tuple(found),
        discovery_order=order,
        round=state.round + 1,
        status=status,
    )


def history_to_diagram(history: History) -> tuple[Partition, int]:
    """Found-treasure counts per door in discovery order, plus the current door.

    The counts form a Young diagram (a nonincreasing sequence) under the
    strategies built in this package; foreign strategies can break the
    monotonicity, which raises NonMonotoneDiagramError so callers can
    bypass diagram logic.
    """
    counts = discovery_counts(history)
    if not counts:
        raise ValueError("history contains no reveal")
    for i in range(len(counts) - 1):
        if counts[i] < counts[i + 1]:
            raise NonMonotoneDiagramError(counts)
    current = _current_door(history)
    return counts, current


def discovery_counts(history: History) -> tuple[int, ...]:
    """Per-door reveal counts in order of first discovery (no monotonicity check)."""
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


def _current_door(history: History) -> int:
    for _, revealed in reversed(history):
        if revealed is not None:
            return revealed
    raise ValueError("history contains no reveal")


def guessed_doors(history: History) -> frozenset[int]:
    doors: set[int] = set()
    for guess, _ in history:
        doors |= guess
    return frozenset(doors)


def replay(config: GameConfig, allocation: Allocation, history: History) -> GameState:
    """Run a recorded history against an allocation, validating every step."""
    state = initial_state(config, allocation)
    for guess, revealed in history:
        if not is_legal_guess(config, guess):
            raise ValueError(f"illegal guess {sorted(guess)}")
        state = apply_guess(state, guess, revealed)
    return state
