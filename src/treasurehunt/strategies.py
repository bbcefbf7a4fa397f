"""Hider and searcher strategies as immutable objects.

Searcher strategies expose an exact action distribution per observable
history, which the solver consumes and the simulator samples. The bundled
searchers also publish their stay rule (``fresh_door_stays``), which the
simulator plays directly and the evaluator uses to cut lost positions.
Hider strategies are explicit finite distributions over allocations, each
stored as one integer draw table (``draw_table``): the probabilities as
weights over a common denominator, summed as ``range(1, N + 1)`` when all
are equal, beside the allocations. Their ``distribution`` pairs are read
from that table.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations, pairwise, product
from math import comb, lcm
from operator import sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .combinatorics import MULTI, SINGLE, Allocation, allocation_shape, enumerate_allocations, partition_weight
from .errors import DoorBudgetError, InvalidTableError
from .game import GameConfig, History, check_guess, discovery_counts, guessed_doors
from .jsonio import fraction_from_json, int_from_json
from .staytables import StayTable, scaled_stay_table

GuessDistribution = list[tuple[frozenset[int], Fraction]]
# Guesses taking m doors from each (pool, m) part, each with one probability.
GuessOrbit = tuple[tuple[tuple[tuple[int, ...], int], ...], Fraction]


def check_built_for(config: GameConfig, role: str, strategy) -> None:
    """Raise ValueError unless the strategy was built for the config's n, d,
    k and occupancy; its reveal rule does not matter."""
    built = strategy.config
    if (built.n, built.d, built.k, built.occupancy) != (config.n, config.d, config.k, config.occupancy):
        size = "(n={0.n}, d={0.d}, k={0.k}, {0.occupancy})".format
        raise ValueError(f"{role} {strategy.name!r} was built for {size(built)}, not {size(config)}")


# ---------------------------------------------------------------------------
# Hider side
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class HiderStrategy:
    """A finite distribution over allocations, with exact probabilities.

    The one stored form is ``table``, the distribution's ``draw_table``:
    the common denominator, the draw bits, the running sums of the integer
    weights (``range(1, N + 1)`` when all N are equal) and the allocations
    in input order. The constructor checks every entry and builds the
    table without keeping a pair per allocation. Every Monte Carlo draw of
    an allocation reads the table, and so does the posterior best
    response; ``distribution`` rebuilds the (allocation, probability)
    pairs from it, in input order.
    """

    config: GameConfig
    name: str
    table: DrawTable = field(repr=False, hash=False)

    def __init__(self, config: GameConfig, distribution: Iterable[tuple[Allocation, Fraction]], name: str = "custom"):
        allocations: list[Allocation] = []
        probabilities: list = []
        invalid = None
        for allocation, p in distribution:
            if not config.is_valid_allocation(allocation):
                invalid = allocation
                break
            allocations.append(allocation)
            probabilities.append(p)
        # The entries before the first invalid allocation fail first.
        _check_entries(allocations, probabilities)
        if invalid is not None:
            raise ValueError(f"allocation {invalid} invalid for {config}")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", _draw_table(allocations, probabilities))

    @property
    def distribution(self) -> tuple[tuple[Allocation, Fraction], ...]:
        """The (allocation, probability) pairs in input order, read from
        ``table``: one ``Fraction`` per distinct weight."""
        denom, _, _, allocations = self.table
        probability = {w: Fraction(w, denom) for w in set(table_weights(self.table))}
        return tuple(zip(allocations, map(probability.__getitem__, table_weights(self.table))))

    @property
    def door_symmetric(self) -> bool:
        """True when no relabeling of the doors changes the distribution:
        for every shape it holds, it holds all ``partition_weight(shape, n)``
        allocations of that shape, each with one common weight."""
        held: dict[tuple[int, ...], list[int]] = {}
        for allocation, w in zip(self.table[3], table_weights(self.table)):
            held.setdefault(allocation_shape(allocation), []).append(w)
        return all(
            len(ws) == partition_weight(shape, self.config.n) and len(set(ws)) == 1
            for shape, ws in held.items()
        )

    def sampler(self, rng) -> "_HiderSampler":
        return _HiderSampler(self.table, rng)


def _check_entries(allocations: list[Allocation], probabilities: list) -> None:
    """Raise ValueError at the first entry, in input order, that repeats an
    allocation or has a probability that is not an exact positive fraction.
    Repeats are found among sorted references, not in a set of them all."""
    repeats = {a for a, b in pairwise(sorted(allocations)) if a == b}
    seen: set[Allocation] = set()  # the repeated allocations met so far
    for allocation, p in zip(allocations, probabilities):
        if repeats and allocation in repeats:
            if allocation in seen:
                raise ValueError(f"duplicate allocation {allocation}")
            seen.add(allocation)
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
            raise ValueError(f"hider probability {p!r} is not an exact fraction")
        if p <= 0:
            raise ValueError("hider probabilities must be positive")


def randbelow(getrandbits, m: int) -> int:
    """A uniform integer in [0, m), by rejection from ``getrandbits``.

    The one rule by which the simulator reads its stream: allocations,
    guesses, stay coins, door indices and chance reveals are all drawn
    this way (some inlined), over ``(m - 1).bit_length()`` bits.
    Exact for every m >= 1; m = 1 consumes no randomness, since
    ``getrandbits(0)`` returns 0. m = 0 has no value to draw, and the
    rejection loop would never end, so it is refused.
    """
    if m < 1:
        raise ValueError("nothing to draw below 0")
    bits = (m - 1).bit_length()
    r = getrandbits(bits)
    while r >= m:
        r = getrandbits(bits)
    return r


# (denominator, bits of a draw below it, running sums, outcomes); the sums
# are range(1, N + 1) when all N weights are equal.
DrawTable = tuple[int, int, Sequence[int], list]


def over_one_denominator(fractions: Sequence[Fraction]) -> tuple[list[int], int]:
    """Each fraction's numerator over D, the lcm of their denominators, and D."""
    denom = lcm(*{p.denominator for p in fractions})
    return [p.numerator * (denom // p.denominator) for p in fractions], denom


def _integer_weights(probabilities: Sequence[Fraction]) -> tuple[list[int], int]:
    """``over_one_denominator`` of exact probabilities; raises ValueError
    naming their sum unless it is 1."""
    weights, denom = over_one_denominator(probabilities)
    total = sum(weights)
    if total != denom:
        raise ValueError(f"probabilities sum to {Fraction(total, denom)}, not 1")
    return weights, denom


def common_denominator(distribution: Sequence[tuple[object, Fraction]]) -> int:
    """The least common denominator of a distribution's probabilities;
    raises ValueError naming their sum unless it is exactly 1."""
    return _integer_weights([p for _, p in distribution])[1]


def _draw_table(outcomes: list, probabilities: Sequence[Fraction]) -> DrawTable:
    weights, denom = _integer_weights(probabilities)
    bounds = range(1, denom + 1) if weights.count(1) == len(weights) else list(accumulate(weights))
    return denom, (denom - 1).bit_length(), bounds, outcomes


def draw_table(distribution: Sequence[tuple[object, Fraction]]) -> DrawTable:
    """A finite distribution as integers, for exact draws: the common
    denominator of its probabilities, the bit width ``randbelow`` draws
    below it with, the running sums of the numerators over it, and the
    outcomes in the same order. Equal weights sum as ``range(1, N + 1)``."""
    return _draw_table([outcome for outcome, _ in distribution], [p for _, p in distribution])


def table_weights(table: DrawTable) -> Iterator[int]:
    """The integer weight of each outcome of a ``draw_table``, over its
    denominator, in outcome order."""
    bounds = table[2]
    return map(sub, bounds, chain((0,), bounds))


def draw_from(table: DrawTable, getrandbits):
    """One exact draw from a ``draw_table``: the first outcome whose
    running sum exceeds ``randbelow(getrandbits, denominator)``. A
    one-outcome table reads nothing from the stream."""
    denom, _, bounds, outcomes = table
    return outcomes[bisect_right(bounds, randbelow(getrandbits, denom))]


class _HiderSampler:
    """Exact integer-arithmetic sampling from a hider's draw table."""

    def __init__(self, table: DrawTable, rng):
        self._table = table
        self._getrandbits = rng.getrandbits

    def sample(self) -> Allocation:
        return draw_from(self._table, self._getrandbits)


def uniform_hider(config: GameConfig) -> HiderStrategy:
    """Hide uniformly over every allocation of the configured variant."""
    allocations = enumerate_allocations(config.n, config.d, config.occupancy)
    p = Fraction(1, len(allocations))
    return HiderStrategy(config, ((a, p) for a in allocations), name="uniform")


def all_in_one_hider(config: GameConfig) -> HiderStrategy:
    """Hide every treasure behind one door chosen uniformly at random."""
    if config.occupancy == SINGLE and config.d > 1:
        raise ValueError("all-in-one hiding needs multi occupancy when d > 1")
    p = Fraction(1, config.n)
    allocations = []
    for door in range(config.n):
        counts = [0] * config.n
        counts[door] = config.d
        allocations.append((tuple(counts), p))
    return HiderStrategy(config, tuple(allocations), name="all-in-one")


def load_hider_json(config: GameConfig, path) -> HiderStrategy:
    """Read a hider file: n, d, and entries of allocation plus exact p."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    try:
        for name, size in (("n", config.n), ("d", config.d)):
            if int_from_json(obj.get(name, size), name) != size:
                raise ValueError("hider file was written for a different game size")
        raw = obj["entries"]
        if not isinstance(raw, list):
            raise ValueError(f"malformed hider entries: a list expected, got {type(raw).__name__}")
        entries = tuple((tuple(item["allocation"]), fraction_from_json(item["p"])) for item in raw)
        return HiderStrategy(config, entries, name="file")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed hider file: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Searcher side
# ---------------------------------------------------------------------------

class SearcherStrategy:
    """Base class: a behavioral rule over observable histories.

    ``guess_distribution(history)`` lists every guess with its exact
    probability; ``run_mc`` draws from it and the exact evaluator scores it.
    Both raise ValueError unless every guess is legal (``game.check_guess``)
    and the exact probabilities at each history sum to 1.

    door_symmetric promises that the rule ignores door identities: relabeling
    the doors of a history relabels its guess distribution the same way. The
    evaluator then keys its memo by canonical position, so positions that
    differ by a relabeling are scored once. Under the ``lowest-index`` reveal
    the revealed door depends on labels even when the rule does not, so
    there the evaluator also scores every option of a multi-option guess
    (of each orbit's representative, when it scores by orbits) and falls
    back to raw-history keys, guess by guess, where their values differ.

    guess_orbits is None, or the same rule by orbits: ``guess_orbits(history)``
    returns ``(parts, each)`` pairs, where ``parts`` holds ``(pool, m)``
    pairs of disjoint door pools, each sorted ascending, and every guess
    that takes ``m`` doors from each pool has probability ``each``. A pool
    must be a union of the history's relabeling cells, so the guesses of
    one pair form a union of orbits of the history's stabilizer. The base
    ``guess_distribution`` expands it guess by guess, so a rule with orbits
    is written once; a door-symmetric evaluator scores one representative
    per orbit of the position's stabilizer instead.

    fresh_door_stays is None, or the whole rule of a searcher that plays
    stay-or-move on fresh doors: round one guesses k never-guessed doors
    uniformly; after a find with discovery-order counts c, it guesses the
    current door plus k-1 fresh doors with probability ``mapping[c]``, and
    k fresh doors otherwise. An empty mapping never stays; a nonempty one
    must hold every discovery order that play reaches, or ``run_mc`` raises
    ``MissingDiagramError``. A partition key covers every order that a rule
    which never stays after a flat find reaches. ``FreshDoorsSearcher``
    holds this one rule, the entries of its ``StayTable``: fresh-k is the
    empty table, and ``StayTableSearcher`` only supplies a table.
    Two callers rely on the attribute. ``run_mc`` plays such a rule
    inline; every other searcher is simulated from each history's
    ``guess_table``, with the draw of ``draw_from``, as the per-game cursor
    ``sampler(rng)`` draws. The exact evaluator reads it as a promise that
    the searcher never guesses a door again once it has guessed it and
    moved off it, so it scores a position that leaves a treasure behind
    such a door as lost without expanding it. A rule that may return to a
    door it left must leave the attribute None.
    """

    config: GameConfig
    name: str = "searcher"
    door_symmetric: bool = False
    guess_orbits: Callable[[History], list[GuessOrbit]] | None = None
    fresh_door_stays: Mapping[tuple[int, ...], Fraction] | None = None

    def guess_distribution(self, history: History) -> GuessDistribution:
        if self.guess_orbits is None:
            raise NotImplementedError
        return [
            (frozenset(chain.from_iterable(choice)), each)
            for parts, each in self.guess_orbits(history)
            for choice in product(*(combinations(pool, m) for pool, m in parts))
        ]

    def sampler(self, rng) -> "_DistributionSampler":
        return _DistributionSampler(self, rng)


def guess_table(config: GameConfig, searcher: SearcherStrategy, history: History) -> DrawTable:
    """The checked ``draw_table`` of ``searcher.guess_distribution(history)``:
    raises ValueError unless its probabilities sum to 1 and every guess is
    legal in the config (``game.check_guess``)."""
    table = draw_table(searcher.guess_distribution(history))
    for guess in table[3]:
        check_guess(config, guess, history)
    return table


class _DistributionSampler:
    """Per-game cursor: alternate next_guess() and observe(). Draws each
    guess from the checked ``guess_table`` of the history so far, which is
    correct for any strategy."""

    def __init__(self, strategy: SearcherStrategy, rng):
        self._strategy = strategy
        self._getrandbits = rng.getrandbits
        self._history: History = ()

    def next_guess(self) -> frozenset[int]:
        strategy = self._strategy
        return draw_from(guess_table(strategy.config, strategy, self._history), self._getrandbits)

    def observe(self, guess, revealed):
        self._history = self._history + ((guess, revealed),)


@dataclass(frozen=True)
class FreshDoorsSearcher(SearcherStrategy):
    """The stay-or-move rule of ``fresh_door_stays``, read from ``table``.

    Fresh-k is the table that never stays, the empty one built here; a
    ``StayTableSearcher`` only supplies its own. Building walks every state
    play reaches (``_validate_reachable``), so fresh-k needs n >= d*k, and
    a table that stays at a reachable order needs the multi-occupancy game;
    one that never stays plays either game as fresh-k.
    """

    config: GameConfig
    table: StayTable = field(init=False, compare=False)
    name: str = "fresh-k"
    door_symmetric: bool = True

    def __post_init__(self):
        config = self.config
        if not hasattr(self, "table"):  # fresh-k: no table passed
            object.__setattr__(self, "table", StayTable(config.n, config.d, config.k, {}))
        table = self.table
        if (table.n, table.d, table.k) != (config.n, config.d, config.k):
            raise InvalidTableError(
                f"table built for (n={table.n}, d={table.d}, k={table.k}), "
                f"config wants (n={config.n}, d={config.d}, k={config.k})"
            )
        _validate_reachable(config, table)

    @property
    def fresh_door_stays(self) -> Mapping[tuple[int, ...], Fraction]:
        return self.table.entries

    def guess_orbits(self, history: History) -> list[GuessOrbit]:
        k = self.config.k
        stay = Fraction(0)
        if history:
            counts = discovery_counts(history)
            if sum(counts) >= self.config.d:
                raise ValueError("game already won, no further guess")
            if any(revealed is None for _, revealed in history):
                raise ValueError("game already lost, no further guess")
            stay = self.table.stay(counts)
        guessed = guessed_doors(history)
        fresh = tuple(door for door in range(self.config.n) if door not in guessed)
        orbits: list[GuessOrbit] = []
        if stay > 0:
            if len(fresh) < k - 1:
                raise DoorBudgetError("ran out of fresh doors on the stay branch")
            current = next(r for _, r in reversed(history) if r is not None)
            orbits.append(((((current,), 1), (fresh, k - 1)), stay / comb(len(fresh), k - 1)))
        if stay < 1:
            if len(fresh) < k:
                raise DoorBudgetError("ran out of fresh doors on the move branch")
            orbits.append((((fresh, k),), (1 - stay) / comb(len(fresh), k)))
        return orbits


def fresh_doors_searcher(config: GameConfig) -> FreshDoorsSearcher:
    return FreshDoorsSearcher(config)


@dataclass(frozen=True)
class StayTableSearcher(FreshDoorsSearcher):
    """Fresh-door play over the table the caller passes."""

    table: StayTable
    name: str = "ptable"


def _validate_reachable(config: GameConfig, table: StayTable) -> None:
    """Walk every state the table can reach and check it is playable.

    Each state pairs the discovery order with the number of doors guessed
    so far; a branch with positive probability must find enough fresh
    doors, and every reachable discovery order must have an entry unless
    the table is empty (``StayTable.stay``). Only the multi-occupancy game
    lets play stay, so in the single game the first reachable order with
    a positive stay probability raises ValueError. A partition-keyed table
    reaches only partitions unless it stays after a flat find such as
    (1, 1) with two rounds or more left.
    """
    n, d, k = config.n, config.d, config.k
    start = ((1,), k)
    seen = {start}
    stack = [start]
    while stack:
        counts, used = stack.pop()
        if sum(counts) >= d:
            continue
        stay = table.stay(counts)
        successors: list[tuple[tuple[int, ...], int]] = []
        if stay > 0:
            if config.occupancy != MULTI:
                raise ValueError("stay-table play is defined for the multi-occupancy game")
            if used + (k - 1) > n:
                raise DoorBudgetError(
                    f"stay branch at {counts} needs {k - 1} fresh doors, only {n - used} left"
                )
            grown = counts[:-1] + (counts[-1] + 1,)
            successors.append((grown, used + k - 1))
            if k > 1:
                successors.append((counts + (1,), used + k - 1))
        if stay < 1:
            if used + k > n:
                raise DoorBudgetError(
                    f"move branch at {counts} needs {k} fresh doors, only {n - used} left"
                )
            successors.append((counts + (1,), used + k))
        for state in successors:
            if state not in seen:
                seen.add(state)
                stack.append(state)


def stay_table_searcher(config: GameConfig, table: StayTable) -> StayTableSearcher:
    return StayTableSearcher(config, table)


def scaled_searcher(config: GameConfig) -> StayTableSearcher:
    """The k-scaled table strategy for the config's size. Its probabilities
    are multi-occupancy ones; at d = 1 the table is empty, so in either
    game it plays as fresh-k."""
    return StayTableSearcher(config, scaled_stay_table(config.n, config.d, config.k), name="ptable-scaled")


def mimic_searcher(config: GameConfig) -> StayTableSearcher:
    """The guess-one reference strategy: shadow a uniformly sampled plan.

    Behaviorally it stays on the current door with the base stay
    probability and otherwise moves to a uniform fresh door, which is the
    k=1 table strategy. A table that stays plays only the multi-occupancy
    game; at d = 1 the table is empty, and it plays either game as fresh-k.
    """
    if config.k != 1:
        raise ValueError("the mimic strategy is defined for k = 1")
    return StayTableSearcher(config, scaled_stay_table(config.n, config.d, 1), name="mu-mimic")
