"""Exact certification tools.

evaluate_exact computes a strategy's win probability against one fixed
allocation with adversarial reveals (the hider, who sees everything, picks
the revealed door to minimize) and raises ValueError on an illegal guess
or probabilities that do not sum to 1. Best responses certify bounds from
either side, deterministic win sets (what evaluate_exact scores 1) realize
the counting upper bound, closed_form_value reports the counting formulas
with their applicability, and verify_equalizing checks a stay table.
sequence_form_value reports the full game value from seqform's quotient LP.
Every ValueReport is built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping

from .combinatorics import (
    SINGLE,
    Allocation,
    count_allocations,
    enumerate_allocations,
    shape_representatives,
)
from .errors import AdversarialRevealError, BudgetExceededError, DoorBudgetError, ExceedsUnitError
from .game import (
    ADVERSARIAL,
    CHANCE_REVEALS,
    LOWEST_INDEX,
    GameConfig,
    History,
    chance_reveal,
    check_guess,
    every_guess,
    orbit_representatives,
    refine,
    relabeling,
    split_cells,
)
from .jsonio import fraction_to_json
from .staytables import StayTable, scaled_stay_table
from .strategies import (
    HiderStrategy, SearcherStrategy, check_built_for, common_denominator, stay_table_searcher, table_weights,
)

DEFAULT_NODE_BUDGET = 10**7

CLOSED_FORM = "closed-form"
HIDER_BEST_RESPONSE = "hider-best-response"
SEARCHER_BEST_RESPONSE = "searcher-best-response"
LP = "lp"


@dataclass(frozen=True)
class ValueReport:
    """An exact value with its provenance and certification status."""

    config: GameConfig
    value: Fraction
    method: str
    tight: bool | None = None
    certificate: object = None
    details: dict[str, Fraction] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {
            "n": self.config.n,
            "d": self.config.d,
            "k": self.config.k,
            "variant": self.config.occupancy,
            "method": self.method,
            "value": fraction_to_json(self.value),
        }
        if self.tight is not None:
            out["tight"] = self.tight
        if self.details:
            out["details"] = {name: fraction_to_json(val) for name, val in self.details.items()}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def counting_upper_bound(config: GameConfig) -> Fraction:
    """Counting bound: k^d outcomes cover all hiding possibilities."""
    return Fraction(config.k ** config.d, count_allocations(config.n, config.d, config.occupancy))


def all_in_one_bound(config: GameConfig) -> Fraction:
    """Multi-occupancy cap from hiding everything behind one random door."""
    return Fraction(config.k, config.n)


# ---------------------------------------------------------------------------
# Evaluation against a fixed allocation
# ---------------------------------------------------------------------------

def evaluate_exact(
    config: GameConfig,
    searcher: SearcherStrategy,
    allocation: Allocation,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    _memo: dict | None = None,
) -> Fraction:
    """Exact win probability against one allocation, adversarial reveals.

    Recursion over observable histories: expectation over the searcher's
    guesses, minimum over the reveal options (the hider knows the strategy
    and the full position). Positions are memoized, modulo door relabeling
    when the strategy declares door symmetry: one ``relabeling`` of the
    allocation gives the root's canonical form and cell starts, the memo
    key of each child comes from one ``refine`` step on its parent's form,
    and a position the memo misses steps its cell starts from its parent's
    by ``split_cells``. Other strategies key the memo by the raw history.
    A door-symmetric strategy with ``guess_orbits`` is scored by orbits:
    each of its pools is split by the position's cells, and one guess per
    orbit of the position's stabilizer is expanded, weighted by the orbit's
    size times its members' probability; every other strategy is scored
    guess by guess from ``guess_distribution``. ``node_budget`` caps the
    positions one call expands; a memo hit expands nothing.

    A searcher with a ``fresh_door_stays`` rule never guesses a door again
    once it has guessed it and moved off it, so a position that leaves a
    treasure behind such a door (another guessed door of the last guess,
    or the door the searcher just moved off) is lost: it scores 0 under
    every reveal rule and is neither expanded, memoized nor counted. A
    final find is scored before that test, so it is never cut.
    """
    return _evaluate(config, searcher, allocation, ADVERSARIAL, node_budget, _memo)


def evaluate_under_reveal(
    config: GameConfig,
    searcher: SearcherStrategy,
    allocation: Allocation,
    reveal: str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    _memo: dict | None = None,
) -> Fraction:
    """Exact win probability with a chance reveal rule instead of the minimum.

    ``lowest-index`` reveals by door label, so for a door-symmetric strategy
    every option of a guess with several is scored: the canonical memo keys
    stand only while those values agree, and the allocation is scored again
    with raw-history keys, guess by guess, where they do not. Guess orbits
    are still scored by one representative each: the stabilizer maps the
    options of every member onto the representative's, so checking the
    representative's options checks the whole orbit.
    """
    if reveal not in CHANCE_REVEALS:
        raise ValueError(f"{reveal!r} is not a chance reveal rule")
    return _evaluate(config, searcher, allocation, reveal, node_budget, _memo)


class _LabelDependent(Exception):
    """Two reveal options of one guess differ in value under ``lowest-index``,
    so which one the rule picks depends on door labels."""


def _evaluate(config, searcher, allocation, reveal, node_budget, memo) -> Fraction:
    allocation = tuple(allocation)
    if not config.is_valid_allocation(allocation):
        raise ValueError(f"allocation {allocation} invalid for {config}")
    check_built_for(config, "searcher", searcher)
    if memo is None:
        memo = {}
    nodes = [0]
    last = config.d - 1
    canonical = searcher.door_symmetric
    orbits = searcher.guess_orbits if canonical else None
    # run_mc's test for a stay rule: such a searcher never guesses a door
    # again once it has guessed it and moved off it.
    stay_or_move = getattr(searcher, "fresh_door_stays", None) is not None

    def value(key, history: History, remaining: tuple[int, ...], found: int, starts) -> Fraction:
        # starts: the cell starts before history's last event; key[1]: the canonical form.
        cached = memo.get(key)
        if cached is not None:
            return cached
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceededError(f"evaluation exceeded {node_budget} nodes")
        if canonical and history:
            starts = split_cells(starts, *history[-1])
        current = history[-1][1] if history else None

        def child(guess: frozenset[int], o: int) -> Fraction:
            history_o = history + ((guess, o),)
            if canonical:
                key_o = (reveal, refine(key[1], starts, guess, o))
            else:
                key_o = (reveal, allocation, history_o)
            return value(key_o, history_o, _dec(remaining, o), found + 1, starts)

        if orbits is None:
            guesses = searcher.guess_distribution(history)
        else:
            guesses = [(frozenset(g), p) for g, p in orbit_representatives(orbits(history), starts)]
        common_denominator(guesses)
        live = frozenset(door for door, count in enumerate(remaining) if count)
        total = Fraction(0)
        for guess, p in guesses:
            check_guess(config, guess, history)
            if live.isdisjoint(guess):
                continue  # this branch loses, contributes 0
            if found == last:
                total += p  # every reveal finds the last treasure
                continue
            options = sorted(live.intersection(guess))
            if stay_or_move and (
                len(options) > 1 or current is not None and current not in guess and remaining[current]
            ):
                continue  # every reveal leaves a treasure behind a door the searcher moved off
            if reveal == ADVERSARIAL:
                branch = None
                for o in options:
                    v = child(guess, o)
                    if branch is None or v < branch:
                        branch = v
                    if branch == 0:
                        break
            elif reveal == LOWEST_INDEX and canonical:
                branch = child(guess, options[0])
                if any(child(guess, o) != branch for o in options[1:]):
                    raise _LabelDependent
            else:
                doors, weights = chance_reveal(remaining, options, reveal)
                branch = Fraction(0)
                for o, w in zip(doors, weights):
                    branch += w * child(guess, o)
                branch /= sum(weights)
            total += p * branch
        memo[key] = total
        return total

    if canonical:
        position, _, starts = relabeling(allocation, ())
        try:
            return value((reveal, position), (), allocation, 0, starts)
        except _LabelDependent:
            # value() reads both: score this allocation by raw history, guess by guess.
            canonical, orbits = False, None
    return value((reveal, allocation, ()), (), allocation, 0, None)


def _dec(remaining: tuple[int, ...], door: int) -> tuple[int, ...]:
    return remaining[:door] + (remaining[door] - 1,) + remaining[door + 1:]


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def hider_best_response_value(
    config: GameConfig,
    searcher: SearcherStrategy,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ValueReport:
    """Worst allocation against the strategy: a certified searcher guarantee.

    Values the adversarial game whatever ``config.reveal`` says: each
    allocation is scored by ``evaluate_exact``, where the hider picks the
    revealed door. A door-symmetric searcher wins every relabeling of an
    allocation equally, so it is scored once per allocation shape, on the
    shape's ascending-sorted representative; any other searcher is scored
    on every allocation. The certificate's ``checked`` rows are the scored
    allocations in lexicographic order, and ``worst_allocation`` is the
    lexicographically first allocation attaining the minimum.
    ``per_allocation_values`` expands the rows to every allocation.
    """
    if searcher.door_symmetric:
        allocations = shape_representatives(config.n, config.d, config.occupancy)
    else:
        allocations = enumerate_allocations(config.n, config.d, config.occupancy)
    memo: dict = {}
    checked: list[tuple[Allocation, Fraction]] = []
    worst: Fraction | None = None
    argmin: Allocation | None = None
    for allocation in allocations:
        v = evaluate_exact(config, searcher, allocation, node_budget=node_budget, _memo=memo)
        checked.append((allocation, v))
        if worst is None or v < worst:
            worst, argmin = v, allocation
    assert worst is not None
    bound = counting_upper_bound(config)
    return ValueReport(
        config=config,
        value=worst,
        method=HIDER_BEST_RESPONSE,
        tight=worst == bound,
        certificate={"worst_allocation": argmin, "checked": tuple(checked)},
        details={"counting_bound": bound},
    )


@dataclass(frozen=True)
class EqualizingReport:
    """Outcome of checking that a table strategy wins every allocation equally.

    ``checked`` holds one (allocation, value) row per allocation shape.
    """

    equal: bool
    value: Fraction | None
    counterexample: tuple[int, ...] | None
    checked: tuple[tuple[tuple[int, ...], Fraction], ...]


def verify_equalizing(
    config: GameConfig, table: StayTable, node_budget: int = DEFAULT_NODE_BUDGET
) -> EqualizingReport:
    """Exact win probability of the table strategy against every allocation.

    Uses adversarial reveals, the strategy's worst case, and scores one
    allocation per shape through ``hider_best_response_value``. equal is
    True iff all shapes share one value, which is then the certified
    guarantee; otherwise counterexample is the lexicographically first
    allocation whose value differs from the first allocation's.
    """
    searcher = stay_table_searcher(config, table)
    rows = hider_best_response_value(config, searcher, node_budget=node_budget).certificate["checked"]
    first = rows[0][1]
    for allocation, value in rows:
        if value != first:
            return EqualizingReport(False, None, allocation, rows)
    return EqualizingReport(True, first, None, rows)


def per_allocation_values(report: ValueReport) -> list[tuple[Allocation, Fraction]]:
    """Every allocation of a hider-best-response report with its value.

    An allocation the report did not score takes the value of its shape's
    representative ``tuple(sorted(a))``.
    """
    config = report.config
    value = dict(report.certificate["checked"])
    return [
        (a, value[a] if a in value else value[tuple(sorted(a))])
        for a in enumerate_allocations(config.n, config.d, config.occupancy)
    ]


def searcher_best_response_value(
    config: GameConfig,
    hider: HiderStrategy,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ValueReport:
    """Optimal play against a known hider distribution, by backward induction.

    The state is the unnormalized posterior over remaining treasures given
    the observable history. Needs a chance reveal rule; adversarial reveals
    are accepted only while they stay forced (at most one candidate door),
    as for all-in-one hiding, and raise otherwise. The hider must be built
    for the config's n, d, k and occupancy.

    The posterior runs on integer weights over one scale per depth: after
    t reveals a weight counts units of 1 / (denom * unit**t), where denom
    is the denominator of the hider's ``table`` and unit = lcm(1..max(k, d)),
    which the total weight of every reveal divides (at most k doors, at
    most d treasures). Every leaf lies at depth d, so all values share one
    scale and become a ``Fraction`` only at the end. The reveal steps of a
    remaining-count vector under a guess are computed once per call, when
    first expanded.

    Each posterior expands one guess per class of guesses that differ only
    in which untouched doors they take: the ``orbit_representatives`` of
    ``every_guess`` over the cells that hold each touched door alone and
    every untouched door together. The classes are exact against a
    ``door_symmetric`` hider under every rule but ``lowest-index`` (the one
    rule that reads door labels): the hider's prior and the reveal weights
    are unchanged by a relabeling that fixes every touched door, so the
    posterior after a history is too, and such a relabeling maps one
    guess's branches onto the other's. There play starts with no door
    touched, and the report's notes say so. Every other hider, and
    ``lowest-index``, starts with every door touched, so each guess is a
    class of its own and every guess is expanded. A value depends on the
    posterior alone, so the touched doors are carried beside it and stay
    out of the memo key. A reveal rule added later that may read labels,
    such as a policy read from a certificate, must be shown door-symmetric
    again before it starts with no door touched.
    """
    check_built_for(config, "hider", hider)
    n, rule = config.n, config.reveal
    guess_set = every_guess(config)
    unit = lcm(*range(1, max(config.k, config.d) + 1))
    denom, _, _, allocations = hider.table
    nodes = [0]
    memo: dict = {}
    reveals: dict[tuple[int, ...], dict] = {}
    classes: dict[frozenset[int], list] = {}

    def expanded(touched: frozenset[int]) -> list:
        # One guess per class; the untouched doors share the lowest one's cell.
        reps = classes.get(touched)
        if reps is None:
            low = min((door for door in range(n) if door not in touched), default=0)
            starts = [door if door in touched else low for door in range(n)]
            reps = classes[touched] = [guess for guess, _ in orbit_representatives(guess_set, starts)]
        return reps

    def reveal_steps(remaining: tuple[int, ...], guess: tuple[int, ...]) -> tuple:
        # (door, remaining after, weight over unit) of each reveal; none when
        # the guess finds nothing, so that allocation mass is lost.
        options = [o for o in guess if remaining[o]]
        if rule == ADVERSARIAL and len(options) > 1:
            raise AdversarialRevealError("adversarial reveal with a real choice; use the LP solver")
        if not options:
            return ()
        doors, weights = chance_reveal(remaining, options, rule)
        scale = unit // sum(weights)
        return tuple((o, _dec(remaining, o), w * scale) for o, w in zip(doors, weights))

    def best_value(posterior: tuple[tuple[tuple[int, ...], int], ...], touched: frozenset[int]) -> int:
        if sum(posterior[0][0]) == 0:
            return sum(w for _, w in posterior)  # every surviving allocation is found
        cached = memo.get(posterior)
        if cached is not None:
            return cached
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceededError(f"best response exceeded {node_budget} nodes")
        rows = []
        for remaining, w in posterior:
            steps_of = reveals.get(remaining)
            if steps_of is None:
                steps_of = reveals[remaining] = {}
            rows.append((remaining, steps_of, w))
        best = 0
        for guess in expanded(touched):
            branches: dict[int, dict[tuple[int, ...], int]] = {}
            for remaining, steps_of, w in rows:
                steps = steps_of.get(guess)
                if steps is None:
                    steps = steps_of[guess] = reveal_steps(remaining, guess)
                for o, after, weight in steps:
                    branch = branches.get(o)
                    if branch is None:
                        branch = branches[o] = {}
                    branch[after] = branch.get(after, 0) + w * weight
            total = 0
            now = touched.union(guess) if len(touched) < n else touched
            for o in sorted(branches):
                total += best_value(tuple(sorted(branches[o].items())), now)
            if total > best:
                best = total
        memo[posterior] = best
        return best

    # Door symmetry is decided here alone: with every door touched, each door
    # is a cell of its own and each guess a class of its own.
    touched = frozenset() if rule != LOWEST_INDEX and hider.door_symmetric else frozenset(range(n))
    initial = tuple(sorted(zip(map(tuple, allocations), table_weights(hider.table))))
    value = Fraction(best_value(initial, touched), denom * unit**config.d)
    notes = () if touched else ("door-symmetric hider: one guess expanded per class of untouched doors",)
    return ValueReport(
        config=config,
        value=value,
        method=SEARCHER_BEST_RESPONSE,
        tight=None,
        details={"counting_bound": counting_upper_bound(config)},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Deterministic win sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OneGuess(SearcherStrategy):
    """A deterministic rule as a searcher: its one guess has probability 1."""

    config: GameConfig
    lookup: Callable[[History], frozenset[int]]

    def guess_distribution(self, history: History):
        return [(frozenset(self.lookup(history)), Fraction(1))]


def deterministic_win_set(
    config: GameConfig,
    strategy: Mapping[History, frozenset[int]] | Callable[[History], frozenset[int]],
) -> frozenset[Allocation]:
    """Allocations the deterministic strategy finds whatever is revealed: the
    ones ``evaluate_exact`` scores 1, as adversarial reveals leave a one-guess
    rule at 1 only where every branch wins. An illegal guess raises ValueError."""
    searcher = _OneGuess(config, strategy.__getitem__ if isinstance(strategy, Mapping) else strategy)
    allocations = enumerate_allocations(config.n, config.d, config.occupancy)
    return frozenset(a for a in allocations if evaluate_exact(config, searcher, a) == 1)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_value(config: GameConfig) -> ValueReport:
    """The counting formula k^d over the number of hiding spots.

    Certified as the exact value when the matching strategy exists: fresh
    doors for single occupancy with n >= d*k, a valid scaled stay table for
    multi occupancy. Otherwise the report only carries upper bounds, capped
    by the all-in-one bound k/n in the multi game. At n=3, d=3, k=2, for
    example, the report gives that cap, 2/3, with ``tight`` false, while the
    adversarial value found by ``sequence_form_value`` is 3/5.
    """
    formula = counting_upper_bound(config)
    details = {"formula": formula}
    notes: list[str] = []
    if config.occupancy == SINGLE:
        value = min(formula, Fraction(1))
        certified = config.n >= config.d * config.k
        if certified:
            notes.append("certified: fresh-door play attains the counting bound")
        else:
            notes.append("not-certified: needs n >= d*k, value is an upper bound only")
    else:
        cap = all_in_one_bound(config)
        details["all_in_one_cap"] = cap
        value = min(formula, cap)
        try:
            scaled_stay_table(config.n, config.d, config.k)
            certified = True
            notes.append("certified: the scaled stay table equalizes at this size")
        except (ExceedsUnitError, DoorBudgetError) as exc:
            certified = False
            notes.append(f"not-certified-by-scaling: {exc}")
        if cap < formula:
            notes.append("formula-not-tight: all-in-one hiding caps the value below the formula")
            certified = False
    return ValueReport(
        config=config,
        value=value,
        method=CLOSED_FORM,
        tight=certified and value == formula,
        details=details,
        notes=tuple(notes),
    )


def sequence_form_value(
    config: GameConfig,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    column_budget: int = 10**5,
) -> ValueReport:
    """Exact game value and an optimal searcher plan, via the quotient LP.

    Always solves the adversarial game (the hider picks the revealed door),
    whatever ``config.reveal`` says; the door-relabeling quotient has no
    place for a label-dependent rule such as lowest-index. A config with a
    chance reveal rule is not rejected; its report is the adversarial value.
    """
    # Imported here so that loading the package (and every CLI command
    # without an LP) does not load seqform and simplex.
    from .seqform import solve_sequence_form

    value, dual_value, certificate = solve_sequence_form(
        config, node_budget=node_budget, column_budget=column_budget
    )
    bound = counting_upper_bound(config)
    return ValueReport(
        config=config,
        value=value,
        method=LP,
        tight=value == bound,
        certificate=certificate,
        details={"counting_bound": bound, "dual_value": dual_value},
    )
