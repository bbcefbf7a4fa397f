"""Exact certification tools.

evaluate_exact computes a strategy's win probability against one fixed
allocation with adversarial reveals (the hider, who sees everything, picks
the revealed door to minimize). Best responses certify value bounds from
either side, deterministic win sets realize the counting upper bound, and
closed_form_value reports the counting formulas with their applicability.
The full game value via linear programming lives in seqform and is
re-exported here as sequence_form_value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable, Mapping

from .combinatorics import SINGLE, Allocation, count_allocations, enumerate_allocations
from .errors import AdversarialRevealError, BudgetExceededError, DoorBudgetError, ExceedsUnitError
from .game import ADVERSARIAL, CHANCE_REVEALS, GameConfig, History, all_guesses, chance_reveal
from .strategies import HiderStrategy, SearcherStrategy

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
        from .jsonio import fraction_to_json

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


@dataclass(frozen=True)
class WinSet:
    """Allocations a deterministic strategy finds under adversarial reveals."""

    strategy: str
    allocations: frozenset[Allocation]

    def __len__(self) -> int:
        return len(self.allocations)


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
    guess distribution, minimum over the reveal options (the hider knows
    the strategy and the full position). Histories are memoized, modulo
    door relabeling when the strategy declares door symmetry.
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
    """Exact win probability with a chance reveal rule instead of the minimum."""
    if reveal not in CHANCE_REVEALS:
        raise ValueError(f"{reveal!r} is not a chance reveal rule")
    return _evaluate(config, searcher, allocation, reveal, node_budget, _memo)


def _evaluate(config, searcher, allocation, reveal, node_budget, memo) -> Fraction:
    allocation = tuple(allocation)
    if not config.is_valid_allocation(allocation):
        raise ValueError(f"allocation {allocation} invalid for {config}")
    if memo is None:
        memo = {}
    nodes = [0]
    d = config.d
    one = Fraction(1)

    def value(history: History, remaining: tuple[int, ...], found: int) -> Fraction:
        if found == d:
            return one
        if searcher.door_symmetric:
            key = (reveal, _symmetry_key(history, allocation))
        else:
            key = (reveal, allocation, history)
        cached = memo.get(key)
        if cached is not None:
            return cached
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceededError(f"evaluation exceeded {node_budget} nodes")
        total = Fraction(0)
        for guess, p in searcher.guess_distribution(history):
            options = sorted(o for o in guess if remaining[o] > 0)
            if not options:
                continue  # this branch loses, contributes 0
            if reveal == ADVERSARIAL:
                branch = None
                for o in options:
                    v = value(history + ((guess, o),), _dec(remaining, o), found + 1)
                    if branch is None or v < branch:
                        branch = v
                    if branch == 0:
                        break
            else:
                doors, weights = chance_reveal(remaining, options, reveal)
                branch = Fraction(0)
                for o, w in zip(doors, weights):
                    branch += w * value(history + ((guess, o),), _dec(remaining, o), found + 1)
                branch /= sum(weights)
            total += p * branch
        memo[key] = total
        return total

    return value((), allocation, 0)


def _dec(remaining: tuple[int, ...], door: int) -> tuple[int, ...]:
    return remaining[:door] + (remaining[door] - 1,) + remaining[door + 1:]


def _symmetry_key(history: History, allocation: Allocation):
    """Canonical encoding of (history, allocation) modulo door relabeling.

    Doors are renamed in order of first appearance in the history. New
    doors inside one guess are ordered by descending treasure count; doors
    tied there are genuinely ambiguous, so all their orderings are tried
    and the smallest encoding wins. Unmentioned doors only matter as a
    multiset of counts. Equal keys therefore always describe relabelings
    of each other.
    """
    events = [(sorted(guess), revealed) for guess, revealed in history]
    best: list | None = None

    def walk(idx: int, labels: dict[int, int], acc: list) -> None:
        nonlocal best
        if best is not None and acc > best[: len(acc)]:
            return
        if idx == len(events):
            tail = sorted(allocation[door] for door in range(len(allocation)) if door not in labels)
            candidate = acc + [tuple(tail)]
            if best is None or candidate < best:
                best = candidate
            return
        doors, revealed = events[idx]
        fresh = [door for door in doors if door not in labels]
        groups: dict[int, list[int]] = {}
        for door in fresh:
            groups.setdefault(allocation[door], []).append(door)
        orderings = [[]]
        for count in sorted(groups, reverse=True):
            extended = []
            for prefix in orderings:
                for perm in permutations(groups[count]):
                    extended.append(prefix + list(perm))
            orderings = extended
        for order in orderings:
            new_labels = dict(labels)
            for door in order:
                new_labels[door] = len(new_labels)
            token = (
                tuple(sorted(new_labels[door] for door in doors)),
                new_labels[revealed] if revealed is not None else -1,
                tuple(allocation[door] for door in order),
            )
            walk(idx + 1, new_labels, acc + [token])

    walk(0, {}, [])
    assert best is not None
    return tuple(best)


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
    revealed door.
    """
    memo: dict = {}
    per: list[tuple[Allocation, Fraction]] = []
    worst: Fraction | None = None
    argmin: Allocation | None = None
    for allocation in enumerate_allocations(config.n, config.d, config.occupancy):
        v = evaluate_exact(config, searcher, allocation, node_budget=node_budget, _memo=memo)
        per.append((allocation, v))
        if worst is None or v < worst:
            worst, argmin = v, allocation
    assert worst is not None
    bound = counting_upper_bound(config)
    return ValueReport(
        config=config,
        value=worst,
        method=HIDER_BEST_RESPONSE,
        tight=worst == bound,
        certificate={"worst_allocation": argmin, "per_allocation": tuple(per)},
        details={"counting_bound": bound},
    )


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
    as for all-in-one hiding, and raise otherwise.
    """
    rule = config.reveal
    guesses = all_guesses(config)
    nodes = [0]
    memo: dict = {}

    def best_value(posterior: tuple[tuple[tuple[int, ...], Fraction], ...]) -> Fraction:
        if sum(posterior[0][0]) == 0:
            return sum(w for _, w in posterior)  # every surviving allocation is found
        cached = memo.get(posterior)
        if cached is not None:
            return cached
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceededError(f"best response exceeded {node_budget} nodes")
        best = Fraction(0)
        for guess in guesses:
            branches: dict[int, dict[tuple[int, ...], Fraction]] = {}
            for remaining, w in posterior:
                options = sorted(o for o in guess if remaining[o] > 0)
                if not options:
                    continue  # that allocation mass is lost under this guess
                if rule == ADVERSARIAL and len(options) > 1:
                    raise AdversarialRevealError(
                        "adversarial reveal with a real choice; use the LP solver"
                    )
                doors, weights = chance_reveal(remaining, options, rule)
                total = sum(weights)
                for o, weight in zip(doors, weights):
                    branch = branches.setdefault(o, {})
                    rem2 = _dec(remaining, o)
                    branch[rem2] = branch.get(rem2, Fraction(0)) + w * Fraction(weight, total)
            total_value = Fraction(0)
            for o in sorted(branches):
                entry = tuple(sorted(branches[o].items()))
                total_value += best_value(entry)
            if total_value > best:
                best = total_value
        memo[posterior] = best
        return best

    initial = tuple(sorted((tuple(a), p) for a, p in hider.distribution))
    value = best_value(initial)
    return ValueReport(
        config=config,
        value=value,
        method=SEARCHER_BEST_RESPONSE,
        tight=None,
        details={"counting_bound": counting_upper_bound(config)},
    )


# ---------------------------------------------------------------------------
# Deterministic win sets
# ---------------------------------------------------------------------------

def deterministic_win_set(
    config: GameConfig,
    strategy: Mapping[History, frozenset[int]] | Callable[[History], frozenset[int]],
    name: str = "deterministic",
) -> WinSet:
    """Allocations the deterministic strategy finds whatever is revealed.

    An allocation counts as won only when every reveal branch reaches a
    win, matching the adversarial-reveal semantics of evaluate_exact.
    """
    if isinstance(strategy, Mapping):
        lookup = strategy.__getitem__
    else:
        lookup = strategy
    d = config.d

    def wins(history: History, remaining: tuple[int, ...], found: int) -> bool:
        if found == d:
            return True
        guess = frozenset(lookup(history))
        if not 1 <= len(guess) <= config.k or any(not 0 <= o < config.n for o in guess):
            raise ValueError(f"illegal guess {sorted(guess)} at history {history}")
        options = [o for o in guess if remaining[o] > 0]
        if not options:
            return False
        return all(wins(history + ((guess, o),), _dec(remaining, o), found + 1) for o in options)

    won = frozenset(
        a for a in enumerate_allocations(config.n, config.d, config.occupancy) if wins((), a, 0)
    )
    return WinSet(strategy=name, allocations=won)


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
            from .staytables import scaled_stay_table

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
    from .seqform import solve_sequence_form

    return solve_sequence_form(config, node_budget=node_budget, column_budget=column_budget)
