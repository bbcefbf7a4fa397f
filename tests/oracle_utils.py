"""Independent oracles used by the test suite.

These deliberately avoid the library's solution paths: the continuation
oracle expands the sampled-plan searcher literally, and the double oracle
solves tiny games over pure strategies with best-response certificates.
They share nothing with the stay-probability formula or the quotient LP.
The rules engine (``GameState``, ``initial_state``, ``reveal_options``,
``reveal_weights``, ``apply_guess``, ``replay``) plays one game step by
step against a fixed allocation and is the rules reference: the
canonical-key evaluator and ``reference_win_set``, the reference for
``deterministic_win_set``, step through it. The recursive allocation
enumerator is the reference for ``enumerate_allocations``. The brute-force
canonicalizer tries every door permutation, the reference for the
partition refinement in ``treasurehunt.game``. The full-enumeration best response scores every
allocation, the reference for the per-shape scoring of door-symmetric
searchers in ``treasurehunt.solver``. The memo-free posterior best
response carries ``Fraction`` posteriors through ``replay`` and
``reveal_weights``, the reference for ``searcher_best_response_value``.
The canonical-key evaluator builds every memo key with a fresh
``relabeling`` and scores guess by guess from ``guess_distribution``, the
reference for the evaluator's one-step child keys and for its scoring by
guess orbits. ``WithoutStayRule`` hides a searcher's stay rule from the
evaluator, whose uncut path is then the reference for its cut of lost
positions. The ``Fraction`` realization-plan check and best response
are the reference for the integer certificate check in
``treasurehunt.seqform``.
"""

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping

from treasurehunt.combinatorics import SINGLE, count_allocations, enumerate_allocations
from treasurehunt.errors import InternalError
from treasurehunt.game import ADVERSARIAL, GameConfig, History, chance_reveal, relabeling
from treasurehunt.simplex import EQ, GEQ, LEQ, solve_lp
from treasurehunt.solver import evaluate_exact
from treasurehunt.strategies import SearcherStrategy

ONGOING = "ongoing"
WON = "won"
LOST = "lost"


# ---------------------------------------------------------------------------
# Rules engine: one game, step by step, against a fixed allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameState:
    """Immutable snapshot of one game against a fixed allocation."""

    remaining: tuple[int, ...]
    found: tuple[int, ...]
    discovery_order: tuple[int, ...]
    round: int
    status: str


def initial_state(config: GameConfig, allocation) -> GameState:
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


def reveal_options(state: GameState, guess) -> frozenset[int]:
    """Guessed doors that still hide a treasure; empty means immediate loss."""
    if state.status != ONGOING:
        raise ValueError("game is over")
    return frozenset(o for o in guess if state.remaining[o] > 0)


def reveal_weights(state: GameState, guess, rule: str) -> list[tuple[int, Fraction]]:
    """Chance distribution over the revealed door under a chance reveal rule.

    Empty list signals that the guess loses. An adversarial reveal with a
    real choice is not a chance move and is rejected here.
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


def replay(config: GameConfig, allocation, history: History) -> GameState:
    """Run a recorded history against an allocation, validating every step."""
    state = initial_state(config, allocation)
    for guess, revealed in history:
        if not is_legal_guess(config, guess):
            raise ValueError(f"illegal guess {sorted(guess)}")
        state = apply_guess(state, guess, revealed)
    return state


def reference_win_set(config: GameConfig, rule) -> frozenset[tuple[int, ...]]:
    """Allocations a deterministic rule (a function of the history) wins
    whichever guessed treasure door is revealed: every reveal option of
    every guess is stepped through ``apply_guess``."""

    def wins(history, state):
        if state.status != ONGOING:
            return state.status == WON
        guess = frozenset(rule(history))
        options = sorted(reveal_options(state, guess))
        if not options:
            return False
        return all(wins(history + ((guess, o),), apply_guess(state, guess, o)) for o in options)

    return frozenset(
        a for a in enumerate_allocations(config.n, config.d, config.occupancy)
        if wins((), initial_state(config, a))
    )


def posterior_best_response(config: GameConfig, hider) -> Fraction:
    """The searcher's best win probability against a known hider under the
    config's chance reveal rule, the reference for
    ``searcher_best_response_value``: every observable history is expanded,
    with no memo. At each history the posterior, the hider's probability
    times the chance of the reveals so far, is carried per allocation that
    ``replay`` still finds consistent; each guess splits it by revealed
    door with ``reveal_weights``, and the searcher keeps the best guess.
    Under adversarial reveals ``reveal_weights`` rejects a real choice."""
    guesses = [frozenset(g) for size in range(1, config.k + 1) for g in combinations(range(config.n), size)]

    def best(history, posterior):
        states = [(allocation, p, replay(config, allocation, history)) for allocation, p in posterior]
        if states[0][2].status == WON:
            return sum(p for _, p, _ in states)
        value = Fraction(0)
        for guess in guesses:
            branches: dict[int, list] = {}
            for allocation, p, state in states:
                for o, q in reveal_weights(state, guess, config.reveal):  # none if the guess loses
                    branches.setdefault(o, []).append((allocation, p * q))
            value = max(value, sum(best(history + ((guess, o),), branches[o]) for o in branches))
        return value

    return best((), [(tuple(a), Fraction(p)) for a, p in hider.distribution])


@dataclass(frozen=True)
class TabularSearcher(SearcherStrategy):
    """Explicit per-history distributions: a searcher written out by hand."""

    config: GameConfig
    rules: Mapping[History, tuple[tuple[frozenset[int], Fraction], ...]]
    name: str = "tabular"
    door_symmetric: bool = False

    def guess_distribution(self, history):
        try:
            return list(self.rules[history])
        except KeyError:
            raise ValueError(f"no rule for history {history}") from None


def mimic_continuation_oracle(n: int, d: int):
    """Stay probabilities observed by expanding the guess-one plan mimic.

    For every allocation and every tie-break branch: visit doors in
    nonincreasing treasure-count order (ties uniform), dig each door dry,
    and record for each observable diagram whether the next guess stays.
    Returns {diagram: (reach weight, stay weight)}.
    """
    table: dict[tuple[int, ...], list[Fraction]] = {}
    prior = Fraction(1, count_allocations(n, d, "multi"))
    for alloc in enumerate_allocations(n, d, "multi"):
        stack = [(tuple(range(n)), (), prior)]
        while stack:
            unvisited, prefix, weight = stack.pop()
            if sum(prefix) == d:
                continue
            top = max(alloc[door] for door in unvisited)
            ties = [door for door in unvisited if alloc[door] == top]
            share = weight / len(ties)
            for door in ties:
                count = alloc[door]
                parts = prefix
                for dug in range(1, count + 1):
                    parts = prefix + (dug,)
                    if 1 <= sum(parts) <= d - 1:
                        entry = table.setdefault(parts, [Fraction(0), Fraction(0)])
                        entry[0] += share
                        if dug < count:
                            entry[1] += share
                stack.append((tuple(x for x in unvisited if x != door), parts, share))
    return table


# ---------------------------------------------------------------------------
# Allocations by recursion over the doors
# ---------------------------------------------------------------------------

def recursive_allocations(n: int, d: int, occupancy: str) -> list[tuple[int, ...]]:
    """Every allocation, door by door, each door's count ascending: the
    lexicographic order by construction."""
    cap = 1 if occupancy == SINGLE else d
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, doors_left: int) -> None:
        if doors_left == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        if left > cap * doors_left:
            return
        for c in range(min(cap, left) + 1):
            prefix.append(c)
            rec(prefix, left - c, doors_left - 1)
            prefix.pop()

    rec([], d, n)
    return out


# ---------------------------------------------------------------------------
# Brute-force door relabeling (small n only: it tries all n! permutations)
# ---------------------------------------------------------------------------

def apply_counts(counts, perm):
    """Counts moved along a relabeling: door i becomes door perm[i]."""
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i]] = c
    return tuple(out)


def apply_events(events, perm):
    return tuple(
        (tuple(sorted(perm[x] for x in doors)), perm[o] if o >= 0 else -1)
        for doors, o in events
    )


def brute_canonical_form(counts, events):
    """Smallest (counts, events) image over all relabelings, how many
    relabelings give it, and the first of them in permutation order."""
    best, best_perm, count = None, None, 0
    for perm in permutations(range(len(counts))):
        enc = (apply_counts(counts, perm), apply_events(events, perm))
        if best is None or enc < best:
            best, best_perm, count = enc, perm, 1
        elif enc == best:
            count += 1
    return best, count, best_perm


def brute_stabilizer(counts, events):
    """Every relabeling that maps (counts, events) onto itself."""
    return [
        perm
        for perm in permutations(range(len(counts)))
        if apply_counts(counts, perm) == tuple(counts) and apply_events(events, perm) == events
    ]


class WithoutDoorSymmetry(SearcherStrategy):
    """The same rule without the door-symmetry flag: the best response then
    scores every allocation, and the evaluator memo keys raw histories."""

    door_symmetric = False

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config

    def guess_distribution(self, history):
        return self.inner.guess_distribution(history)


class WithoutStayRule(SearcherStrategy):
    """The same door-symmetric rule, scored by the same guess orbits, with
    no ``fresh_door_stays`` rule: the evaluator then expands the positions
    it cuts as lost for a stay-or-move searcher, the reference for that cut."""

    fresh_door_stays = None

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.door_symmetric = inner.door_symmetric
        self.guess_orbits = inner.guess_orbits

    def guess_distribution(self, history):
        return self.inner.guess_distribution(history)


def full_enumeration_best_response(config, searcher):
    """Minimum of ``evaluate_exact`` over every allocation, its first
    minimizer in enumeration order, and the per-allocation rows."""
    memo: dict = {}
    rows = [
        (a, evaluate_exact(config, searcher, a, _memo=memo))
        for a in enumerate_allocations(config.n, config.d, config.occupancy)
    ]
    value = min(v for _, v in rows)
    return value, next(a for a, v in rows if v == value), rows


def canonical_key_evaluate(config, searcher, allocation, reveal, memo):
    """``evaluate_exact`` (``reveal`` adversarial) or ``evaluate_under_reveal``
    stepped through the rules engine guess by guess, with every memo key
    built from scratch: ``(reveal, relabeling(allocation, history)[0])``
    for a door-symmetric searcher, ``(reveal, allocation, history)``
    otherwise. The label-blind keys are no reference under lowest-index,
    whose reveal follows door labels; pass ``WithoutDoorSymmetry`` there."""
    allocation = tuple(allocation)

    def value(history, state):
        if state.status == WON:
            return Fraction(1)
        if searcher.door_symmetric:
            key = (reveal, relabeling(allocation, history)[0])
        else:
            key = (reveal, allocation, history)
        if key in memo:
            return memo[key]
        total = Fraction(0)
        for guess, p in searcher.guess_distribution(history):
            options = sorted(reveal_options(state, guess))
            if not options:
                continue  # the guess loses

            def child(o):
                return value(history + ((guess, o),), apply_guess(state, guess, o))

            if reveal == ADVERSARIAL:
                # The hider's minimum; a 0 ends the search, as in the solver,
                # so both memos hold the same positions.
                branch = child(options[0])
                for o in options[1:]:
                    if branch == 0:
                        break
                    branch = min(branch, child(o))
            else:
                branch = sum(q * child(o) for o, q in reveal_weights(state, guess, reveal))
            total += p * branch
        memo[key] = total
        return total

    return value((), initial_state(config, allocation))


# ---------------------------------------------------------------------------
# Sequence-form certificate check over Fraction (the reference for seqform)
# ---------------------------------------------------------------------------

def reference_check_plan(infosets, plan, side: str) -> None:
    """Raise InternalError unless plan is a realization plan on infosets."""
    flows = all(
        sum(mult * plan[seq] for _, mult, seq in info.actions) == plan[info.parent_seq]
        for info in infosets
    )
    if plan[0] != 1 or min(plan) < 0 or not flows:
        raise InternalError(f"the LP's {side} plan is not a realization plan; this is a bug")


def reference_best_response(infosets, payoff, plan, pick) -> Fraction:
    """Value of the best reply to the other side's plan, bottom up.

    payoff maps (replying sequence, other sequence) to the win orbit count.
    A child infoset is created after the infoset of its parent sequence, so
    reverse creation order visits children first. Moving the parent's mass
    onto an action orbit gives each of its mult members 1/mult of it.
    """
    value: dict[int, Fraction] = defaultdict(Fraction)
    for (seq, other), w in payoff.items():
        value[seq] += w * plan[other]
    for info in reversed(infosets):
        value[info.parent_seq] += pick(value[seq] / mult for _, mult, seq in info.actions)
    return value[0]


# ---------------------------------------------------------------------------
# Double-oracle solver over pure strategies (tiny configs only)
# ---------------------------------------------------------------------------

def _all_guesses(n, k):
    out = []
    for size in range(1, k + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


def all_guesses(config: GameConfig) -> list[tuple[int, ...]]:
    """Every legal guess as a sorted door tuple: sizes 1 to k, each size in
    lexicographic order."""
    return [tuple(sorted(g)) for g in _all_guesses(config.n, config.k)]


def _payoff(row, col, d):
    alloc, policy = col
    remaining = list(alloc)
    h = ()
    for _ in range(d):
        g = row[h]
        options = sorted(o for o in g if remaining[o] > 0)
        if not options:
            return 0
        o = policy.get((h, g), options[0])
        if o not in options:
            o = options[0]
        remaining[o] -= 1
        h = h + ((g, o),)
    return 1


def _hider_br(rows, x, allocations, d):
    best_val, best_col = None, None
    for alloc in allocations:
        policy = {}

        def walk(h, active, remaining, found):
            if found == d:
                return sum(x[i] for i in active)
            groups: dict = {}
            for i in active:
                groups.setdefault(rows[i][h], []).append(i)
            total = Fraction(0)
            for g, idxs in groups.items():
                options = sorted(o for o in g if remaining[o] > 0)
                if not options:
                    continue
                best = None
                besto = None
                for o in options:
                    rem2 = remaining[:o] + (remaining[o] - 1,) + remaining[o + 1:]
                    v = walk(h + ((g, o),), idxs, rem2, found + 1)
                    if best is None or v < best:
                        best, besto = v, o
                policy[(h, g)] = besto
                total += best
            return total

        v = walk((), [i for i in range(len(rows)) if x[i] > 0], tuple(alloc), 0)
        if best_val is None or v < best_val:
            best_val, best_col = v, (tuple(alloc), dict(policy))
    return best_val, best_col


def _searcher_br(cols, y, n, k, d):
    guesses = _all_guesses(n, k)
    strategy = {}

    def walk(h, active, found):
        if found == d:
            return sum(y[i] for i, _ in active)
        best, bestg = Fraction(0), guesses[0]
        for g in guesses:
            branches: dict = {}
            for i, remaining in active:
                options = sorted(o for o in g if remaining[o] > 0)
                if not options:
                    continue
                alloc, policy = cols[i]
                o = policy.get((h, g), options[0])
                if o not in options:
                    o = options[0]
                rem2 = remaining[:o] + (remaining[o] - 1,) + remaining[o + 1:]
                branches.setdefault(o, []).append((i, rem2))
            val = Fraction(0)
            for o in sorted(branches):
                val += walk(h + ((g, o),), branches[o], found + 1)
            if val > best:
                best, bestg = val, g
        strategy[h] = bestg
        return best

    active = [(i, tuple(cols[i][0])) for i in range(len(cols)) if y[i] > 0]
    return walk((), active, 0), strategy


def _complete_row(row, n, k, d):
    guesses = _all_guesses(n, k)
    out = {}

    def rec(h, found):
        if found == d:
            return
        g = row.get(h, guesses[0])
        out[h] = g
        for o in sorted(g):
            rec(h + ((g, o),), found + 1)

    rec((), 0)
    return out


def _solve_matrix(rows, cols, d):
    A = [[_payoff(r, c, d) for c in cols] for r in rows]
    R, C = len(rows), len(cols)
    cons = [({r: Fraction(1) for r in range(R)}, EQ, Fraction(1))]
    for c in range(C):
        row = {r: Fraction(A[r][c]) for r in range(R)}
        row[R] = Fraction(-1)
        cons.append((row, GEQ, Fraction(0)))
    res = solve_lp(R + 1, {R: Fraction(1)}, cons, maximize=True, free_vars=[R])
    cons2 = [({c: Fraction(1) for c in range(C)}, EQ, Fraction(1))]
    for r in range(R):
        row = {c: Fraction(A[r][c]) for c in range(C)}
        row[C] = Fraction(-1)
        cons2.append((row, LEQ, Fraction(0)))
    res2 = solve_lp(C + 1, {C: Fraction(1)}, cons2, maximize=False, free_vars=[C])
    assert res.objective == res2.objective
    return res.objective, list(res.x[:R]), list(res2.x[:C])


def double_oracle_value(n, d, k, occupancy="multi") -> Fraction:
    """Exact game value by double oracle, certified by best-response equality."""
    allocations = enumerate_allocations(n, d, occupancy)
    rows = [_complete_row({}, n, k, d)]
    cols = [(tuple(allocations[0]), {})]
    while True:
        v, x, y = _solve_matrix(rows, cols, d)
        hv, hcol = _hider_br(rows, x, allocations, d)
        sv, srow = _searcher_br(cols, y, n, k, d)
        done = True
        if hv < v:
            cols.append(hcol)
            done = False
        if sv > v:
            rows.append(_complete_row(srow, n, k, d))
            done = False
        if done:
            assert hv == v and sv == v
            return v
