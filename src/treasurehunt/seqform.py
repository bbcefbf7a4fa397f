"""Exact game value by sequence-form linear programming.

The LP follows the standard realization-plan formulation for two-player
zero-sum games: searcher realization probabilities per sequence, flow
constraints per information set, and one dual variable block per hider
decision point. Only this searcher LP is solved. The duals of its rows
for the hider's sequences are the hider's realization plan, and both plans
are then checked apart from the simplex, in exact integer arithmetic over
one denominator per plan: each is a realization plan, and the hider's best
response to the searcher's plan equals the searcher's best response to the
hider's, which proves the value by weak duality. Each side's value becomes
a Fraction only at the end. Solving the raw tree would be hopeless at
exact arithmetic scale, so the whole construction lives on the
door-relabeling quotient:

Every game here is invariant under permuting door labels, and a finite
zero-sum game with a symmetry group has optimal strategies invariant under
the group (average an optimum over the group; linearity keeps it optimal).
Restricting both players to invariant strategies collapses sequences onto
label orbits. Flow constraints pick up orbit multiplicities (an invariant
plan spreads its mass equally over an orbit) and payoff terms pick up
orbit sizes. The quotient LP has a few hundred rows where the raw LP would
have tens of thousands.

The build walks canonical positions (allocation plus observable events)
breadth first. Expanding one guess per orbit of a canonical position's
stabilizer (``game.orbit_representatives``) with the parent's orbit weight
times the orbit's size, and accumulating that onto canonical children,
counts each concrete terminal exactly once: a child orbit that is m times
larger than its parent's is entered by exactly m concrete edges from the
representative. As a whole-construction check, the accumulated weight of
every position must equal its orbit size n!/|stab|, or the build raises
``InternalError``, as it does when two paths reach one state from
different sequences. Only the roots, one per allocation shape, are
canonicalized, by ``game.relabeling``. Every other position, its
canonical history and their cell starts are stepped from the parent's by
``game.refine`` and ``game.split_cells``, and guesses are keyed by
``game.orbit_key``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from typing import Sequence

from .combinatorics import SINGLE, enumerate_partitions, partition_weight
from .errors import BudgetExceededError, InternalError
from .game import (
    Events,
    GameConfig,
    History,
    cell_pools,
    every_guess,
    orbit_key,
    orbit_representatives,
    refine,
    relabeling,
    split_cells,
    stabilizer_size,
)
from .jsonio import fraction_to_json
from .simplex import LEQ, EQ, OPTIMAL, solve_lp
from .strategies import SearcherStrategy, over_one_denominator


@dataclass
class _SInfoset:
    uid: int
    hist: Events
    parent_seq: int
    actions: list  # (canonical guess tuple, orbit size, sequence id)
    action_of: dict  # canonical guess tuple -> sequence id


@dataclass
class _HInfoset:
    uid: int
    parent_seq: int
    actions: list  # (label, orbit size, sequence id)


@dataclass
class _QuotientGame:
    config: GameConfig
    s_count: int
    h_count: int
    s_infosets: list
    s_infoset_by_hist: dict
    h_infosets: list
    payoff: dict  # (searcher seq, hider seq) -> int orbit count of wins
    states: int


def build_quotient_game(config: GameConfig, *, node_budget: int, column_budget: int) -> _QuotientGame:
    n, d = config.n, config.d
    guess_set = every_guess(config)

    s_infosets: list[_SInfoset] = []
    s_infoset_by_hist: dict[Events, _SInfoset] = {}
    s_count = 1  # sequence 0 is the searcher's empty sequence

    h_infosets: list[_HInfoset] = []  # hider sequence 0 is the empty sequence

    payoff: dict[tuple[int, int], int] = {}
    states_seen = 0

    @cache  # one list per tuple of cell starts, shared by positions and infosets
    def representatives(starts: tuple[int, ...]) -> list:
        """(guess, orbit size) pairs, by size, then lexicographically."""
        return sorted(orbit_representatives(guess_set, starts), key=lambda rep: (len(rep[0]), rep[0]))

    def new_s_infoset(hist: Events, starts: tuple[int, ...]) -> _SInfoset:
        # hist is canonical, so its prefix is too and each guess is its own orbit_key.
        nonlocal s_count
        parent_seq = s_infoset_by_hist[hist[:-1]].action_of[hist[-1][0]] if hist else 0
        info = _SInfoset(uid=len(s_infosets), hist=hist, parent_seq=parent_seq, actions=[], action_of={})
        for key, size in representatives(starts):
            info.actions.append((key, size, s_count))
            info.action_of[key] = s_count
            s_count += 1
        s_infosets.append(info)
        s_infoset_by_hist[hist] = info
        return info

    # Hider root: one action orbit per allocation shape.
    if config.occupancy == SINGLE:
        shapes = [(1,) * d]
    else:
        shapes = enumerate_partitions(d, n)
    root = _HInfoset(uid=0, parent_seq=0, actions=[])
    h_infosets.append(root)
    # position -> orbit weight, searcher and hider sequences, cell starts, canonical
    # history and the history's cell starts, both per door. Roots keep raw labels.
    level: dict = {}
    for seq, shape in enumerate(shapes, start=1):
        alloc = shape + (0,) * (n - len(shape))
        mult = partition_weight(shape, n)
        root.actions.append((shape, mult, seq))
        level[(alloc, ())] = [mult, 0, seq, relabeling(alloc, ())[2], (), (0,) * n]

    h_reveal_by_state: dict = {}

    for round_idx in range(d):
        next_level: dict = {}
        shared: dict = {}  # one copy of each carried tuple per level
        for (alloc, events), (weight, s0, h0, starts, hist, starts_h) in sorted(level.items()):
            states_seen += 1
            if states_seen > node_budget:
                raise BudgetExceededError(f"quotient build exceeded {node_budget} positions")
            if weight * stabilizer_size(starts) != factorial(n):
                raise InternalError("orbit weight mismatch: the quotient expansion is inconsistent")
            position = (tuple(sorted(alloc)), events)
            remaining = list(alloc)
            for doors, o in events:
                remaining[o] -= 1
            info = s_infoset_by_hist.get(hist)
            if info is None:
                info = new_s_infoset(hist, tuple(sorted(starts_h)))
            if info.parent_seq != s0:
                raise InternalError("searcher context mismatch: the quotient expansion is inconsistent")
            for g, size in representatives(starts):
                options = [o for o in g if remaining[o] > 0]
                if not options:
                    continue  # losing guess, payoff zero
                hkey = orbit_key(starts_h, g)
                s1 = info.action_of[hkey]
                mass = weight * size  # the orbit's concrete guesses, each with the position's weight
                if len(options) == 1:
                    transitions = [(options[0], h0)]
                else:
                    pending, labels = _reveal_point(position, starts, g, options)
                    rinfo = h_reveal_by_state.get(pending)
                    if rinfo is None:
                        rinfo = _new_h_infoset(labels, h0, h_infosets)
                        h_reveal_by_state[pending] = rinfo
                    elif rinfo.parent_seq != h0:
                        raise InternalError("hider context mismatch: the quotient expansion is inconsistent")
                    option_of = {label: seq for label, _, seq in rinfo.actions}
                    transitions = [(o, option_of[label]) for o, label in zip(options, labels)]
                for o, h1 in transitions:
                    if round_idx + 1 == d:
                        pair = (s1, h1)
                        payoff[pair] = payoff.get(pair, 0) + mass
                    else:
                        cstate = refine(position, starts, g, o)
                        entry = next_level.get(cstate)
                        if entry is None:
                            carried = (tuple(sorted(split_cells(starts, g, o))), hist + ((hkey, starts_h[o]),),
                                       split_cells(starts_h, *cstate[1][-1]))
                            next_level[cstate] = [mass, s1, h1, *(shared.setdefault(c, c) for c in carried)]
                        else:
                            entry[0] += mass
                            if entry[1] != s1 or entry[2] != h1:
                                raise InternalError(
                                    "sequence context mismatch: the quotient expansion is inconsistent"
                                )
        level = next_level
        columns = s_count + len(h_infosets) + 1
        if columns > column_budget:
            raise BudgetExceededError(f"quotient LP needs more than {column_budget} columns")

    return _QuotientGame(
        config=config,
        s_count=s_count,
        h_count=h_infosets[-1].actions[-1][2] + 1,
        s_infosets=s_infosets,
        s_infoset_by_hist=s_infoset_by_hist,
        h_infosets=h_infosets,
        payoff=payoff,
        states=states_seen,
    )


def _reveal_point(position, starts, guess, options):
    """The key of the hider's choice of reveal after ``guess``, and the label
    of each option's orbit, from the position's canonical form and starts.

    The key stands for the pending form
    ``relabeling(counts, events + ((guess, -1),))[0]``, in which the guessed
    doors take ``orbit_key(starts, guess)``. An option's orbit is the
    guessed part of its cell, labelled by the cell's first label.
    """
    return (position, orbit_key(starts, guess)), [starts[o] for o in options]


def _new_h_infoset(labels, parent_seq, h_infosets) -> _HInfoset:
    """Create a reveal decision point: one action per option orbit, in label
    order, sized by the options that carry its label."""
    info = _HInfoset(uid=len(h_infosets), parent_seq=parent_seq, actions=[])
    seq = h_infosets[-1].actions[-1][2] + 1  # sequences are numbered in creation order
    for label, size in sorted(Counter(labels).items()):
        info.actions.append((label, size, seq))
        seq += 1
    h_infosets.append(info)
    return info


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

def _searcher_lp(game: _QuotientGame):
    """max q_norm over x >= 0 (flow feasible) and free hider-block duals q.

    The last h_count rows are those of the hider's sequences, in order.
    """
    S = game.s_count
    q_norm = S
    q_of = lambda uid: S + 1 + uid  # noqa: E731
    num_vars = S + 1 + len(game.h_infosets)

    objective = {q_norm: 1}
    constraints: list = [({0: 1}, EQ, 1)]
    for info in game.s_infosets:
        row = {seq: mult for _, mult, seq in info.actions}
        row[info.parent_seq] = row.get(info.parent_seq, 0) - 1
        constraints.append((row, EQ, 0))

    children: dict[int, list[int]] = {}
    for info in game.h_infosets:
        children.setdefault(info.parent_seq, []).append(info.uid)
    pay_by_h: dict[int, list] = {}
    for (s, t), w in game.payoff.items():
        pay_by_h.setdefault(t, []).append((s, w))

    # Sequence t's own block, scaled by its orbit size, in sequence order.
    owners = [(q_norm, 1)] + [
        (q_of(info.uid), mult) for info in game.h_infosets for _, mult, _ in info.actions
    ]
    for t, (own, mult) in enumerate(owners):
        row = {own: mult}
        for uid in children.get(t, ()):  # blocks this sequence enables
            col = q_of(uid)
            row[col] = row.get(col, 0) - 1
        for s, w in pay_by_h.get(t, ()):  # win mass the searcher collects
            row[s] = row.get(s, 0) - w
        constraints.append((row, LEQ, 0))

    return num_vars, objective, constraints, range(S, num_vars)


# ---------------------------------------------------------------------------
# Certificate check: both plans and both best responses, in exact integers
# ---------------------------------------------------------------------------

def _check_plan(infosets, plan, side: str) -> None:
    """Raise InternalError unless plan is a realization plan on infosets.

    Checked on the plan's ints P over one denominator D: P[0] == D, no
    entry below 0, and every infoset's mult-weighted action entries sum to
    its parent sequence's entry.
    """
    scaled, den = over_one_denominator(plan)
    flows = all(
        sum(mult * scaled[seq] for _, mult, seq in info.actions) == scaled[info.parent_seq]
        for info in infosets
    )
    if scaled[0] != den or min(scaled) < 0 or not flows:
        raise InternalError(f"the LP's {side} plan is not a realization plan; this is a bug")


def _best_response(infosets, payoff, plan, pick) -> Fraction:
    """Value of the best reply to the other side's plan, bottom up, in ints.

    payoff maps (replying sequence, other sequence) to the win orbit count.
    A child infoset is created after the infoset of its parent sequence, so
    reverse creation order visits children first. Moving the parent's mass
    onto an action orbit gives each of its mult members 1/mult of it.

    The other side's plan is taken as ints P over its denominator D, and
    every leaf sum w * P[other] is scaled by S = L**h, where L is the lcm
    of the replying side's orbit sizes and h the depth of its deepest
    action. A sequence's value at depth t is then a multiple of L**t: its
    leaf sum is a multiple of S, and each child infoset adds
    pick(V[a] // mult) over actions a at depth t + 1, where mult divides L,
    so every division is exact. The root's value is V[0] / (D * S).
    """
    scaled, den = over_one_denominator(plan)
    depth = {0: 0}
    for info in infosets:
        below = depth[info.parent_seq] + 1
        for _, _, seq in info.actions:
            depth[seq] = below
    unit = lcm(*(mult for info in infosets for _, mult, _ in info.actions))
    scale = unit ** max(depth.values())
    value: dict[int, int] = defaultdict(int)
    for (seq, other), w in payoff.items():
        value[seq] += w * scaled[other]
    for seq in value:
        value[seq] *= scale
    for info in reversed(infosets):
        value[info.parent_seq] += pick(value[seq] // mult for _, mult, seq in info.actions)
    return Fraction(value[0], den * scale)


def _certify_plans(game: _QuotientGame, x, y) -> tuple[Fraction, Fraction]:
    """Searcher guarantee and hider cap of the plans x and y; equal or raise.

    x guarantees the searcher the hider's best-response value against it
    and y caps the searcher at the searcher's best-response value against
    it, so equal values prove the game value by weak duality.
    """
    _check_plan(game.s_infosets, x, "searcher")
    _check_plan(game.h_infosets, y, "hider")
    by_hider = {(t, s): w for (s, t), w in game.payoff.items()}
    lower = _best_response(game.h_infosets, by_hider, x, min)
    upper = _best_response(game.s_infosets, game.payoff, y, max)
    if lower != upper:
        raise InternalError(f"plans certify only {lower} <= value <= {upper}; this is a bug")
    return lower, upper


@dataclass(frozen=True)
class SequenceFormCertificate:
    """Optimal plan and sizes from one quotient LP solve."""

    plan_entries: tuple  # (canonical history, guess doors, realization probability)
    searcher_strategy: SearcherStrategy
    hider_mixture: tuple  # (representative allocation, total orbit probability)
    stats: dict

    def to_json(self) -> dict:
        return {
            "realization_plan": [
                {
                    "history": [[list(doors), o] for doors, o in hist],
                    "guess": list(guess),
                    "probability": fraction_to_json(p),
                }
                for hist, guess, p in self.plan_entries
            ],
            "hider_mixture": [
                {"allocation": list(alloc), "probability": fraction_to_json(p)}
                for alloc, p in self.hider_mixture
            ],
            "stats": {k: v for k, v in self.stats.items()},
        }


class LiftedPlanStrategy(SearcherStrategy):
    """Behavioral strategy induced by a quotient realization plan.

    A raw history is canonicalized, the plan supplies orbit realization
    probabilities, and each orbit spreads uniformly over its members: the
    guesses whose ``orbit_key`` on the history is the orbit's, which take
    as many doors from each of the history's cells as the orbit's key.
    Unreached histories fall back to a uniform legal guess, which cannot
    affect the certified value.
    """

    door_symmetric = True
    name = "lp-plan"

    def __init__(self, config: GameConfig, game: _QuotientGame, plan: Sequence[Fraction]):
        self.config = config
        self._game = game
        self._plan = list(plan)

    def guess_orbits(self, history: History):
        n = self.config.n
        (_, canon_hist), _, starts = relabeling((0,) * n, history)
        info = self._game.s_infoset_by_hist.get(canon_hist)
        parent_mass = 0 if info is None else self._plan[info.parent_seq]
        if parent_mass == 0:
            share = Fraction(1, sum(comb(n, size) for size in range(1, self.config.k + 1)))
            return [(parts, share) for parts, _ in every_guess(self.config)]
        pools = cell_pools(range(n), starts)  # ascending inside each cell
        start_of = sorted(starts)  # label -> its cell's first label
        out = []
        for key, _, seq in info.actions:
            mass = self._plan[seq]
            if mass != 0:
                taken = Counter(start_of[label] for label in key)
                parts = tuple((tuple(pools[start]), m) for start, m in sorted(taken.items()))
                out.append((parts, mass / parent_mass))
        return out


def solve_sequence_form(config: GameConfig, *, node_budget: int, column_budget: int):
    """Build the quotient, solve the searcher LP, certify both plans, and return
    ``(value, dual_value, certificate)``; ``solver`` builds the report."""
    game = build_quotient_game(config, node_budget=node_budget, column_budget=column_budget)
    num_vars, objective, constraints, free = _searcher_lp(game)
    primal = solve_lp(num_vars, objective, constraints, maximize=True, free_vars=free)
    if primal.status != OPTIMAL:  # pragma: no cover - the game LP is always solvable
        raise InternalError(f"searcher-side LP came back {primal.status}; this is a bug")
    plan = list(primal.x[: game.s_count])
    y = primal.duals[-game.h_count:]  # the hider sequences' rows come last
    value, dual_value = _certify_plans(game, plan, y)
    plan_entries = tuple(
        (info.hist, rep, plan[seq])
        for info in game.s_infosets for rep, _, seq in info.actions if plan[seq] != 0
    )
    mixture = tuple(
        (shape + (0,) * (config.n - len(shape)), mult * y[seq])
        for shape, mult, seq in game.h_infosets[0].actions if y[seq] != 0
    )
    stats = {
        "positions": game.states,
        "searcher_sequences": game.s_count,
        "hider_sequences": game.h_count,
        "searcher_infosets": len(game.s_infosets),
        "hider_infosets": len(game.h_infosets),
        "pivots": primal.pivots,
    }
    certificate = SequenceFormCertificate(
        plan_entries=plan_entries,
        searcher_strategy=LiftedPlanStrategy(config, game, plan),
        hider_mixture=mixture,
        stats=stats,
    )
    return value, dual_value, certificate
