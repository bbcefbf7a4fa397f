"""Exact game value by sequence-form linear programming.

The LP follows the standard realization-plan formulation for two-player
zero-sum games: searcher realization probabilities per sequence, flow
constraints per information set, and one dual variable block per hider
decision point. Solving the raw tree would be hopeless at exact arithmetic
scale, so the whole construction lives on the door-relabeling quotient:

Every game here is invariant under permuting door labels, and a finite
zero-sum game with a symmetry group has optimal strategies invariant under
the group (average an optimum over the group; linearity keeps it optimal).
Restricting both players to invariant strategies collapses sequences onto
label orbits. Flow constraints pick up orbit multiplicities (an invariant
plan spreads its mass equally over an orbit) and payoff terms pick up
orbit sizes. The quotient LP has a few hundred rows where the raw LP would
have tens of thousands.

The build walks canonical positions (allocation plus observable events)
breadth first. Expanding every concrete action of one canonical
representative and accumulating the parent's orbit weight onto canonical
children counts each concrete terminal exactly once: a child orbit that is
m times larger than its parent's is entered by exactly m concrete edges
from the representative. As a whole-construction check, the accumulated
weight of every position is asserted to equal its orbit size n!/|stab|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Sequence

from .combinatorics import SINGLE, enumerate_partitions, partition_weight
from .errors import BudgetExceededError
from .game import GameConfig, History, all_guesses
from .simplex import GEQ, LEQ, EQ, OPTIMAL, solve_lp
from .strategies import SearcherStrategy

Events = tuple[tuple[tuple[int, ...], int], ...]  # ((sorted doors, reveal), ...); -1 marks a pending guess


class _Canonicalizer:
    """Minimal-encoding canonical forms under the door symmetric group."""

    def __init__(self, n: int):
        self.n = n
        self.perms = list(permutations(range(n)))
        self._full_cache: dict = {}
        self._hist_cache: dict = {}
        self._stab_cache: dict = {}

    def full(self, alloc: tuple[int, ...], events: Events):
        """Canonical (alloc, events), the stabilizer size, and one minimizing map."""
        key = (alloc, events)
        hit = self._full_cache.get(key)
        if hit is not None:
            return hit
        best = None
        best_perm = None
        count = 0
        for perm in self.perms:
            enc = (_apply_alloc(alloc, perm), _apply_events(events, perm))
            if best is None or enc < best:
                best, best_perm, count = enc, perm, 1
            elif enc == best:
                count += 1
        result = (best, count, best_perm)
        self._full_cache[key] = result
        return result

    def history(self, events: Events):
        """Canonical events alone, and one minimizing map."""
        hit = self._hist_cache.get(events)
        if hit is not None:
            return hit
        best = None
        best_perm = None
        for perm in self.perms:
            enc = _apply_events(events, perm)
            if best is None or enc < best:
                best, best_perm = enc, perm
        result = (best, best_perm)
        self._hist_cache[events] = result
        return result

    def stab_of_events(self, events: Events) -> list:
        key = ("hist", events)
        hit = self._stab_cache.get(key)
        if hit is None:
            hit = [p for p in self.perms if _apply_events(events, p) == events]
            self._stab_cache[key] = hit
        return hit

    def stab_of_state(self, alloc: tuple[int, ...], events: Events) -> list:
        key = ("full", alloc, events)
        hit = self._stab_cache.get(key)
        if hit is None:
            hit = [
                p
                for p in self.perms
                if _apply_alloc(alloc, p) == alloc and _apply_events(events, p) == events
            ]
            self._stab_cache[key] = hit
        return hit


def _apply_alloc(alloc: tuple[int, ...], perm) -> tuple[int, ...]:
    out = [0] * len(alloc)
    for i, c in enumerate(alloc):
        out[perm[i]] = c
    return tuple(out)


def _apply_events(events: Events, perm) -> Events:
    return tuple(
        (tuple(sorted(perm[x] for x in doors)), perm[o] if o >= 0 else -1)
        for doors, o in events
    )


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
    canon: _Canonicalizer
    s_count: int
    h_count: int
    s_infosets: list
    s_infoset_by_hist: dict
    h_infosets: list
    s_owner: dict  # searcher seq -> (infoset uid or None for root, orbit mult)
    h_owner: dict  # hider seq -> (infoset uid or None for the norm row, orbit mult)
    payoff: dict  # (searcher seq, hider seq) -> int orbit count of wins
    states: int


def build_quotient_game(config: GameConfig, *, node_budget: int, column_budget: int) -> _QuotientGame:
    n, d = config.n, config.d
    canon = _Canonicalizer(n)
    guesses = all_guesses(config)

    s_infosets: list[_SInfoset] = []
    s_infoset_by_hist: dict[Events, _SInfoset] = {}
    s_count = 1  # sequence 0 is the searcher's empty sequence
    s_owner: dict[int, tuple[int | None, int]] = {0: (None, 1)}

    h_infosets: list[_HInfoset] = []
    h_count = 1  # sequence 0 is the hider's empty sequence
    h_owner: dict[int, tuple[int | None, int]] = {0: (None, 1)}

    payoff: dict[tuple[int, int], int] = {}
    states_seen = 0

    def new_s_infoset(hist: Events) -> _SInfoset:
        nonlocal s_count
        if hist:
            prev = hist[:-1]
            prev_canon, sigma = canon.history(prev)
            parent_info = s_infoset_by_hist[prev_canon]
            doors = hist[-1][0]
            mapped = tuple(sorted(sigma[x] for x in doors))
            stab = canon.stab_of_events(prev_canon)
            key = min(tuple(sorted(p[x] for x in mapped)) for p in stab)
            parent_seq = parent_info.action_of[key]
        else:
            parent_seq = 0
        stab = canon.stab_of_events(hist)
        info = _SInfoset(uid=len(s_infosets), hist=hist, parent_seq=parent_seq, actions=[], action_of={})
        for g in guesses:
            images = {tuple(sorted(p[x] for x in g)) for p in stab}
            key = min(images)
            if g != key:
                continue
            seq = s_count
            s_count += 1
            s_owner[seq] = (info.uid, len(images))
            info.actions.append((key, len(images), seq))
            info.action_of[key] = seq
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
    level: dict = {}
    for shape in shapes:
        alloc = shape + (0,) * (n - len(shape))
        seq = h_count
        h_count += 1
        mult = partition_weight(shape, n)
        h_owner[seq] = (0, mult)
        root.actions.append((shape, mult, seq))
        level[(alloc, ())] = [mult, 0, seq]

    h_reveal_by_state: dict = {}

    for round_idx in range(d):
        next_level: dict = {}
        for (alloc, events), (weight, s0, h0) in sorted(level.items()):
            states_seen += 1
            if states_seen > node_budget:
                raise BudgetExceededError(f"quotient build exceeded {node_budget} positions")
            stab_size = len(canon.stab_of_state(alloc, events))
            assert weight * stab_size == factorial(n), (
                "orbit weight mismatch: the quotient expansion is inconsistent"
            )
            remaining = list(alloc)
            for doors, o in events:
                remaining[o] -= 1
            hist_canon, sigma_h = canon.history(events)
            info = s_infoset_by_hist.get(hist_canon)
            if info is None:
                info = new_s_infoset(hist_canon)
            assert info.parent_seq == s0, (
                "searcher context mismatch: the quotient expansion is inconsistent"
            )
            stab_h = canon.stab_of_events(hist_canon)
            for g in guesses:
                mapped = tuple(sorted(sigma_h[x] for x in g))
                akey = min(tuple(sorted(p[x] for x in mapped)) for p in stab_h)
                s1 = info.action_of[akey]
                options = [o for o in g if remaining[o] > 0]
                if not options:
                    continue  # losing guess, payoff zero
                if len(options) == 1:
                    transitions = [(options[0], h0)]
                else:
                    pending = events + ((g, -1),)
                    (pstate, _, sigma_p) = canon.full(alloc, pending)
                    rinfo = h_reveal_by_state.get(pstate)
                    if rinfo is None:
                        rinfo = _new_h_infoset(pstate, h0, canon, h_infosets, h_owner)
                        h_reveal_by_state[pstate] = rinfo
                    else:
                        assert rinfo.parent_seq == h0, (
                            "hider context mismatch: the quotient expansion is inconsistent"
                        )
                    stab_p = canon.stab_of_state(*pstate)
                    option_of = {label: seq for label, _, seq in rinfo.actions}
                    transitions = []
                    for o in options:
                        okey = min(p[sigma_p[o]] for p in stab_p)
                        transitions.append((o, option_of[okey]))
                for o, h1 in transitions:
                    child_events = events + ((g, o),)
                    if round_idx + 1 == d:
                        pair = (s1, h1)
                        payoff[pair] = payoff.get(pair, 0) + weight
                    else:
                        (cstate, _, _) = canon.full(alloc, child_events)
                        entry = next_level.get(cstate)
                        if entry is None:
                            next_level[cstate] = [weight, s1, h1]
                        else:
                            entry[0] += weight
                            assert entry[1] == s1 and entry[2] == h1, (
                                "sequence context mismatch: the quotient expansion is inconsistent"
                            )
        level = next_level
        columns = s_count + len(h_infosets) + 1
        if columns > column_budget:
            raise BudgetExceededError(f"quotient LP needs more than {column_budget} columns")

    return _QuotientGame(
        config=config,
        canon=canon,
        s_count=s_count,
        h_count=max(h_owner) + 1,
        s_infosets=s_infosets,
        s_infoset_by_hist=s_infoset_by_hist,
        h_infosets=h_infosets,
        s_owner=s_owner,
        h_owner=h_owner,
        payoff=payoff,
        states=states_seen,
    )


def _new_h_infoset(pstate, parent_seq, canon, h_infosets, h_owner) -> _HInfoset:
    """Create a reveal decision point on the canonical pending state."""
    pmu, pevents = pstate
    remaining = list(pmu)
    for doors, o in pevents[:-1]:
        remaining[o] -= 1
    pguess = pevents[-1][0]
    opts = sorted(o for o in pguess if remaining[o] > 0)
    stab = canon.stab_of_state(pmu, pevents)
    info = _HInfoset(uid=len(h_infosets), parent_seq=parent_seq, actions=[])
    seq = max(h_owner) + 1
    seen: set[int] = set()
    for o in opts:
        images = {p[o] for p in stab}
        label = min(images)
        if label in seen:
            continue
        seen.add(label)
        h_owner[seq] = (info.uid, len(images))
        info.actions.append((label, len(images), seq))
        seq += 1
    h_infosets.append(info)
    return info


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

def _searcher_lp(game: _QuotientGame):
    """max q_norm over x >= 0 (flow feasible) and free hider-block duals q."""
    S = game.s_count
    H = len(game.h_infosets)
    q_norm = S
    q_of = lambda uid: S + 1 + uid  # noqa: E731
    num_vars = S + 1 + H

    objective = {q_norm: Fraction(1)}
    constraints: list = [({0: Fraction(1)}, EQ, Fraction(1))]
    for info in game.s_infosets:
        row = {seq: Fraction(mult) for _, mult, seq in info.actions}
        row[info.parent_seq] = row.get(info.parent_seq, Fraction(0)) - 1
        constraints.append((row, EQ, Fraction(0)))

    children: dict[int, list[int]] = {}
    for info in game.h_infosets:
        children.setdefault(info.parent_seq, []).append(info.uid)
    pay_by_h: dict[int, list] = {}
    for (s, t), w in game.payoff.items():
        pay_by_h.setdefault(t, []).append((s, w))

    for t in range(game.h_count):
        owner, mult = game.h_owner[t]
        row = {q_of(owner) if owner is not None else q_norm: Fraction(mult)}
        for uid in children.get(t, ()):  # blocks this sequence enables
            col = q_of(uid)
            row[col] = row.get(col, Fraction(0)) - 1
        for s, w in pay_by_h.get(t, ()):  # win mass the searcher collects
            row[s] = row.get(s, Fraction(0)) - w
        constraints.append((row, LEQ, Fraction(0)))

    free = range(S, num_vars)
    return num_vars, objective, constraints, free, q_norm


def _hider_lp(game: _QuotientGame):
    """min p_norm over y >= 0 (hider flow) and free searcher-block duals p."""
    T = game.h_count
    J = len(game.s_infosets)
    p_norm = T
    p_of = lambda uid: T + 1 + uid  # noqa: E731
    num_vars = T + 1 + J

    objective = {p_norm: Fraction(1)}
    constraints: list = [({0: Fraction(1)}, EQ, Fraction(1))]
    for info in game.h_infosets:
        row = {seq: Fraction(mult) for _, mult, seq in info.actions}
        row[info.parent_seq] = row.get(info.parent_seq, Fraction(0)) - 1
        constraints.append((row, EQ, Fraction(0)))

    children: dict[int, list[int]] = {}
    for info in game.s_infosets:
        children.setdefault(info.parent_seq, []).append(info.uid)
    pay_by_s: dict[int, list] = {}
    for (s, t), w in game.payoff.items():
        pay_by_s.setdefault(s, []).append((t, w))

    for s in range(game.s_count):
        owner, mult = game.s_owner[s]
        row = {p_of(owner) if owner is not None else p_norm: Fraction(mult)}
        for uid in children.get(s, ()):
            col = p_of(uid)
            row[col] = row.get(col, Fraction(0)) - 1
        for t, w in pay_by_s.get(s, ()):
            row[t] = row.get(t, Fraction(0)) - w
        constraints.append((row, GEQ, Fraction(0)))

    free = range(T, num_vars)
    return num_vars, objective, constraints, free, p_norm


@dataclass(frozen=True)
class SequenceFormCertificate:
    """Optimal plan and sizes from one quotient LP solve."""

    plan_entries: tuple  # (canonical history, guess doors, realization probability)
    searcher_strategy: SearcherStrategy
    hider_mixture: tuple  # (representative allocation, total orbit probability)
    stats: dict

    def to_json(self) -> dict:
        from .jsonio import fraction_to_json

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
    probabilities, and each orbit spreads uniformly over its members mapped
    back through the relabeling. Unreached histories fall back to a uniform
    legal guess, which cannot affect the certified value.
    """

    door_symmetric = True
    name = "lp-plan"

    def __init__(self, config: GameConfig, game: _QuotientGame, plan: Sequence[Fraction]):
        self.config = config
        self._game = game
        self._plan = list(plan)

    def guess_distribution(self, history: History):
        events = tuple((tuple(sorted(g)), o) for g, o in history)
        canon_hist, sigma = self._game.canon.history(events)
        info = self._game.s_infoset_by_hist.get(canon_hist)
        if info is None:
            return self._uniform(history)
        parent_mass = self._plan[info.parent_seq]
        if parent_mass == 0:
            return self._uniform(history)
        inverse = [0] * self.config.n
        for i, image in enumerate(sigma):
            inverse[image] = i
        stab = self._game.canon.stab_of_events(canon_hist)
        out = []
        for rep, mult, seq in info.actions:
            mass = self._plan[seq]
            if mass == 0:
                continue
            images = {tuple(sorted(p[x] for x in rep)) for p in stab}
            assert len(images) == mult
            share = mass / parent_mass
            for img in images:
                out.append((frozenset(inverse[x] for x in img), share))
        return out

    def _uniform(self, history: History):
        legal = all_guesses(self.config)
        share = Fraction(1, len(legal))
        return [(frozenset(g), share) for g in legal]


def solve_sequence_form(config: GameConfig, *, node_budget: int, column_budget: int):
    """Build the quotient, solve both LP sides, and certify the value."""
    from .solver import LP, ValueReport, counting_upper_bound

    game = build_quotient_game(config, node_budget=node_budget, column_budget=column_budget)

    num_vars, objective, constraints, free, q_norm = _searcher_lp(game)
    primal = solve_lp(num_vars, objective, constraints, maximize=True, free_vars=free)
    if primal.status != OPTIMAL:  # pragma: no cover - the game LP is always solvable
        raise RuntimeError(f"searcher-side LP came back {primal.status}; this is a bug")

    num_vars_d, objective_d, constraints_d, free_d, p_norm = _hider_lp(game)
    dual = solve_lp(num_vars_d, objective_d, constraints_d, maximize=False, free_vars=free_d)
    if dual.status != OPTIMAL:  # pragma: no cover
        raise RuntimeError(f"hider-side LP came back {dual.status}; this is a bug")

    value = primal.x[q_norm]
    dual_value = dual.x[p_norm]
    if value != dual_value:  # pragma: no cover - exact strong duality must hold
        raise RuntimeError(f"strong duality violated: {value} versus {dual_value}; this is a bug")

    plan = list(primal.x[: game.s_count])
    strategy = LiftedPlanStrategy(config, game, plan)
    plan_entries = []
    for info in game.s_infosets:
        for rep, mult, seq in info.actions:
            if plan[seq] != 0:
                plan_entries.append((info.hist, rep, plan[seq]))
    mixture = []
    for shape, mult, seq in game.h_infosets[0].actions:
        y = dual.x[seq]
        if y != 0:
            alloc = shape + (0,) * (config.n - len(shape))
            mixture.append((alloc, mult * y))
    stats = {
        "positions": game.states,
        "searcher_sequences": game.s_count,
        "hider_sequences": game.h_count,
        "searcher_infosets": len(game.s_infosets),
        "hider_infosets": len(game.h_infosets),
    }
    certificate = SequenceFormCertificate(
        plan_entries=tuple(plan_entries),
        searcher_strategy=strategy,
        hider_mixture=tuple(mixture),
        stats=stats,
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
