import hashlib
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_utils import (
    apply_counts,
    apply_events,
    double_oracle_value,
    reference_best_response,
    reference_check_plan,
)
from treasurehunt.errors import BudgetExceededError, InternalError
from treasurehunt.game import GameConfig, relabeling
from treasurehunt.seqform import (
    _HInfoset,
    _best_response,
    _certify_plans,
    _check_plan,
    _reveal_point,
    _searcher_lp,
    build_quotient_game,
    solve_lp,
)
from treasurehunt.solver import (
    hider_best_response_value,
    counting_upper_bound,
    searcher_best_response_value,
    sequence_form_value,
)
from treasurehunt.strategies import uniform_hider

F = Fraction


@pytest.mark.parametrize(
    "n,d,k,occupancy",
    [
        (2, 2, 1, "multi"),
        (3, 2, 1, "multi"),
        (2, 2, 2, "multi"),
        (3, 2, 2, "multi"),
        (3, 3, 1, "multi"),
        (2, 3, 1, "multi"),
        (4, 2, 2, "single"),
    ],
)
def test_lp_matches_double_oracle(n, d, k, occupancy):
    cfg = GameConfig(n, d, k, occupancy=occupancy)
    assert sequence_form_value(cfg).value == double_oracle_value(n, d, k, occupancy)


def test_lp_known_values():
    assert sequence_form_value(GameConfig(4, 2, 2, occupancy="single")).value == F(2, 3)
    assert sequence_form_value(GameConfig(3, 2, 2)).value == F(2, 3)
    assert sequence_form_value(GameConfig(4, 2, 2)).value == F(2, 5)
    # Guess-one table strategies equalize, so the counting bound is exact.
    for n, d in [(3, 3), (4, 2), (2, 3)]:
        cfg = GameConfig(n, d, 1)
        assert sequence_form_value(cfg).value == counting_upper_bound(cfg)


def test_lp_reaches_nine_doors():
    # Criterion 3's value k^d / C(n+d-1, d) at (9,3,2), by the LP alone.
    report = sequence_form_value(GameConfig(9, 3, 2))
    assert report.value == F(8, 165)
    assert report.tight


def test_value_of_3_3_2_is_certified_three_fifths():
    # The LP value, its lifted-plan guarantee, and an independent posterior
    # DP pin the value of the (3,3,2) game at 3/5: the plan guarantees 3/5
    # under adversarial reveals, and uniform hiding caps every searcher at
    # 3/5 even under the searcher-friendlier uniform-door reveals.
    cfg = GameConfig(3, 3, 2)
    report = sequence_form_value(cfg)
    assert report.value == F(3, 5)
    lifted = report.certificate.searcher_strategy
    assert hider_best_response_value(cfg, lifted).value == F(3, 5)
    relaxed = GameConfig(3, 3, 2, reveal="uniform-doors")
    cap = searcher_best_response_value(relaxed, uniform_hider(relaxed))
    assert cap.value == F(3, 5)


@pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"),
    reason="minutes-long cross-check; set TREASUREHUNT_SLOW=1 to run",
)
def test_double_oracle_confirms_3_3_2():
    assert double_oracle_value(3, 3, 2) == F(3, 5)


def test_strong_duality_reported():
    cfg = GameConfig(3, 3, 2)
    report = sequence_form_value(cfg)
    assert report.details["dual_value"] == report.value


SLOW = pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"), reason="seconds-long; set TREASUREHUNT_SLOW=1 to run"
)


@pytest.mark.parametrize("n,d,k,occupancy,value,pivots,s_seqs,h_seqs,positions", [
    pytest.param(3, 3, 2, "multi", F(3, 5), 64, 95, 16, 54, id="3-3-2-multi-value0-64"),
    pytest.param(5, 3, 2, "multi", F(8, 35), 66, 148, 17, 66, id="5-3-2-multi-value1-66"),
    pytest.param(7, 2, 2, "multi", F(1, 7), 12, 14, 4, 7, id="7-2-2-multi-value2-12"),
    pytest.param(7, 3, 2, "single", F(8, 35), 44, 113, 7, 21, id="7-3-2-single-value3-44"),
    pytest.param(9, 3, 2, "multi", F(8, 165), 69, 149, 17, 66, id="9-3-2-multi-value4-69"),
    pytest.param(4, 3, 3, "multi", F(18, 25), 434, 542, 56, 170, id="4-3-3-multi-value5-434"),
    pytest.param(4, 4, 2, "multi", F(12, 35), 1348, 1908, 185, 863, id="4-4-2-multi-value6-1348", marks=SLOW),
    pytest.param(5, 4, 2, "multi", F(8, 35), 7202, 2559, 200, 1015, id="5-4-2-multi-value7-7202", marks=SLOW),
])
def test_searcher_lp_pivot_counts_are_pinned(n, d, k, occupancy, value, pivots, s_seqs, h_seqs, positions):
    # Bland's rule makes every entering and leaving choice a function of
    # the LP's exact values, so the pivot count over both phases pins the
    # path: arithmetic that changed a single choice would change the count.
    # The quotient's sizes pin the build that the LP comes from.
    report = sequence_form_value(GameConfig(n, d, k, occupancy=occupancy))
    assert report.value == value
    stats = report.certificate.stats
    assert stats["pivots"] == pivots
    assert (stats["searcher_sequences"], stats["hider_sequences"]) == (s_seqs, h_seqs)
    assert stats["positions"] == positions


def _lp_plans(cfg):
    game = build_quotient_game(cfg, node_budget=10**6, column_budget=10**5)
    num_vars, objective, constraints, free = _searcher_lp(game)
    result = solve_lp(num_vars, objective, constraints, maximize=True, free_vars=free)
    return game, list(result.x[: game.s_count]), list(result.duals[-game.h_count:])


def _scale_hider_subtree(game, y, seq, factor):
    y[seq] *= factor
    for info in game.h_infosets:
        if info.parent_seq == seq:
            for _, _, child in info.actions:
                _scale_hider_subtree(game, y, child, factor)


def test_certificate_check_accepts_the_lp_plans():
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    assert _certify_plans(game, x, y) == (F(3, 5), F(3, 5))


def test_certificate_check_rejects_broken_hider_flow():
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    _, _, seq = game.h_infosets[0].actions[0]
    y[seq] *= 2  # the root's orbit masses now sum past 1
    with pytest.raises(InternalError, match="hider plan is not a realization plan"):
        _certify_plans(game, x, y)


def test_certificate_check_rejects_a_suboptimal_hider_plan():
    # Move the (1,1,1) shape's root mass onto the (3,) shape, scaling both
    # subtrees: still a realization plan, but the searcher can beat 3/5.
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    (_, m_to, to), _, (_, m_from, src) = game.h_infosets[0].actions
    moved = m_from * y[src]
    assert moved > 0
    _scale_hider_subtree(game, y, to, 1 + moved / (m_to * y[to]))
    _scale_hider_subtree(game, y, src, F(0))
    with pytest.raises(InternalError, match="plans certify only 3/5 <= value <= "):
        _certify_plans(game, x, y)


def _leaf_move_below_zero(infosets, plan):
    """The plan with mass moved between two leaf actions of one infoset so
    that one entry drops below 0, every flow still holding; None when no
    infoset has two leaf actions."""
    parents = {info.parent_seq for info in infosets}
    for info in infosets:
        leaves = [(mult, seq) for _, mult, seq in info.actions if seq not in parents]
        if len(leaves) >= 2:
            (m_to, to), (m_from, src) = leaves[:2]
            moved = m_from * plan[src] + 1
            plan = list(plan)
            plan[to] += moved / m_to
            plan[src] -= moved / m_from
            return plan
    return None


def test_certificate_check_rejects_broken_searcher_flow():
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    seq = next(seq for _, _, seq in game.s_infosets[0].actions if x[seq] > 0)
    x[seq] *= 2  # the root infoset's orbit masses now sum past 1
    with pytest.raises(InternalError, match="searcher plan is not a realization plan"):
        _certify_plans(game, x, y)


def test_certificate_check_rejects_a_negative_searcher_entry():
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    x = _leaf_move_below_zero(game.s_infosets, x)
    assert x is not None and min(x) < 0
    with pytest.raises(InternalError, match="searcher plan is not a realization plan"):
        _certify_plans(game, x, y)


@pytest.mark.parametrize("side", ["searcher", "hider"])
def test_certificate_check_rejects_a_root_other_than_one(side):
    # Doubling every entry keeps every flow and sign; only the root is off.
    game, x, y = _lp_plans(GameConfig(3, 3, 2))
    if side == "searcher":
        x = [2 * p for p in x]
    else:
        y = [2 * p for p in y]
    with pytest.raises(InternalError, match=f"{side} plan is not a realization plan"):
        _certify_plans(game, x, y)


def _bounds(game, x, y, check_plan, best_response):
    """Check both plans, then return (hider's best response to x, searcher's to y)."""
    check_plan(game.s_infosets, x, "searcher")
    check_plan(game.h_infosets, y, "hider")
    by_hider = {(t, s): w for (s, t), w in game.payoff.items()}
    return (best_response(game.h_infosets, by_hider, x, min),
            best_response(game.s_infosets, game.payoff, y, max))


# The games of criterion 10's grid and of the lp benchmark workload.
LP_PLAN_GAMES = sorted(
    {(n, d, k, "multi") for n in range(2, 5) for d in range(1, 4) for k in range(1, min(3, n) + 1)}
    | {(3, 3, 2, "multi"), (4, 3, 2, "multi"), (5, 3, 2, "multi"), (7, 2, 2, "multi"),
       (7, 3, 2, "single"), (4, 2, 2, "single")}
)


@pytest.mark.parametrize("n,d,k,occupancy", LP_PLAN_GAMES)
def test_integer_check_matches_the_fraction_oracle_on_lp_plans(n, d, k, occupancy):
    game, x, y = _lp_plans(GameConfig(n, d, k, occupancy=occupancy))
    expected = _bounds(game, x, y, reference_check_plan, reference_best_response)
    assert expected[0] == expected[1]
    assert _bounds(game, x, y, _check_plan, _best_response) == expected
    assert _certify_plans(game, x, y) == expected


def _random_plan(infosets, rng):
    """A realization plan from random rational behaviour, built top down;
    some actions get no mass, so whole subtrees are 0."""
    plan = [F(0)] * (infosets[-1].actions[-1][2] + 1)
    plan[0] = F(1)
    for info in infosets:
        weights = [rng.choice((0, 1, 2, 3, 7)) for _ in info.actions]
        weights[rng.randrange(len(weights))] += 1
        total = sum(weights)
        for (_, mult, seq), w in zip(info.actions, weights):
            plan[seq] = plan[info.parent_seq] * F(w, total * mult)
    return plan


# Quotients of depth 4 and 5; (5,5,2) takes about 9 s.
RANDOM_PLAN_GAMES = [
    (5, 4, 2, "multi"),
    (3, 5, 2, "multi"),
    (4, 4, 2, "single"),
    pytest.param(5, 5, 2, "multi", marks=SLOW),
]


@pytest.mark.parametrize("n,d,k,occupancy", RANDOM_PLAN_GAMES)
def test_integer_check_matches_the_fraction_oracle_on_random_plans(n, d, k, occupancy):
    cfg = GameConfig(n, d, k, occupancy=occupancy)
    game = build_quotient_game(cfg, node_budget=10**6, column_budget=10**6)
    rng = random.Random(f"{n}-{d}-{k}-{occupancy}")
    for _ in range(3):
        x = _random_plan(game.s_infosets, rng)
        y = _random_plan(game.h_infosets, rng)
        expected = _bounds(game, x, y, reference_check_plan, reference_best_response)
        assert _bounds(game, x, y, _check_plan, _best_response) == expected
        # Win counts of a real quotient divide evenly down every path; these
        # need the integer check's full scale for its divisions to be exact.
        payoff = {pair: rng.randint(1, 5) for pair in game.payoff}
        by_hider = {(t, s): w for (s, t), w in payoff.items()}
        sides = ((game.s_infosets, payoff, y, max), (game.h_infosets, by_hider, x, min))
        for infosets, reply, plan, pick in sides:
            expected = reference_best_response(infosets, reply, plan, pick)
            assert _best_response(infosets, reply, plan, pick) == expected


def test_best_response_divides_exactly_down_a_path_of_orbits():
    # A hand-made tree whose win counts no orbit size divides: the orbit
    # sizes 2 and 2 down one path need a scale of 2 * 2 for exact division.
    infosets = [
        _HInfoset(uid=0, parent_seq=0, actions=[("a", 2, 1), ("b", 3, 2)]),
        _HInfoset(uid=1, parent_seq=1, actions=[("c", 2, 3), ("d", 1, 4)]),
    ]
    payoff = {(2, 0): 1, (3, 0): 1, (4, 0): 1}
    plan = [F(1)]
    for pick, value in ((min, F(1, 4)), (max, F(1, 2))):
        assert reference_best_response(infosets, payoff, plan, pick) == value
        assert _best_response(infosets, payoff, plan, pick) == value


def _mutated_plans(infosets, plan, rng):
    seq = rng.choice([seq for seq in range(1, len(plan)) if plan[seq] > 0])
    yield [2 * p for p in plan]  # root 2, flows and signs kept
    broken = list(plan)
    broken[seq] *= 2  # flow broken
    yield broken
    negative = list(plan)
    negative[seq] = -negative[seq]  # below 0 and flow broken
    yield negative
    moved = _leaf_move_below_zero(infosets, plan)  # below 0, flows kept
    if moved is not None:
        yield moved


@pytest.mark.parametrize("n,d,k,occupancy,source", [
    (3, 3, 2, "multi", "lp"),
    (4, 2, 2, "single", "lp"),
    (5, 4, 2, "multi", "random"),
])
def test_integer_check_raises_the_fraction_oracle_error_on_mutated_plans(n, d, k, occupancy, source):
    cfg = GameConfig(n, d, k, occupancy=occupancy)
    rng = random.Random(f"{n}-{d}-{k}-{occupancy}")
    if source == "lp":
        game, x, y = _lp_plans(cfg)
    else:
        game = build_quotient_game(cfg, node_budget=10**6, column_budget=10**6)
        x, y = _random_plan(game.s_infosets, rng), _random_plan(game.h_infosets, rng)
    for infosets, plan, side in ((game.s_infosets, x, "searcher"), (game.h_infosets, y, "hider")):
        for mutated in _mutated_plans(infosets, plan, rng):
            with pytest.raises(InternalError) as expected:
                reference_check_plan(infosets, mutated, side)
            with pytest.raises(InternalError) as raised:
                _check_plan(infosets, mutated, side)
            assert str(raised.value) == str(expected.value)
            assert f"{side} plan is not a realization plan" in str(raised.value)


class _Counted(Fraction):
    """A Fraction that counts its constructions and its arithmetic."""

    ops = 0

    def __new__(cls, *args, **kwargs):
        _Counted.ops += 1
        return super().__new__(cls, *args, **kwargs)


def _counting(name):
    exact = getattr(Fraction, name)

    def op(self, *args):
        _Counted.ops += 1
        return exact(self, *args)

    return op


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__floordiv__", "__neg__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
    setattr(_Counted, _name, _counting(_name))
_Counted.__hash__ = Fraction.__hash__


@pytest.mark.parametrize("n,d,k", [(3, 3, 2), (4, 3, 3)])
def test_certificate_check_does_no_fraction_arithmetic(n, d, k, monkeypatch):
    # The check works on ints over one denominator per plan: whatever the
    # game's size, it builds one Fraction per side and compares them once,
    # and does no arithmetic on the plans' entries.
    from treasurehunt import seqform

    game, x, y = _lp_plans(GameConfig(n, d, k))
    x, y = [_Counted(p) for p in x], [_Counted(p) for p in y]
    monkeypatch.setattr(seqform, "Fraction", _Counted)
    _Counted.ops = 0
    lower, upper = _certify_plans(game, x, y)
    assert _Counted.ops <= 4
    assert lower == upper == sequence_form_value(GameConfig(n, d, k)).value


def test_orbit_weight_mismatch_raises_internal_error(monkeypatch):
    # A typed self-check, not an assert, so it also runs under python -O.
    from treasurehunt import seqform

    exact = seqform.stabilizer_size
    monkeypatch.setattr(seqform, "stabilizer_size", lambda starts: exact(starts) + 1)
    with pytest.raises(InternalError, match="orbit weight mismatch"):
        sequence_form_value(GameConfig(3, 2, 2))


def test_lifted_plan_is_a_proper_strategy():
    cfg = GameConfig(3, 2, 2)
    report = sequence_form_value(cfg)
    strat = report.certificate.searcher_strategy
    assert hider_best_response_value(cfg, strat).value == report.value
    frontier = [()]
    while frontier:
        h = frontier.pop()
        dist = strat.guess_distribution(h)
        assert sum(p for _, p in dist) == 1
        assert all(1 <= len(g) <= cfg.k and p >= 0 for g, p in dist)
        if len(h) + 1 < cfg.d:
            for g, p in dist:
                if p > 0:
                    for door in g:
                        frontier.append(h + ((g, door),))


def test_sandwich_bounds_small_grid():
    for n in range(2, 5):
        for d in range(1, 4):
            for k in range(1, min(2, n) + 1):
                for occupancy in ("multi", "single"):
                    if occupancy == "single" and d > n:
                        continue
                    cfg = GameConfig(n, d, k, occupancy=occupancy)
                    value = sequence_form_value(cfg).value
                    assert 0 <= value <= min(counting_upper_bound(cfg), F(1))
                    if occupancy == "multi":
                        assert value <= F(k, n)


def test_hider_mixture_is_a_distribution():
    report = sequence_form_value(GameConfig(3, 3, 2))
    mixture = report.certificate.hider_mixture
    assert sum(p for _, p in mixture) == 1
    assert all(p > 0 for _, p in mixture)


def test_budget_errors():
    cfg = GameConfig(4, 3, 2)
    with pytest.raises(BudgetExceededError):
        sequence_form_value(cfg, node_budget=5)
    with pytest.raises(BudgetExceededError):
        sequence_form_value(cfg, column_budget=10)


def test_quotient_weights_cover_all_positions():
    # The builder asserts internally that every canonical position carries
    # weight n!/|stabilizer|; building a few games exercises the check.
    for cfg in (GameConfig(3, 3, 2), GameConfig(4, 2, 2), GameConfig(4, 2, 2, occupancy="single")):
        game = build_quotient_game(cfg, node_budget=10**6, column_budget=10**5)
        assert game.states > 0
        assert game.payoff


@pytest.mark.parametrize("d,k", [(3, 2), (3, 3)])
def test_quotient_does_not_grow_with_n(d, k):
    # From n = dk to dk + 4 the quotient has the same positions, sequences
    # and infosets at every n; only the orbit sizes change.
    shapes = []
    for n in range(d * k, d * k + 5):
        cfg = GameConfig(n, d, k, reveal="adversarial")
        game = build_quotient_game(cfg, node_budget=10**6, column_budget=10**5)
        shapes.append((
            game.states, game.s_count, game.h_count,
            [(info.hist, info.parent_seq, [key for key, _, _ in info.actions]) for info in game.s_infosets],
            [(info.parent_seq, len(info.actions)) for info in game.h_infosets],
            sorted(game.payoff),
        ))
    assert len(shapes) == 5 and all(shape == shapes[0] for shape in shapes)


def test_build_relabels_only_its_roots(monkeypatch):
    # Every other position and history steps its cell starts from its
    # parent's, so the build calls relabeling once per allocation shape.
    from treasurehunt import seqform

    calls = []
    exact = seqform.relabeling
    monkeypatch.setattr(seqform, "relabeling", lambda *args: calls.append(args) or exact(*args))
    game = build_quotient_game(GameConfig(4, 3, 3), node_budget=10**6, column_budget=10**5)
    roots = [shape + (0,) * (4 - len(shape)) for shape, _, _ in game.h_infosets[0].actions]
    assert [counts for counts, _ in calls] == roots and len(roots) == 3
    assert game.states == 170


def _digest_games():
    """The 86 quotients that the digests below pin, in a fixed order."""
    for occupancy in ("multi", "single"):
        for n in range(1, 7):
            for d in range(1, 4):
                if occupancy == "single" and d > n:
                    continue
                for k in range(1, min(3, n) + 1):
                    yield build_quotient_game(
                        GameConfig(n, d, k, occupancy=occupancy), node_budget=10**6, column_budget=10**5
                    )


def _as_fractions(lp):
    """_searcher_lp's output with each coefficient, checked to be an int, as a Fraction."""
    num_vars, objective, constraints, free = lp

    def exact(v):
        assert type(v) is int
        return Fraction(v)

    rows = [({j: exact(a) for j, a in row.items()}, rel, exact(b)) for row, rel, b in constraints]
    return num_vars, {j: exact(v) for j, v in objective.items()}, rows, free


# sha256 of every quotient (infosets, actions, sequence numbers and payoff
# entries, in order) and its _searcher_lp rows, over the games below.
QUOTIENT_DIGEST = "cad5b7e804190f192944229f9ddda53d36192d59df341246d85682f8fe10edbe"


def test_quotient_digest_is_pinned():
    # Any change to the build or the LP assembly that moves one sequence
    # number, orbit size or coefficient on these 86 games changes the digest.
    # The LP is assembled in ints and hashed as Fractions of the same values.
    digest = hashlib.sha256()
    games = 0
    for game in _digest_games():
        for info in game.s_infosets:
            digest.update(repr((info.uid, info.hist, info.parent_seq, info.actions)).encode())
        for info in game.h_infosets:
            digest.update(repr((info.uid, info.parent_seq, info.actions)).encode())
        digest.update(repr((game.s_count, game.h_count, game.states, list(game.payoff.items()))).encode())
        digest.update(repr(_as_fractions(_searcher_lp(game))).encode())
        games += 1
    assert games == 86
    assert digest.hexdigest() == QUOTIENT_DIGEST


# sha256 of solve_lp's (status, objective, x, duals, pivots) on the searcher
# LP of each game that QUOTIENT_DIGEST pins.
RESULTS_DIGEST = "c559237ec5576eedb26f8dc8b379ecdc5156d579e8bb963fe2c885d8a3573444"


def test_searcher_lp_results_are_pinned():
    # Bland's rule fixes the pivot path, so any faithful exact simplex
    # returns the same basis, point, duals and pivot count on these LPs.
    digest = hashlib.sha256()
    games = 0
    for game in _digest_games():
        num_vars, objective, constraints, free = _searcher_lp(game)
        r = solve_lp(num_vars, objective, constraints, maximize=True, free_vars=free)
        digest.update(repr((r.status, r.objective, r.x, r.duals, r.pivots)).encode())
        games += 1
    assert games == 86
    assert digest.hexdigest() == RESULTS_DIGEST


def test_certificate_json_round_trip():
    import json

    report = sequence_form_value(GameConfig(3, 2, 2))
    doc = report.certificate.to_json()
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["stats"]["searcher_sequences"] == report.certificate.stats["searcher_sequences"]
    for entry in parsed["realization_plan"]:
        assert set(entry) == {"history", "guess", "probability"}
        assert set(entry["probability"]) == {"num", "den"}


def _draw_position(data, n):
    """Treasure counts and events of a position reached by play."""
    counts = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    remaining = list(counts)
    events = []
    for _ in range(data.draw(st.integers(0, 2))):
        live = [door for door in range(n) if remaining[door] > 0]
        if not live:
            break
        revealed = data.draw(st.sampled_from(live))
        doors = data.draw(st.sets(st.integers(0, n - 1), max_size=n)) | {revealed}
        events.append((tuple(sorted(doors)), revealed))
        remaining[revealed] -= 1
    return counts, tuple(events), remaining


def _draw_reveal_point(data, counts, events, remaining):
    """A guess with two or more live doors at the position, the build's key
    and labels for it, and its pending form with that form's cell starts."""
    n = len(counts)
    live = [door for door in range(n) if remaining[door] > 0]
    assume(len(live) >= 2)
    options = sorted(data.draw(st.sets(st.sampled_from(live), min_size=2)))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    guess = tuple(sorted(set(options) | {door for door in extra if remaining[door] == 0}))
    position, _, starts = relabeling(counts, events)
    key, labels = _reveal_point(position, starts, guess, options)
    pending, _, starts_p = relabeling(counts, events + ((guess, -1),))
    return key, dict(zip(options, labels)), pending, starts_p


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reveal_points_are_keyed_by_pending_forms(data):
    # The build keys the hider's reveal decision and labels its options from
    # the position's one relabeling, never from the pending form itself.
    # Two guesses, at a relabeled copy of one position (the identity
    # included) or at two positions, meet at one reveal point exactly when
    # their pending forms agree, and two options share a label exactly when
    # the pending form puts them in one cell.
    n = data.draw(st.integers(2, 5))
    counts, events, remaining = _draw_position(data, n)
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        other = apply_counts(counts, perm), apply_events(events, perm), apply_counts(remaining, perm)
    else:
        other = _draw_position(data, n)
    key_a, labels_a, pending_a, starts_a = _draw_reveal_point(data, counts, events, remaining)
    key_b, labels_b, pending_b, starts_b = _draw_reveal_point(data, *other)
    assert (key_a == key_b) == (pending_a == pending_b)
    for labels, starts_p in ((labels_a, starts_a), (labels_b, starts_b)):
        for a in labels:
            for b in labels:
                assert (labels[a] == labels[b]) == (starts_p[a] == starts_p[b])
