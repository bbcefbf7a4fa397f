import os
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from oracle_utils import (
    TabularSearcher,
    WithoutDoorSymmetry,
    WithoutStayRule,
    all_guesses,
    apply_counts,
    canonical_key_evaluate,
    full_enumeration_best_response,
    posterior_best_response,
    reference_win_set,
)
from treasurehunt.combinatorics import enumerate_allocations, shape_representatives
from treasurehunt.errors import (
    AdversarialRevealError,
    BudgetExceededError,
    DoorBudgetError,
    ExceedsUnitError,
    MissingDiagramError,
)
from treasurehunt.game import (
    CHANCE_REVEALS,
    LOWEST_INDEX,
    GameConfig,
)
from treasurehunt.montecarlo import compare_to_exact, run_mc
from treasurehunt.solver import (
    all_in_one_bound,
    closed_form_value,
    deterministic_win_set,
    evaluate_exact,
    evaluate_under_reveal,
    hider_best_response_value,
    counting_upper_bound,
    per_allocation_values,
    searcher_best_response_value,
    sequence_form_value,
)
from treasurehunt.staytables import StayTable, decision_diagrams
from treasurehunt.strategies import (
    HiderStrategy,
    SearcherStrategy,
    all_in_one_hider,
    fresh_doors_searcher,
    mimic_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

F = Fraction


def test_evaluator_rejects_a_searcher_built_for_another_game():
    # A (9,3,2) searcher never opens door 9, so scoring it on ten doors
    # used to return a wrong value instead of an error.
    cfg = GameConfig(10, 3, 2)
    searcher = scaled_searcher(GameConfig(9, 3, 2))
    allocation = (1, 1, 1) + (0,) * 7
    with pytest.raises(ValueError, match="searcher 'ptable-scaled' was built for"):
        evaluate_exact(cfg, searcher, allocation)
    with pytest.raises(ValueError, match="searcher"):
        evaluate_under_reveal(cfg, searcher, allocation, "uniform-doors")
    with pytest.raises(ValueError, match="searcher"):
        hider_best_response_value(cfg, searcher)
    single = GameConfig(6, 3, 2, occupancy="single")
    with pytest.raises(ValueError, match="searcher"):
        evaluate_exact(single, fresh_doors_searcher(GameConfig(6, 3, 2)), (1, 1, 1, 0, 0, 0))
    # The reveal rule a strategy was built under does not matter.
    chance = scaled_searcher(GameConfig(9, 3, 2, reveal="uniform-doors"))
    assert evaluate_exact(GameConfig(9, 3, 2), chance, (3,) + (0,) * 8) == F(8, 165)


def test_searcher_best_response_rejects_a_hider_built_for_another_game():
    cfg = GameConfig(5, 3, 2, reveal="uniform-treasures")
    with pytest.raises(ValueError, match="hider 'uniform' was built for"):
        searcher_best_response_value(cfg, uniform_hider(GameConfig(6, 3, 2)))
    single = GameConfig(5, 3, 2, occupancy="single", reveal="uniform-doors")
    with pytest.raises(ValueError, match="hider"):
        searcher_best_response_value(single, uniform_hider(GameConfig(5, 3, 2, reveal="uniform-doors")))
    assert searcher_best_response_value(cfg, uniform_hider(GameConfig(5, 3, 2))).value > 0


def test_evaluator_relabels_once_per_call(monkeypatch):
    # The root's relabeling gives its memo key and cell starts together; a
    # memo miss steps its starts from its parent's, and a hit computes nothing.
    from treasurehunt import solver

    calls = []
    exact = solver.relabeling
    monkeypatch.setattr(solver, "relabeling", lambda *args: calls.append(args) or exact(*args))
    cfg = GameConfig(9, 3, 2)
    searcher = scaled_searcher(cfg)
    report = hider_best_response_value(cfg, searcher)
    assert len(calls) == len(report.certificate["checked"]) == 3
    memo: dict = {}
    for allocation in [(1, 1, 1) + (0,) * 6, (0, 1, 1, 1) + (0,) * 5, (2, 1) + (0,) * 7]:
        calls.clear()
        evaluate_exact(cfg, searcher, allocation, _memo=memo)
        evaluate_under_reveal(cfg, searcher, allocation, "uniform-treasures", _memo=memo)
        evaluate_under_reveal(cfg, searcher, allocation, LOWEST_INDEX, _memo=memo)
        assert [counts for counts, _ in calls] == [allocation] * 3


def test_evaluate_fresh_doors_single():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    searcher = fresh_doors_searcher(cfg)
    # Hand count: 4 of the 6 opening pairs split the two treasures.
    assert evaluate_exact(cfg, searcher, (1, 1, 0, 0)) == F(2, 3)
    for allocation in enumerate_allocations(4, 2, "single"):
        assert evaluate_exact(cfg, searcher, allocation) == F(2, 3)


def test_evaluate_rejects_a_shared_door_in_the_single_game():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    with pytest.raises(ValueError, match=r"allocation \(2, 0, 0, 0\) invalid for"):
        evaluate_exact(cfg, fresh_doors_searcher(cfg), (2, 0, 0, 0))


def test_evaluate_stay_table_small():
    cfg = GameConfig(3, 2, 2)
    strat = stay_table_searcher(cfg, StayTable(3, 2, 2, {(1,): F(1)}))
    assert evaluate_exact(cfg, strat, (2, 0, 0)) == F(2, 3)


def test_evaluate_d1_hits_first_guess():
    cfg = GameConfig(5, 1, 2)
    searcher = fresh_doors_searcher(cfg)
    # Probability the opening pair covers door 0.
    assert evaluate_exact(cfg, searcher, (1, 0, 0, 0, 0)) == F(2, 5)


def test_evaluate_node_budget():
    cfg = GameConfig(9, 3, 2)
    with pytest.raises(BudgetExceededError):
        evaluate_exact(cfg, scaled_searcher(cfg), (1, 1, 1, 0, 0, 0, 0, 0, 0), node_budget=3)


def test_evaluate_door_relabeling_invariance():
    # An intentionally lopsided strategy: the value must still be invariant
    # when both the strategy and the allocation are relabeled together.
    cfg = GameConfig(3, 2, 2)
    perm = (2, 0, 1)

    def relabel_hist(h, p):
        return tuple((frozenset(p[x] for x in g), p[o]) for g, o in h)

    base_rules = {
        (): ((frozenset({0}), F(1, 3)), (frozenset({1, 2}), F(2, 3))),
        ((frozenset({0}), 0),): ((frozenset({0, 1}), F(1)),),
        ((frozenset({1, 2}), 1),): ((frozenset({0, 1}), F(1)),),
        ((frozenset({1, 2}), 2),): ((frozenset({2}), F(1)),),
    }
    mapped_rules = {
        relabel_hist(h, perm): tuple((frozenset(perm[x] for x in g), p) for g, p in dist)
        for h, dist in base_rules.items()
    }
    base = TabularSearcher(cfg, base_rules)
    mapped = TabularSearcher(cfg, mapped_rules)
    for allocation in enumerate_allocations(3, 2, "multi"):
        relabeled = [0, 0, 0]
        for i, c in enumerate(allocation):
            relabeled[perm[i]] = c
        assert evaluate_exact(cfg, base, allocation) == evaluate_exact(
            cfg, mapped, tuple(relabeled)
        )


class _CountingSearcher(SearcherStrategy):
    """Counts guess_distribution calls: each is one node the evaluator expands."""

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.door_symmetric = inner.door_symmetric
        self.calls = 0

    def guess_distribution(self, history):
        self.calls += 1
        return self.inner.guess_distribution(history)


@pytest.mark.parametrize(
    "cfg, make, nodes",
    [
        (GameConfig(9, 3, 2), scaled_searcher, 20),
        (GameConfig(6, 3, 2, occupancy="single"), fresh_doors_searcher, 6),
    ],
)
def test_evaluator_memo_is_keyed_by_door_relabeling(cfg, make, nodes):
    searcher = make(cfg)
    plain = replace(searcher, door_symmetric=False)
    shared = _CountingSearcher(searcher)
    memo: dict = {}
    rng = random.Random(7)
    for allocation in enumerate_allocations(cfg.n, cfg.d, cfg.occupancy):
        value = evaluate_exact(cfg, searcher, allocation)
        assert evaluate_exact(cfg, plain, allocation) == value
        relabeled = apply_counts(allocation, rng.sample(range(cfg.n), cfg.n))
        assert evaluate_exact(cfg, shared, allocation, _memo=memo) == value
        expanded = shared.calls
        assert evaluate_exact(cfg, shared, relabeled, _memo=memo) == value
        assert shared.calls == expanded
    # One memo entry per door-relabeling orbit of the positions reached.
    assert shared.calls == nodes


def test_hider_best_response_scaled():
    cfg = GameConfig(9, 3, 2)
    report = hider_best_response_value(cfg, scaled_searcher(cfg))
    assert report.value == F(8, 165)
    assert report.tight is True
    cfg_s = GameConfig(6, 3, 2, occupancy="single")
    report_s = hider_best_response_value(cfg_s, fresh_doors_searcher(cfg_s))
    assert report_s.value == F(2, 5)
    assert report_s.tight is True


def test_hider_best_response_custom_table():
    cfg = GameConfig(5, 3, 2)
    table = StayTable(5, 3, 2, {(1,): F(1), (2,): F(4, 7), (1, 1): F(6, 7)})
    report = hider_best_response_value(cfg, stay_table_searcher(cfg, table))
    assert report.value == F(8, 35)
    assert report.tight is True


def _assert_shape_path_matches_full(cfg, searcher):
    assert searcher.door_symmetric
    shape = hider_best_response_value(cfg, searcher)
    full = hider_best_response_value(cfg, WithoutDoorSymmetry(searcher))
    args = (cfg.n, cfg.d, cfg.occupancy)
    assert [a for a, _ in shape.certificate["checked"]] == shape_representatives(*args)
    assert [a for a, _ in full.certificate["checked"]] == enumerate_allocations(*args)
    assert shape.value == full.value
    assert shape.tight == full.tight
    assert shape.certificate["worst_allocation"] == full.certificate["worst_allocation"]
    assert per_allocation_values(shape) == per_allocation_values(full)
    assert per_allocation_values(full) == list(full.certificate["checked"])


def _small_grid():
    """Every game with n <= 6, d <= 3 and k <= min(n, 3), both variants."""
    for occupancy in ("multi", "single"):
        for n in range(1, 7):
            for d in range(1, 4):
                for k in range(1, min(n, 3) + 1):
                    if occupancy == "multi" or d <= n:
                        yield GameConfig(n, d, k, occupancy=occupancy)


def test_shape_path_matches_full_enumeration_for_table_and_fresh_searchers():
    covered = 0
    for cfg in _small_grid():
        makers = [fresh_doors_searcher] + ([scaled_searcher] if cfg.occupancy == "multi" else [])
        for make in makers:
            try:
                searcher = make(cfg)
            except (DoorBudgetError, ExceedsUnitError):
                continue  # this searcher does not exist at this size
            _assert_shape_path_matches_full(cfg, searcher)
            covered += 1
    assert covered == 86


# The exact simplex takes about 0.5 s on each of these games; the slow test
# below spends most of its time comparing their lifted plans with full
# enumeration.
_SLOW_LP_GAMES = {(4, 3, 3, "multi"), (5, 3, 3, "multi"), (6, 3, 3, "multi")}


def _lifted_plan(cfg):
    return sequence_form_value(cfg).certificate.searcher_strategy


def test_shape_path_matches_full_enumeration_for_lifted_lp_plans():
    for cfg in _small_grid():
        if (cfg.n, cfg.d, cfg.k, cfg.occupancy) not in _SLOW_LP_GAMES:
            _assert_shape_path_matches_full(cfg, _lifted_plan(cfg))


@pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"),
    reason="about 9 s, 1.5 s of it exact simplex; set TREASUREHUNT_SLOW=1 to run",
)
def test_shape_path_matches_full_enumeration_for_slow_lifted_lp_plans():
    for n, d, k, occupancy in sorted(_SLOW_LP_GAMES):
        cfg = GameConfig(n, d, k, occupancy=occupancy)
        _assert_shape_path_matches_full(cfg, _lifted_plan(cfg))


def test_searcher_without_door_symmetry_is_scored_on_every_allocation():
    # Digging door 0 twice wins only when both treasures sit there, so the
    # relabelings of one allocation differ in value.
    cfg = GameConfig(3, 2, 1)
    dig = ((frozenset({0}), F(1)),)
    searcher = TabularSearcher(cfg, {(): dig, ((frozenset({0}), 0),): dig})
    report = hider_best_response_value(cfg, searcher)
    assert report.certificate["checked"] == tuple(
        (a, F(int(a == (2, 0, 0)))) for a in enumerate_allocations(3, 2, "multi")
    )
    assert report.value == 0
    assert report.certificate["worst_allocation"] == (0, 0, 2)
    assert per_allocation_values(report) == list(report.certificate["checked"])


def test_worst_allocation_is_the_lexicographically_first_argmin():
    # A table that does not equalize: its minimum sits on one shape only.
    cfg = GameConfig(8, 3, 2)
    lazy = StayTable(8, 3, 2, {(1,): F(1, 2), (2,): F(1, 2), (1, 1): F(1, 2)})
    report = hider_best_response_value(cfg, stay_table_searcher(cfg, lazy))
    assert report.value == F(3, 56)
    assert report.tight is False
    assert report.certificate["worst_allocation"] == (0, 0, 0, 0, 0, 0, 1, 2)
    assert dict(report.certificate["checked"]) == {
        (0, 0, 0, 0, 0, 0, 0, 3): F(1, 16),
        (0, 0, 0, 0, 0, 0, 1, 2): F(3, 56),
        (0, 0, 0, 0, 0, 1, 1, 1): F(9, 112),
    }


@pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"),
    reason="about 7 s of full enumeration; set TREASUREHUNT_SLOW=1 to run",
)
@pytest.mark.parametrize("n, d, k", [(29, 5, 2), (30, 4, 3)])
def test_shape_path_matches_full_enumeration_at_benchmark_sizes(n, d, k):
    # WithoutDoorSymmetry keys the memo by raw history and cannot finish
    # here (one (29,5,2) allocation passes 3*10^5 nodes), so the reference
    # scores every allocation with the door-symmetric memo instead.
    cfg = GameConfig(n, d, k)
    searcher = scaled_searcher(cfg)
    report = hider_best_response_value(cfg, searcher)
    value, worst, rows = full_enumeration_best_response(cfg, searcher)
    assert report.value == value == counting_upper_bound(cfg)
    assert report.tight is True
    assert report.certificate["worst_allocation"] == worst
    assert per_allocation_values(report) == rows


def test_searcher_best_response_values():
    cfg = GameConfig(5, 3, 2)
    assert searcher_best_response_value(cfg, all_in_one_hider(cfg)).value == F(2, 5)
    cfg2 = GameConfig(2, 2, 1)
    assert searcher_best_response_value(cfg2, uniform_hider(cfg2)).value == F(1, 3)
    cfg3 = GameConfig(4, 1, 2)
    assert searcher_best_response_value(cfg3, uniform_hider(cfg3)).value == F(1, 2)


def test_searcher_best_response_rejects_live_adversarial():
    cfg = GameConfig(3, 2, 2, reveal="adversarial")
    with pytest.raises(AdversarialRevealError):
        searcher_best_response_value(cfg, uniform_hider(cfg))
    # Forced reveals are fine even under the adversarial label.
    cfg_one = GameConfig(5, 3, 2, reveal="adversarial")
    assert searcher_best_response_value(cfg_one, all_in_one_hider(cfg_one)).value == F(2, 5)


def _oracle_grid_hiders(cfg):
    """The uniform hider, a seeded rational hider on a random half of the
    allocations, one allocation held with the int probability 1, a seeded
    door-symmetric hider whose mass is set by shape, the all-in-one hider
    (multi only), and the uniform hider minus its first allocation."""
    allocations = enumerate_allocations(cfg.n, cfg.d, cfg.occupancy)
    rng = random.Random(repr(cfg))
    support = rng.sample(allocations, (len(allocations) + 1) // 2)
    weights = [rng.randint(1, 9) for _ in support]
    skewed = tuple((a, F(w, sum(weights))) for a, w in zip(support, weights))
    one = HiderStrategy(cfg, ((rng.choice(allocations), 1),))
    mass = {rep: rng.randint(1, 9) for rep in shape_representatives(cfg.n, cfg.d, cfg.occupancy)}
    weights = [mass[tuple(sorted(a))] for a in allocations]
    by_shape = HiderStrategy(cfg, tuple((a, F(w, sum(weights))) for a, w in zip(allocations, weights)))
    assert by_shape.door_symmetric
    hiders = [uniform_hider(cfg), HiderStrategy(cfg, skewed), one, by_shape]
    if cfg.occupancy == "multi":
        hiders.append(all_in_one_hider(cfg))
    if len(allocations) > 1:
        rest = allocations[1:]
        hiders.append(HiderStrategy(cfg, tuple((a, F(1, len(rest))) for a in rest)))
    return hiders


def test_searcher_best_response_matches_the_posterior_oracle():
    # The oracle expands every observable history with Fraction posteriors
    # and no memo; the solver's integer weights must give the same values.
    games = 0
    for n in range(1, 7):
        for d in range(1, 4):
            for k in range(1, min(3, n) + 1):
                if d == 3 and (n > 4 or n == 4 and k == 3) or d == 2 and n == 6 and k == 3:
                    continue  # too slow for the memo-free oracle; (4,3,3) is pinned below
                for occupancy in ("multi", "single"):
                    if occupancy == "single" and d > n:
                        continue
                    for rule in CHANCE_REVEALS:
                        cfg = GameConfig(n, d, k, occupancy=occupancy, reveal=rule)
                        for hider in _oracle_grid_hiders(cfg):
                            games += 1
                            value = searcher_best_response_value(cfg, hider).value
                            assert value == posterior_best_response(cfg, hider), (cfg, hider.distribution)
    assert games > 300


def test_searcher_best_response_caps_at_4_3_3():
    caps = {"uniform-doors": F(61, 80), "uniform-treasures": F(31, 40)}
    for rule, cap in caps.items():
        cfg = GameConfig(4, 3, 3, reveal=rule)
        assert searcher_best_response_value(cfg, uniform_hider(cfg)).value == cap
        assert posterior_best_response(cfg, uniform_hider(cfg)) == cap


def test_searcher_best_response_node_count_is_pinned(monkeypatch):
    # 26 posteriors expanded at (5,3,2) against the door-symmetric uniform
    # hider, one guess per class of untouched doors.
    cfg = GameConfig(5, 3, 2, reveal="uniform-treasures")
    hider = uniform_hider(cfg)
    assert searcher_best_response_value(cfg, hider, node_budget=26).value == F(8, 35)
    with pytest.raises(BudgetExceededError, match="25 nodes"):
        searcher_best_response_value(cfg, hider, node_budget=25)
    # 163 on the full loop: the memo merges exactly the posteriors that the
    # Fraction-weight solver merged.
    monkeypatch.setattr(HiderStrategy, "door_symmetric", False)
    assert searcher_best_response_value(cfg, hider, node_budget=163).value == F(8, 35)
    with pytest.raises(BudgetExceededError, match="162 nodes"):
        searcher_best_response_value(cfg, hider, node_budget=162)


def test_lowest_index_best_response_node_count_is_pinned():
    # lowest-index reads door labels, so the rule alone starts the uniform
    # hider's best response with every door touched: the full loop.
    cfg = GameConfig(5, 3, 2, reveal=LOWEST_INDEX)
    hider = uniform_hider(cfg)
    report = searcher_best_response_value(cfg, hider, node_budget=17)
    assert (report.value, report.notes) == (F(8, 35), ())
    with pytest.raises(BudgetExceededError, match="16 nodes"):
        searcher_best_response_value(cfg, hider, node_budget=16)


@pytest.mark.parametrize(
    "cfg, value",
    [
        (GameConfig(7, 3, 3, reveal="uniform-treasures"), F(9, 28)),
        (GameConfig(6, 4, 2, reveal="uniform-doors"), F(8, 63)),
    ],
)
def test_door_symmetric_best_response_matches_the_full_loop(monkeypatch, cfg, value):
    # Sizes beyond the memo-free oracle: one guess per class of untouched
    # doors against every guess.
    hider = uniform_hider(cfg)
    assert searcher_best_response_value(cfg, hider).value == value
    monkeypatch.setattr(HiderStrategy, "door_symmetric", False)
    assert searcher_best_response_value(cfg, hider).value == value


def test_door_symmetric_best_response_raises_like_the_full_loop(monkeypatch):
    cfg = GameConfig(4, 2, 2, reveal="adversarial")
    hider = uniform_hider(cfg)
    with pytest.raises(AdversarialRevealError) as symmetric:
        searcher_best_response_value(cfg, hider)
    monkeypatch.setattr(HiderStrategy, "door_symmetric", False)
    with pytest.raises(AdversarialRevealError) as full:
        searcher_best_response_value(cfg, hider)
    assert str(symmetric.value) == str(full.value)


def test_best_response_notes_name_the_door_symmetric_path():
    cfg = GameConfig(5, 3, 2, reveal="uniform-treasures")
    allocations = enumerate_allocations(cfg.n, cfg.d, cfg.occupancy)
    skewed = HiderStrategy(cfg, ((allocations[0], F(1, 2)), (allocations[1], F(1, 2))))

    def noted(config, hider):
        return any("door-symmetric" in note for note in searcher_best_response_value(config, hider).notes)

    assert noted(cfg, uniform_hider(cfg))
    assert not noted(cfg, skewed)
    lowest = replace(cfg, reveal=LOWEST_INDEX)
    assert not noted(lowest, uniform_hider(lowest))


def test_deterministic_win_sets():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    fresh = {(): frozenset({0, 1})}

    def fresh_strategy(history):
        return fresh[()] if not history else frozenset({2, 3})

    ws = deterministic_win_set(cfg, fresh_strategy)
    assert ws == {
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
    }
    assert len(ws) == 4 == cfg.k ** cfg.d

    def stay_strategy(history):
        if not history:
            return frozenset({0, 1})
        revealed = history[0][1]
        return frozenset({revealed, 2})

    ws2 = deterministic_win_set(cfg, stay_strategy)
    assert len(ws2) <= 4

    tiny = GameConfig(3, 1, 1)
    ws3 = deterministic_win_set(tiny, lambda h: frozenset({0}))
    assert ws3 == {(1, 0, 0)}


def test_deterministic_win_set_rejects_illegal_guesses():
    cfg = GameConfig(4, 2, 2)
    for guess in (frozenset(), frozenset({0, 1, 2}), frozenset({4})):
        with pytest.raises(ValueError, match="illegal guess"):
            deterministic_win_set(cfg, lambda history, guess=guess: guess)


def test_random_win_sets_respect_counting_bound():
    rng = random.Random(20260808)
    configs = (
        GameConfig(4, 2, 2, occupancy="single"),
        GameConfig(3, 3, 2),
        GameConfig(3, 2, 2),
    )
    for cfg in configs:
        guesses = all_guesses(cfg)
        for _ in range(1000):
            chosen: dict = {}

            def strategy(history, chosen=chosen, guesses=guesses, rng=rng):
                if history not in chosen:
                    chosen[history] = rng.choice(guesses)
                return chosen[history]

            assert len(deterministic_win_set(cfg, strategy)) <= cfg.k ** cfg.d


def test_win_set_of_backtracking_strategy():
    # Re-guessing an already revealed door can only shrink the win set.
    cfg = GameConfig(4, 2, 2, occupancy="single")

    def strategy(history):
        if not history:
            return frozenset({0, 1})
        revealed = history[0][1]
        return frozenset({1, 2}) if revealed == 0 else frozenset({0, 2})

    assert len(deterministic_win_set(cfg, strategy)) <= 4


def _random_rule(config, seed):
    """A deterministic rule drawn at random: the guess at each history is a
    function of (seed, history) alone, so every walk sees the same rule."""
    guesses = [frozenset(g) for g in all_guesses(config)]
    return lambda history: random.Random(repr((seed, history))).choice(guesses)


def test_deterministic_win_set_matches_the_rules_engine():
    sizes = [
        GameConfig(n, d, k, occupancy=occupancy)
        for n in range(2, 6) for d in range(1, 4) for k in range(1, min(n, 2) + 1)
        for occupancy in ("multi", "single") if occupancy == "multi" or d <= n
    ]
    won = 0
    for cfg in sizes:
        for seed in range(8):
            rule = _random_rule(cfg, seed)
            expected = reference_win_set(cfg, rule)
            assert deterministic_win_set(cfg, rule) == expected
            assert len(expected) <= cfg.k ** cfg.d
            won += len(expected)
    assert won > 100  # the random rules win something to compare


class _FixedOrbits(SearcherStrategy):
    """A door-symmetric rule that plays the same guess orbits at every history."""

    door_symmetric = True

    def __init__(self, config, orbits):
        self.config = config
        self.guess_orbits = lambda history: list(orbits)


_ILLEGAL_CFG = GameConfig(4, 2, 1)
_DOORS = tuple(range(4))
_ILLEGAL_DISTRIBUTIONS = {
    "k-plus-1-doors": [(frozenset({0, 1}), F(1))],
    "door-n": [(frozenset({4}), F(1))],
    "door-minus-1": [(frozenset({-1}), F(1))],
    "empty-guess": [(frozenset(), F(1))],
    "sum-2": [(frozenset({0}), F(1)), (frozenset({1}), F(1))],
    "sum-half": [(frozenset({0}), F(1, 2))],
}
_ILLEGAL_ORBITS = {
    "k-plus-1-doors": [(((_DOORS, 2),), F(1, 6))],
    "door-n": [((((4,), 1),), F(1))],
    "door-minus-1": [((((-1,), 1),), F(1))],
    "empty-guess": [((), F(1))],
    "sum-2": [(((_DOORS, 1),), F(1, 2))],
    "sum-half": [(((_DOORS, 1),), F(1, 8))],
}
# Each rule is illegal at the root, so a rule for the root alone suffices.
_ILLEGAL_RULES = [
    pytest.param(TabularSearcher(_ILLEGAL_CFG, {(): tuple(rule)}), name, id=f"distribution-{name}")
    for name, rule in _ILLEGAL_DISTRIBUTIONS.items()
] + [
    pytest.param(_FixedOrbits(_ILLEGAL_CFG, rule), name, id=f"orbits-{name}")
    for name, rule in _ILLEGAL_ORBITS.items()
]
_EVALUATORS = [
    pytest.param(lambda s: evaluate_exact(_ILLEGAL_CFG, s, (1, 1, 0, 0)), id="evaluate_exact"),
    *(
        pytest.param(
            lambda s, rule=rule: evaluate_under_reveal(_ILLEGAL_CFG, s, (1, 1, 0, 0), rule),
            id=f"evaluate_under_reveal-{rule}",
        )
        for rule in CHANCE_REVEALS
    ),
    pytest.param(lambda s: hider_best_response_value(_ILLEGAL_CFG, s), id="hider_best_response_value"),
]


@pytest.mark.parametrize("evaluate", _EVALUATORS)
@pytest.mark.parametrize("searcher, case", _ILLEGAL_RULES)
def test_evaluators_reject_an_illegal_rule(evaluate, searcher, case):
    # Scored unchecked, the all-doors rule at k = 1 would win everything, an
    # out-of-range or empty guess would lose silently, and sum-2 would score 2.
    message = "probabilities sum to" if case.startswith("sum") else "illegal guess"
    with pytest.raises(ValueError, match=message):
        evaluate(searcher)


@pytest.mark.parametrize("searcher, case", _ILLEGAL_RULES)
def test_simulation_rejects_an_illegal_rule(searcher, case):
    # The cursor checks each history's guess table as run_mc's loop does.
    message = "probabilities sum to" if case.startswith("sum") else "illegal guess"
    with pytest.raises(ValueError, match=message):
        searcher.sampler(random.Random(0)).next_guess()
    with pytest.raises(ValueError, match=message):
        run_mc(_ILLEGAL_CFG, searcher, uniform_hider(_ILLEGAL_CFG), 100, 0)


def test_closed_form_reports():
    single = closed_form_value(GameConfig(4, 2, 2, occupancy="single"))
    assert single.value == F(2, 3) and single.tight is True

    multi = closed_form_value(GameConfig(6, 3, 2))
    assert multi.value == F(1, 7)
    assert multi.tight is False  # scaling fails here, custom tables certify it
    assert any("not-certified" in note for note in multi.notes)

    capped = closed_form_value(GameConfig(3, 3, 2))
    assert capped.details["formula"] == F(4, 5)
    assert capped.details["all_in_one_cap"] == F(2, 3)
    assert capped.value == F(2, 3)
    assert any("formula-not-tight" in note for note in capped.notes)

    certified = closed_form_value(GameConfig(9, 3, 2))
    assert certified.value == F(8, 165) and certified.tight is True

    # Fresh-door play runs out of doors below n = dk, so the formula is only a bound.
    short = closed_form_value(GameConfig(5, 3, 2, occupancy="single"))
    assert (short.value, short.tight) == (F(4, 5), False)
    assert short.notes == ("not-certified: needs n >= d*k, value is an upper bound only",)


def test_bounds_helpers():
    cfg = GameConfig(9, 3, 2)
    assert counting_upper_bound(cfg) == F(8, 165)
    assert all_in_one_bound(cfg) == F(2, 9)


def test_chance_reveal_evaluation_matches_adversarial_for_equalizers():
    # The bundled table strategies never cover two live doors on a winning
    # line, so the reveal rule cannot change their win probability.
    cfg = GameConfig(6, 3, 2)
    table = StayTable(6, 3, 2, {(1,): F(1), (2,): F(3, 7), (1, 1): F(4, 7)})
    strat = stay_table_searcher(cfg, table)
    for allocation in [(3, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (2, 0, 0, 1, 0, 0)]:
        adv = evaluate_exact(cfg, strat, allocation)
        for rule in ("lowest-index", "uniform-doors", "uniform-treasures"):
            assert evaluate_under_reveal(cfg, strat, allocation, rule) == adv


class _StickOnZero(SearcherStrategy):
    """Guess {0, 1}, then {0} alone after a reveal from door 0."""

    name = "stick-on-zero"

    def __init__(self, config):
        self.config = config

    def guess_distribution(self, history):
        if history and history[-1][1] == 0:
            return [(frozenset({0}), F(1))]
        return [(frozenset({0, 1}), F(1))]


def test_reveal_rules_give_different_values():
    # Unlike the equalizers above, this searcher covers two live doors, so
    # each chance rule gives its own value; a swap of two rules' weights
    # fails here.
    rules = {"lowest-index": F(0), "uniform-doors": F(1, 2), "uniform-treasures": F(1, 3)}
    caps = {"lowest-index": F(7, 10), "uniform-doors": F(3, 5), "uniform-treasures": F(19, 30)}
    for rule, exact in rules.items():
        cfg = GameConfig(3, 3, 2, reveal=rule)
        searcher = _StickOnZero(cfg)
        assert evaluate_under_reveal(cfg, searcher, (2, 1, 0), rule) == exact
        hider = HiderStrategy(cfg, (((2, 1, 0), F(1)),))
        report = run_mc(cfg, searcher, hider, 2000, seed=1)
        assert compare_to_exact(report, exact).passed
        for other in rules.values():
            if other != exact:
                assert not compare_to_exact(report, other).passed
        assert searcher_best_response_value(cfg, uniform_hider(cfg)).value == caps[rule]


class _RepeatPair(SearcherStrategy):
    """Guess a uniform pair, then the same pair, then the door revealed in
    round two. The rule is door-symmetric, but under lowest-index reveals
    its value depends on which door of a pair has the lower label."""

    name = "repeat-pair"
    door_symmetric = True

    def __init__(self, config):
        self.config = config

    def guess_distribution(self, history):
        if not history:
            pairs = list(combinations(range(self.config.n), 2))
            return [(frozenset(pair), F(1, len(pairs))) for pair in pairs]
        if len(history) == 1:
            return [(history[0][0], F(1))]
        return [(frozenset({history[1][1]}), F(1))]


def test_lowest_index_value_does_not_follow_a_relabeling():
    # (2,1,0) and (1,2,0) share a canonical form, yet lowest-index reveals
    # door 0 first from {0, 1} in both: the searcher loses every line of
    # (2,1,0) and wins the {0, 1} line of (1,2,0). A memo shared across
    # allocations, as simulate --check-exact keeps, must not carry the 0 over.
    cfg = GameConfig(3, 3, 2)
    searcher = _RepeatPair(cfg)
    memo: dict = {}
    assert evaluate_under_reveal(cfg, searcher, (2, 1, 0), LOWEST_INDEX, _memo=memo) == 0
    assert evaluate_under_reveal(cfg, searcher, (1, 2, 0), LOWEST_INDEX, _memo=memo) == F(1, 3)
    plain = WithoutDoorSymmetry(searcher)
    for allocation in enumerate_allocations(3, 3, "multi"):
        exact = evaluate_under_reveal(cfg, plain, allocation, LOWEST_INDEX)
        assert evaluate_under_reveal(cfg, searcher, allocation, LOWEST_INDEX, _memo=memo) == exact
        assert evaluate_under_reveal(cfg, searcher, allocation, LOWEST_INDEX) == exact
    # The other rules ignore labels, so label-blind keys stay sound there.
    for rule in ("uniform-doors", "uniform-treasures"):
        assert evaluate_under_reveal(cfg, searcher, (2, 1, 0), rule) == evaluate_under_reveal(
            cfg, searcher, (1, 2, 0), rule
        )


def _memo_grid_searchers(cfg):
    """fresh-k where it fits, and in the multi game the scaled table, or
    else a custom table that stays half the time, or else always."""
    searchers = []
    try:
        searchers.append(fresh_doors_searcher(cfg))
    except DoorBudgetError:
        pass
    if cfg.occupancy == "multi":
        try:
            searchers.append(scaled_searcher(cfg))
        except (DoorBudgetError, ExceedsUnitError):
            for p in (F(1, 2), F(1)):
                table = StayTable(cfg.n, cfg.d, cfg.k, {lam: p for lam in decision_diagrams(cfg.n, cfg.d)})
                try:
                    searchers.append(stay_table_searcher(cfg, table))
                    break
                except DoorBudgetError:
                    pass
    return searchers


def _stranded(key) -> bool:
    """Whether a memo key, canonical or raw, leaves a treasure behind a
    guessed door other than the last revealed one: a door a stay-or-move
    searcher never guesses again. A canonical form lists each label's
    treasure count in ``counts``, ascending, as a raw key lists each door's."""
    counts, events = key[1:] if len(key) == 3 else key[1]
    left = list(counts)
    guessed: set[int] = set()
    for doors, o in events:
        guessed.update(doors)
        left[o] -= 1
    last = events[-1][1] if events else None
    return any(left[x] for x in guessed if x != last)


def test_evaluator_memo_matches_canonical_form_keys_on_small_grid():
    # Child keys come from one refinement step of the parent's relabeling,
    # and the bundled door-symmetric searchers are scored by guess orbits;
    # the shared memo must hold exactly the keys and values that keying
    # every position by relabeling(allocation, history)[0], guess by guess,
    # gives, over the adversarial rule and the two door-symmetric chance
    # rules, but for the stranded positions of a stay-or-move searcher:
    # those are lost, score 0 and stay out of the memo. Lowest-index
    # reveals by door label, so there the evaluator scores every option of
    # a guess and label-blind keys are no reference: every value is checked
    # against raw-history keys instead, and so is every raw-key memo entry;
    # a searcher without the flag keeps them all.
    games = 0
    for n in range(1, 8):
        for d in range(1, 4):
            for k in range(1, min(3, n) + 1):
                for occupancy in ("multi", "single"):
                    if occupancy == "single" and d > n:
                        continue
                    cfg = GameConfig(n, d, k, occupancy=occupancy)
                    searchers = _memo_grid_searchers(cfg)
                    if n <= 5:  # raw history keys, for searchers without the flag
                        searchers += [WithoutDoorSymmetry(s) for s in searchers]
                    for searcher in searchers:
                        games += 1
                        plain = WithoutDoorSymmetry(searcher) if searcher.door_symmetric else searcher
                        memo: dict = {}
                        reference: dict = {}
                        raw: dict = {}
                        for allocation in enumerate_allocations(n, d, occupancy):
                            for reveal in ("adversarial",) + CHANCE_REVEALS:
                                if reveal == "adversarial":
                                    v = evaluate_exact(cfg, searcher, allocation, _memo=memo)
                                else:
                                    v = evaluate_under_reveal(cfg, searcher, allocation, reveal, _memo=memo)
                                if reveal == LOWEST_INDEX:
                                    assert v == canonical_key_evaluate(cfg, plain, allocation, reveal, raw)
                                else:
                                    assert v == canonical_key_evaluate(cfg, searcher, allocation, reveal, reference)
                        lowest = {key: v for key, v in memo.items() if key[0] == LOWEST_INDEX}
                        kept = {key: v for key, v in memo.items() if key[0] != LOWEST_INDEX}
                        cut = searcher.fresh_door_stays is not None
                        assert kept.items() <= reference.items(), (cfg, searcher.name)
                        for key in reference.keys() - kept.keys():
                            assert cut and _stranded(key) and reference[key] == 0, (cfg, searcher.name, key)
                        assert not (cut and any(map(_stranded, memo))), (cfg, searcher.name)
                        if searcher.door_symmetric:
                            fallback = {key: v for key, v in lowest.items() if len(key) == 3}
                            assert fallback.items() <= raw.items(), (cfg, searcher.name)
                        else:
                            assert lowest == raw, (cfg, searcher.name)
    assert games > 50


def _stay_or_move_searchers(cfg):
    """Every bundled stay-or-move searcher that fits the game: fresh-k, and
    in the multi game the scaled table, the mimic (k = 1) and three tables
    as a table file may hold them, each diagram staying with probability
    1/3, 0 or 1 in turn."""
    searchers = []
    builders = [fresh_doors_searcher]
    if cfg.occupancy == "multi":
        builders.append(scaled_searcher)
        if cfg.k == 1:
            builders.append(mimic_searcher)
        diagrams = decision_diagrams(cfg.n, cfg.d)
        for shift in range(3):
            entries = {lam: (F(1, 3), F(0), F(1))[(i + shift) % 3] for i, lam in enumerate(diagrams)}
            builders.append(lambda c, e=entries: stay_table_searcher(c, StayTable(c.n, c.d, c.k, e)))
    for build in builders:
        try:
            searchers.append(build(cfg))
        except (DoorBudgetError, ExceedsUnitError, MissingDiagramError):
            pass
    return searchers


def _assert_cut_is_exact(cfg, searcher, allocations):
    # The uncut path, with its own memo, scores every position it reaches.
    uncut = WithoutStayRule(searcher)
    memo: dict = {}
    reference: dict = {}
    for allocation in allocations:
        assert evaluate_exact(cfg, searcher, allocation, _memo=memo) == evaluate_exact(
            cfg, uncut, allocation, _memo=reference
        ), (cfg, searcher.name, allocation)
        for rule in CHANCE_REVEALS:
            assert evaluate_under_reveal(cfg, searcher, allocation, rule, _memo=memo) == evaluate_under_reveal(
                cfg, uncut, allocation, rule, _memo=reference
            ), (cfg, searcher.name, allocation, rule)
    assert hider_best_response_value(cfg, searcher) == hider_best_response_value(cfg, uncut)


def test_cut_of_lost_positions_keeps_every_value_on_small_grid():
    # A stay-or-move searcher never guesses a door again once it moved off
    # it, so the evaluator scores a position that leaves a treasure behind
    # such a door as 0 without expanding it. WithoutStayRule keeps the same
    # rule and orbits but hides the stay rule, so the evaluator expands
    # those positions; every value and report must agree.
    games = 0
    for n in range(1, 8):
        for d in range(1, 4):
            for k in range(1, min(3, n) + 1):
                for occupancy in ("multi", "single"):
                    if occupancy == "single" and d > n:
                        continue
                    cfg = GameConfig(n, d, k, occupancy=occupancy)
                    for searcher in _stay_or_move_searchers(cfg):
                        games += 1
                        _assert_cut_is_exact(cfg, searcher, enumerate_allocations(n, d, occupancy))
    assert games > 150


@pytest.mark.parametrize("n, d, k", [(50, 5, 3), (42, 4, 4), (20, 4, 2)])
def test_cut_of_lost_positions_keeps_every_value_at_benchmark_sizes(n, d, k):
    # Every shape, under every rule; under a second in all.
    cfg = GameConfig(n, d, k)
    searchers = _stay_or_move_searchers(cfg)
    assert len(searchers) >= 2
    for searcher in searchers:
        _assert_cut_is_exact(cfg, searcher, shape_representatives(n, d, "multi"))
