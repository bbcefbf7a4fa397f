import random
from fractions import Fraction

import pytest

from treasurehunt.combinatorics import enumerate_allocations
from treasurehunt.errors import AdversarialRevealError, BudgetExceededError
from treasurehunt.game import GameConfig, all_guesses
from treasurehunt.montecarlo import compare_to_exact, run_mc
from treasurehunt.solver import (
    all_in_one_bound,
    closed_form_value,
    deterministic_win_set,
    evaluate_exact,
    evaluate_under_reveal,
    hider_best_response_value,
    counting_upper_bound,
    searcher_best_response_value,
)
from treasurehunt.staytables import StayTable
from treasurehunt.strategies import (
    HiderStrategy,
    SearcherStrategy,
    TabularSearcher,
    all_in_one_hider,
    fresh_doors_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

F = Fraction


def test_evaluate_fresh_doors_single():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    searcher = fresh_doors_searcher(cfg)
    # Hand count: 4 of the 6 opening pairs split the two treasures.
    assert evaluate_exact(cfg, searcher, (1, 1, 0, 0)) == F(2, 3)
    for allocation in enumerate_allocations(4, 2, "single"):
        assert evaluate_exact(cfg, searcher, allocation) == F(2, 3)


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


def test_deterministic_win_sets():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    fresh = {(): frozenset({0, 1})}

    def fresh_strategy(history):
        return fresh[()] if not history else frozenset({2, 3})

    ws = deterministic_win_set(cfg, fresh_strategy, name="fresh-pairs")
    assert ws.allocations == {
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
    assert ws3.allocations == {(1, 0, 0)}


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
