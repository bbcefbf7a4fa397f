"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance (exact
rational equality unless noted) and prints one pass/fail line including the
runtime envelope. Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they happen.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from oracle_utils import mimic_continuation_oracle
from treasurehunt.errors import ExceedsUnitError
from treasurehunt.game import GameConfig
from treasurehunt.montecarlo import compare_to_exact, run_mc
from treasurehunt.solver import (
    all_in_one_bound,
    closed_form_value,
    deterministic_win_set,
    evaluate_exact,
    hider_best_response_value,
    counting_upper_bound,
    searcher_best_response_value,
    sequence_form_value,
    verify_equalizing,
)
from treasurehunt.staytables import (
    StayTable,
    min_scalable_doors,
    scaled_stay_table,
    stay_probability,
)
from treasurehunt.combinatorics import enumerate_allocations
from treasurehunt.strategies import (
    all_in_one_hider,
    fresh_doors_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

F = Fraction


@contextmanager
def criterion(cid: int, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    in_time = elapsed < limit_seconds
    verdict = "PASS" if in_time else "FAIL (over time)"
    print(f"ACCEPTANCE {cid}: {verdict} ({elapsed:.1f}s, limit {limit_seconds:.0f}s)")
    assert in_time, f"criterion {cid} took {elapsed:.1f}s, limit {limit_seconds}s"


def test_criterion_1_single_game_closed_form_and_lp():
    with criterion(1, 30):
        cfg = GameConfig(4, 2, 2, occupancy="single")
        closed = closed_form_value(cfg)
        assert closed.value == F(2, 3)
        assert closed.tight is True
        assert sequence_form_value(cfg).value == F(2, 3)


def test_criterion_2_small_multi_values_by_lp():
    # The LP values the adversarial game (the hider picks the revealed
    # door), so both configs name that reveal rule. At (3,3,2) the value is
    # 3/5, certified from both sides: the lifted LP plan guarantees 3/5,
    # and uniform hiding caps every searcher at 3/5 even under uniform-door
    # reveals, which the adversarial hider may play. 2/3 there is only the
    # one-door cap k/n (and the value under lowest-index reveals), not the
    # adversarial value. See
    # tests/test_seqform.py::test_value_of_3_3_2_is_certified_three_fifths
    # and ::test_double_oracle_confirms_3_3_2 for the independent checks.
    with criterion(2, 2 * 300):
        cfg322 = GameConfig(3, 2, 2, reveal="adversarial")
        assert sequence_form_value(cfg322).value == F(2, 3)

        cfg = GameConfig(3, 3, 2, reveal="adversarial")
        report = sequence_form_value(cfg)
        assert report.value == F(3, 5), f"sequence_form_value(multi,3,3,2) = {report.value}, not 3/5"
        plan = report.certificate.searcher_strategy
        assert hider_best_response_value(cfg, plan).value == F(3, 5)
        relaxed = GameConfig(3, 3, 2, reveal="uniform-doors")
        cap = searcher_best_response_value(relaxed, uniform_hider(relaxed))
        assert cap.value == F(3, 5)
        assert all_in_one_bound(cfg) == F(2, 3)
        assert all_in_one_bound(cfg) > report.value


def test_criterion_3_scaled_table_certification():
    with criterion(3, 300):
        cfg = GameConfig(9, 3, 2)
        report = hider_best_response_value(cfg, scaled_searcher(cfg))
        assert report.value == F(8, 165)
        assert report.tight is True
        assert report.value == counting_upper_bound(cfg)

        cfg42 = GameConfig(4, 2, 2)
        r42 = hider_best_response_value(cfg42, scaled_searcher(cfg42))
        assert r42.value == F(4, 10) and r42.tight is True

        cfg52 = GameConfig(5, 2, 2)
        r52 = hider_best_response_value(cfg52, scaled_searcher(cfg52))
        assert r52.value == F(4, 15) and r52.tight is True


def test_criterion_4_custom_tables():
    with criterion(4, 300):
        cfg5 = GameConfig(5, 3, 2)
        table5 = StayTable(5, 3, 2, {(1,): F(1), (2,): F(4, 7), (1, 1): F(6, 7)})
        eq5 = verify_equalizing(cfg5, table5)
        assert eq5.equal is True and eq5.value == F(8, 35)
        cert5 = hider_best_response_value(cfg5, stay_table_searcher(cfg5, table5))
        assert cert5.value == F(8, 35) and cert5.tight is True

        cfg6 = GameConfig(6, 3, 2)
        table6 = StayTable(6, 3, 2, {(1,): F(1), (2,): F(3, 7), (1, 1): F(4, 7)})
        eq6 = verify_equalizing(cfg6, table6)
        assert eq6.equal is True and eq6.value == F(1, 7)
        cert6 = hider_best_response_value(cfg6, stay_table_searcher(cfg6, table6))
        assert cert6.value == F(1, 7) and cert6.tight is True


def test_criterion_5_table_values_and_domain():
    with criterion(5, 10):
        assert stay_probability(2, 2, (1,)) == F(2, 3)
        assert 1 - stay_probability(6, 3, (1,)) == F(20, 56)
        with pytest.raises(ExceedsUnitError) as err:
            scaled_stay_table(6, 3, 2)
        assert err.value.diagram == (1,)
        assert min_scalable_doors(3, 2) == 9


def test_criterion_6_oracle_equivalence():
    with criterion(6, 120):
        for n in range(1, 7):
            for d in range(2, 5):
                oracle = mimic_continuation_oracle(n, d)
                assert oracle, (n, d)
                for diagram, (reach, stay) in oracle.items():
                    assert reach > 0
                    assert stay_probability(n, d, diagram) == stay / reach, (n, d, diagram)


def test_criterion_7_equalizing_invariants():
    with criterion(7, 600):
        for n, d, k in [(3, 2, 1), (4, 2, 2), (9, 3, 2)]:
            cfg = GameConfig(n, d, k)
            report = verify_equalizing(cfg, scaled_stay_table(n, d, k))
            assert report.equal is True
            assert report.value == counting_upper_bound(cfg)
        for n, d, k, expected in [(4, 2, 2, F(2, 3)), (6, 3, 2, F(2, 5))]:
            cfg = GameConfig(n, d, k, occupancy="single")
            searcher = fresh_doors_searcher(cfg)
            for allocation in enumerate_allocations(n, d, "single"):
                assert evaluate_exact(cfg, searcher, allocation) == expected


def test_criterion_8_win_set_bound():
    with criterion(8, 60):
        rng = random.Random(1009)
        for cfg in (GameConfig(4, 2, 2, occupancy="single"), GameConfig(3, 3, 2)):
            guesses = []
            for size in range(1, cfg.k + 1):
                guesses.extend(frozenset(c) for c in combinations(range(cfg.n), size))
            bound = cfg.k ** cfg.d
            for _ in range(1000):
                chosen: dict = {}

                def strategy(history, chosen=chosen, guesses=guesses, rng=rng):
                    if history not in chosen:
                        chosen[history] = rng.choice(guesses)
                    return chosen[history]

                assert len(deterministic_win_set(cfg, strategy)) <= bound

        cfg_s = GameConfig(4, 2, 2, occupancy="single")

        def fresh_pairs(history):
            return frozenset({0, 1}) if not history else frozenset({2, 3})

        assert len(deterministic_win_set(cfg_s, fresh_pairs)) == 4


def test_criterion_9_all_in_one_cap_attained():
    with criterion(9, 60):
        cfg = GameConfig(5, 3, 2)
        report = searcher_best_response_value(cfg, all_in_one_hider(cfg))
        assert report.value == F(2, 5) == F(cfg.k, cfg.n)


def test_criterion_10_monotonicity():
    with criterion(10, 1800):
        values: dict = {}
        for n in range(2, 5):
            for d in range(1, 4):
                for k in range(1, min(3, n) + 1):
                    values[(n, d, k)] = sequence_form_value(GameConfig(n, d, k)).value
        # (4,3,3), the largest game of the grid.
        assert values[(4, 3, 3)] == F(18, 25)
        for (n, d, k), v in values.items():
            if (n + 1, d, k) in values:
                assert values[(n + 1, d, k)] <= v, ("n", n, d, k)
            if (n, d + 1, k) in values:
                assert values[(n, d + 1, k)] <= v, ("d", n, d, k)
            if (n, d, k + 1) in values:
                assert values[(n, d, k + 1)] >= v, ("k", n, d, k)


def test_criterion_11_monte_carlo_agrees():
    with criterion(11, 120):
        cfg9 = GameConfig(9, 3, 2)
        report9 = run_mc(cfg9, scaled_searcher(cfg9), uniform_hider(cfg9), 10**6, seed=20260808)
        check9 = compare_to_exact(report9, F(8, 165))
        assert check9.passed, check9

        cfg4 = GameConfig(4, 2, 2, occupancy="single")
        report4 = run_mc(cfg4, fresh_doors_searcher(cfg4), uniform_hider(cfg4), 10**6, seed=4)
        check4 = compare_to_exact(report4, F(2, 3))
        assert check4.passed, check4


def test_criterion_12_open_case_bounds():
    with criterion(12, 1800):
        cfg = GameConfig(4, 3, 2)
        report = sequence_form_value(cfg)  # default budgets
        upper = min(F(8, 20), F(2, 4))
        # The only stay table that fits four doors always stays.
        bundled = stay_table_searcher(
            cfg, StayTable(4, 3, 2, {(1,): F(1), (2,): F(1), (1, 1): F(1)})
        )
        lower = hider_best_response_value(cfg, bundled).value
        assert lower <= report.value <= upper
