import json
import re
from fractions import Fraction
from math import comb

import pytest

from oracle_utils import (
    WithoutDoorSymmetry,
    WithoutStayRule,
    full_enumeration_best_response,
    mimic_continuation_oracle,
)
from treasurehunt.combinatorics import enumerate_partitions
from treasurehunt.errors import DoorBudgetError, ExceedsUnitError, MissingDiagramError, TableEntryError
from treasurehunt.game import GameConfig
from treasurehunt.staytables import (
    StayTable,
    decision_diagrams,
    min_scalable_doors,
    q_one_find,
    scaled_stay_table,
    stay_probability,
)
from treasurehunt.solver import hider_best_response_value, verify_equalizing
from treasurehunt.strategies import stay_table_searcher


def test_stay_probability_values():
    assert stay_probability(2, 2, (1,)) == Fraction(2, 3)
    assert stay_probability(6, 3, (1,)) == Fraction(36, 56)
    # Read off the sampled-plan expansion, the independent oracle.
    oracle = mimic_continuation_oracle(5, 3)
    reach, stay = oracle[(2,)]
    assert stay / reach == Fraction(1, 5)
    assert stay_probability(5, 3, (2,)) == Fraction(1, 5)
    for n in (3, 5, 8):
        assert stay_probability(n, 3, (1, 1)) == 0


def test_stay_probability_domain():
    with pytest.raises(ValueError):
        stay_probability(4, 3, (3,))  # size d is past the last decision
    with pytest.raises(ValueError):
        stay_probability(4, 3, ())
    with pytest.raises(ValueError):
        stay_probability(2, 4, (1, 1, 1))  # more parts than doors
    with pytest.raises(ValueError):
        stay_probability(4, 3, (1, 2))  # not a partition


def test_q_one_find_closed_form():
    for n in range(1, 11):
        for d in range(1, 6):
            if d < 2:
                continue
            assert 1 - stay_probability(n, d, (1,)) == q_one_find(n, d)


def test_scaled_table_success_cases():
    table = scaled_stay_table(9, 3, 2)
    assert table.entries == {
        (1,): Fraction(54, 55),
        (2,): Fraction(2, 9),
        (1, 1): Fraction(0),
    }
    assert scaled_stay_table(4, 2, 2).entries == {(1,): Fraction(4, 5)}
    assert scaled_stay_table(5, 2, 2).entries == {(1,): Fraction(2, 3)}


def test_scaled_table_failures():
    with pytest.raises(ExceedsUnitError) as err:
        scaled_stay_table(6, 3, 2)
    assert err.value.diagram == (1,)
    assert err.value.value == Fraction(36, 28)
    with pytest.raises(DoorBudgetError):
        scaled_stay_table(3, 2, 2)  # below the d*k door floor


def test_min_scalable_doors():
    assert min_scalable_doors(2, 2) == 4
    assert min_scalable_doors(3, 2) == 9
    assert min_scalable_doors(1, 7) == 7
    # Independent upward scan straight from the base probabilities.
    d, k = 3, 2
    n = d * k
    while any(
        k * stay_probability(n, d, lam) > 1
        for lam in decision_diagrams(n, d)
    ):
        n += 1
    assert n == min_scalable_doors(d, k) == 9


def test_stay_probability_range_and_support():
    # Always a probability; zero on flat diagrams, positive exactly when a
    # reachable diagram's last part can still grow.
    for n in range(1, 7):
        for d in range(2, 6):
            reachable = set(mimic_continuation_oracle(n, d))
            for lam in decision_diagrams(n, d):
                p = stay_probability(n, d, lam)
                assert 0 <= p <= 1
                if len(lam) >= 2 and lam[-1] == lam[-2]:
                    assert p == 0
                elif lam in reachable:
                    assert p > 0
                else:
                    assert p == 0  # no completion exists at this door count


def test_zero_rule_on_flat_diagrams():
    # Scaled tables put 0 wherever the last part ties its predecessor.
    for n, d, k in [(9, 3, 2), (6, 4, 1), (min_scalable_doors(4, 2), 4, 2)]:
        table = scaled_stay_table(n, d, k)
        for diagram, p in table.entries.items():
            if len(diagram) >= 2 and diagram[-1] == diagram[-2]:
                assert p == 0


def test_choice_diagram_count_is_partition_function_minus_one():
    # Diagrams of size <= d-1 whose last part differs from the one before
    # (single-part ones included) are exactly the decision points with a
    # real choice; there are p(d) - 1 of them.
    for d in range(2, 9):
        choices = [
            lam
            for size in range(1, d)
            for lam in enumerate_partitions(size, size)
            if len(lam) == 1 or lam[-1] != lam[-2]
        ]
        p_d = len(enumerate_partitions(d, d))
        assert len(choices) == p_d - 1


def test_equalizing_failure_reports_counterexample():
    from treasurehunt.game import GameConfig
    from treasurehunt.solver import verify_equalizing

    cfg = GameConfig(6, 3, 2)
    lazy = StayTable(
        6, 3, 2, {(1,): Fraction(1, 2), (2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    )
    report = verify_equalizing(cfg, lazy)
    assert report.equal is False
    assert report.counterexample is not None
    values = {v for _, v in report.checked}
    assert len(values) > 1


def _lazy(n):
    return StayTable(n, 3, 2, {(1,): Fraction(1, 2), (2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})


def test_equalizing_counterexample_is_the_first_differing_allocation():
    assert verify_equalizing(GameConfig(6, 3, 2), _lazy(6)).counterexample == (0, 0, 0, 0, 1, 2)
    assert verify_equalizing(GameConfig(8, 3, 2), _lazy(8)).counterexample == (
        0, 0, 0, 0, 0, 0, 1, 2
    )


def test_equalizing_by_shape_matches_every_allocation():
    tables = [_lazy(6), StayTable(6, 3, 2, {(1,): Fraction(1), (2,): Fraction(3, 7),
                                            (1, 1): Fraction(4, 7)})]
    for n in range(1, 7):
        for d in range(1, 4):
            for k in range(1, min(n, 3) + 1):
                try:
                    tables.append(scaled_stay_table(n, d, k))
                except (DoorBudgetError, ExceedsUnitError):
                    pass
    assert len(tables) == 30
    for table in tables:
        cfg = GameConfig(table.n, table.d, table.k)
        report = verify_equalizing(cfg, table)
        searcher = WithoutDoorSymmetry(stay_table_searcher(cfg, table))
        _, _, rows = full_enumeration_best_response(cfg, searcher)
        first = rows[0][1]
        counterexample = next((a for a, v in rows if v != first), None)
        assert report.counterexample == counterexample
        assert report.equal is (counterexample is None)
        assert report.value == (first if counterexample is None else None)


def test_equalizing_family_found_by_exact_search():
    # d=3, n=3k-1: fix the first two stays at 1 and n k^2 / C(n+2, 3); the
    # win probability against any one allocation is affine in the (1,1)
    # entry, so two probes solve the equal-value condition exactly.
    from treasurehunt.game import GameConfig
    from treasurehunt.solver import evaluate_exact
    from treasurehunt.solver import verify_equalizing
    from treasurehunt.strategies import stay_table_searcher

    for k in (1, 2, 3, 4):
        n = 3 * k - 1
        cfg = GameConfig(n, 3, k)
        p_two = Fraction(n * k * k, comb(n + 2, 3))

        def value_at(p_flat, allocation, n=n, k=k, cfg=cfg, p_two=p_two):
            table = StayTable(
                n, 3, k, {(1,): Fraction(1), (2,): p_two, (1, 1): p_flat}
            )
            return evaluate_exact(cfg, stay_table_searcher(cfg, table), allocation)

        one_door = (3,) + (0,) * (n - 1)
        two_doors = (2, 1) + (0,) * (n - 2)
        v0a, v1a = value_at(Fraction(0), one_door), value_at(Fraction(1), one_door)
        v0b, v1b = value_at(Fraction(0), two_doors), value_at(Fraction(1), two_doors)
        slope = (v1a - v0a) - (v1b - v0b)
        if slope == 0:
            assert v0a == v0b  # the entry is unreachable, any value works
            p_flat = Fraction(n + 1, n + 2)
        else:
            p_flat = (v0b - v0a) / slope
            assert p_flat == Fraction(n + 1, n + 2)
        table = StayTable(n, 3, k, {(1,): Fraction(1), (2,): p_two, (1, 1): p_flat})
        report = verify_equalizing(cfg, table)
        assert report.equal is True
        assert report.value == Fraction(k**3, comb(n + 2, 3))


def test_table_validation():
    with pytest.raises(TableEntryError):
        StayTable(4, 2, 2, {(1,): Fraction(3, 2)})
    with pytest.raises(TableEntryError):
        StayTable(4, 2, 2, {(2,): Fraction(1, 2)})  # size d, not a decision
    with pytest.raises(TableEntryError):
        StayTable(4, 3, 2, {(1, 2): Fraction(1, 2)})  # size 3, outside 1..d-1
    for key in [(0,), (1, 0), (-1,)]:
        with pytest.raises(TableEntryError, match=rf"^{re.escape(str(key))} is not a discovery order$"):
            StayTable(4, 3, 2, {key: Fraction(1, 2)})
    assert StayTable(8, 4, 2, {(1, 2): Fraction(1, 2)}).stay((1, 2)) == Fraction(1, 2)


def test_table_rejects_bool_diagram_parts():
    # (True,) == (1,) and hashes alike, so it would stand in for the (1,) entry.
    with pytest.raises(TableEntryError):
        StayTable(4, 2, 2, {(True,): Fraction(1, 2)})


def test_table_json_round_trip(tmp_path):
    table = StayTable(
        5, 3, 2, {(1,): Fraction(1), (2,): Fraction(4, 7), (1, 1): Fraction(6, 7)}
    )
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json()))
    loaded = StayTable.load(path)
    assert loaded == table


def test_table_json_rejects_decimals(tmp_path):
    doc = {"n": 4, "d": 2, "k": 2, "entries": [{"diagram": [1], "p": 0.8}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TableEntryError):
        StayTable.load(path)


F = Fraction

# A discovery-order rule at n = dk = 8 that reaches the counting bound 8/165.
# It stays after the flat find (1, 1), so play reaches the order (1, 2),
# which no partition names; (1, 2) and (2, 1) hold different entries.
ORDERS_842 = {
    (1,): F(1), (1, 1): F(1), (2,): F(1, 2), (3,): F(64, 165),
    (1, 2): F(91, 165), (2, 1): F(224, 495), (1, 1, 1): F(10, 33),
}


def test_discovery_order_table_reaches_the_bound_at_n_equal_dk():
    cfg = GameConfig(8, 4, 2)
    report = hider_best_response_value(cfg, stay_table_searcher(cfg, StayTable(8, 4, 2, ORDERS_842)))
    assert (report.value, report.tight) == (F(8, 165), True)
    checked = report.certificate["checked"]
    assert len(checked) == 5 and {v for _, v in checked} == {F(8, 165)}


@pytest.mark.parametrize("wrap", [WithoutStayRule, WithoutDoorSymmetry], ids=lambda w: w.__name__)
def test_discovery_order_table_scores_the_bound_on_every_allocation(wrap):
    # WithoutDoorSymmetry scores raw histories, about 7 s.
    cfg = GameConfig(8, 4, 2)
    searcher = wrap(stay_table_searcher(cfg, StayTable(8, 4, 2, ORDERS_842)))
    _, _, rows = full_enumeration_best_response(cfg, searcher)
    assert len(rows) == 330
    assert {v for _, v in rows} == {F(8, 165)}


def test_discovery_order_table_json_round_trip(tmp_path):
    table = StayTable(8, 4, 2, ORDERS_842)
    doc = table.to_json()
    assert [e["diagram"] for e in doc["entries"]] == [[1], [2], [1, 1], [3], [2, 1], [1, 2], [1, 1, 1]]
    assert [tuple(e["diagram"]) for e in doc["entries"]] == [key for key, _ in table.sorted_items()]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    loaded = StayTable.load(path)
    assert loaded == table
    assert (loaded.stay((1, 2)), loaded.stay((2, 1))) == (F(91, 165), F(224, 495))


def test_partition_table_that_stays_after_a_flat_find_misses_an_order():
    entries = {key: p for key, p in ORDERS_842.items() if key != (1, 2)}
    cfg = GameConfig(8, 4, 2)
    with pytest.raises(MissingDiagramError) as err:
        stay_table_searcher(cfg, StayTable(8, 4, 2, entries))
    assert err.value.diagram == (1, 2)
    assert str(err.value) == "no table entry for reachable diagram (1, 2)"


def _bound_rows():
    # Partition tables that reach k^d / C(n+d-1, d) below min_scalable_doors.
    rows = []
    triples = zip(range(9, 18), (216, 236, 248, 250, 240, 216, 176, 118, 40), (
        F(16, 37), F(36, 103), F(20, 69), F(88, 359), F(4, 19), F(13, 71), F(14, 87), F(120, 841), F(32, 251)))
    for n, flat, p21 in triples:
        total = comb(n + 3, 3)
        rows.append(pytest.param(n, 4, 2, {
            (1,): F(1), (1, 1): F(0), (2,): F(16 * n, total), (3,): F(2, n),
            (2, 1): p21, (1, 1, 1): F(flat, total),
        }, id=f"{n}-4-2"))
    for d, k, ns, twos, flats in [
        (3, 2, (6, 7, 8), (F(3, 7), F(1, 3), F(4, 15)), (F(4, 7), F(1, 3), F(2, 15))),
        (3, 3, range(9, 15), (F(27, 55), F(9, 22), F(9, 26), F(27, 91), F(9, 35), F(9, 40)),
         (F(39, 55), F(6, 11), F(21, 52), F(51, 182), F(6, 35), F(3, 40))),
    ]:
        for n, two, flat in zip(ns, twos, flats):
            rows.append(pytest.param(n, d, k, {(1,): F(1), (2,): two, (1, 1): flat}, id=f"{n}-{d}-{k}"))
    return rows


@pytest.mark.parametrize("n, d, k, entries", _bound_rows())
def test_partition_tables_reach_the_bound_below_the_scaling_threshold(n, d, k, entries):
    assert n < min_scalable_doors(d, k)
    cfg = GameConfig(n, d, k)
    report = hider_best_response_value(cfg, stay_table_searcher(cfg, StayTable(n, d, k, entries)))
    assert (report.value, report.tight) == (F(k**d, comb(n + d - 1, d)), True)
