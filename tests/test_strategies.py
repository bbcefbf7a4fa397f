import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import grid
from grid import by_shape_hider
from oracle_utils import TabularSearcher, all_guesses
from treasurehunt.combinatorics import count_allocations, enumerate_allocations, shape_representatives
from treasurehunt.errors import DoorBudgetError, MissingDiagramError
from treasurehunt.game import (
    GameConfig,
    discovery_counts,
    guessed_doors,
    orbit_key,
    relabeling,
)
from treasurehunt.seqform import LiftedPlanStrategy
from treasurehunt.montecarlo import run_mc
from treasurehunt.solver import hider_best_response_value, sequence_form_value
from treasurehunt.staytables import StayTable, scaled_stay_table, stay_probability
from treasurehunt.strategies import (
    FreshDoorsSearcher,
    HiderStrategy,
    all_in_one_hider,
    draw_from,
    draw_table,
    fresh_doors_searcher,
    load_hider_json,
    mimic_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)


def test_uniform_hider():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    hider = uniform_hider(cfg)
    assert len(hider.distribution) == 6
    assert all(p == Fraction(1, 6) for _, p in hider.distribution)
    multi = uniform_hider(GameConfig(3, 3, 2))
    assert len(multi.distribution) == 10
    assert sum(p for _, p in multi.distribution) == 1


def test_all_in_one_hider():
    hider = all_in_one_hider(GameConfig(3, 3, 2))
    assert sorted(a for a, _ in hider.distribution) == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
    assert all(p == Fraction(1, 3) for _, p in hider.distribution)
    assert len(all_in_one_hider(GameConfig(5, 3, 2)).distribution) == 5
    with pytest.raises(ValueError):
        all_in_one_hider(GameConfig(3, 2, 2, occupancy="single"))


def test_custom_hider_validation():
    cfg = GameConfig(2, 2, 1)
    with pytest.raises(ValueError, match="probabilities sum to 1/2, not 1"):
        HiderStrategy(cfg, (((2, 0), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        HiderStrategy(cfg, (((3, -1), Fraction(1)),))
    with pytest.raises(ValueError, match=r"^duplicate allocation \(1, 1\)$"):
        HiderStrategy(cfg, (((1, 1), Fraction(1, 2)), ((1, 1), Fraction(1, 2))))
    with pytest.raises(ValueError, match="^hider probabilities must be positive$"):
        HiderStrategy(cfg, (((2, 0), Fraction(1)), ((0, 2), Fraction(0))))


def _by_shape(cfg, mass):
    """The hider that gives each allocation the mass of its shape's entry in
    ``mass`` (keyed by the ascending-sorted allocation), renormalized."""
    allocations = enumerate_allocations(cfg.n, cfg.d, cfg.occupancy)
    weights = [mass[tuple(sorted(a))] for a in allocations]
    return HiderStrategy(cfg, tuple((a, Fraction(w, sum(weights))) for a, w in zip(allocations, weights)))


@pytest.mark.parametrize("occupancy", ["multi", "single"])
def test_hider_door_symmetry(occupancy):
    cfg = GameConfig(4, 2, 2, occupancy=occupancy)
    uniform = uniform_hider(cfg)
    assert uniform.door_symmetric
    allocations = [a for a, _ in uniform.distribution]
    # Uniform minus one allocation: its shape is no longer held whole.
    rest = allocations[1:]
    assert not HiderStrategy(cfg, tuple((a, Fraction(1, len(rest))) for a in rest)).door_symmetric
    # One allocation alone holds only one relabeling of its shape.
    assert not HiderStrategy(cfg, ((allocations[0], 1),)).door_symmetric
    # Every allocation held, but two of one shape with unequal mass.
    share = Fraction(1, len(allocations) + 1)
    skewed = ((allocations[0], 2 * share),) + tuple((a, share) for a in allocations[1:])
    assert not HiderStrategy(cfg, skewed).door_symmetric
    # Unequal mass across shapes, equal within each: still symmetric (the
    # single game has one shape, so this is its uniform hider again).
    reps = shape_representatives(cfg.n, cfg.d, occupancy)
    assert _by_shape(cfg, {rep: i + 1 for i, rep in enumerate(reps)}).door_symmetric
    if occupancy == "multi":
        assert all_in_one_hider(cfg).door_symmetric
        # The shape (2,) held whole, and (1,1) at one allocation only.
        held = all_in_one_hider(cfg).distribution
        partial = tuple((a, p / 2) for a, p in held) + (((1, 1, 0, 0), Fraction(1, 2)),)
        assert not HiderStrategy(cfg, partial).door_symmetric


@pytest.mark.parametrize("p", [0.5, True, "1/2"], ids=["float", "bool", "string"])
def test_hider_probability_must_be_exact(p):
    # Named in a ValueError, not an AttributeError from the denominator sum.
    cfg = GameConfig(2, 2, 1)
    with pytest.raises(ValueError, match=f"probability {p!r} is not an exact fraction"):
        HiderStrategy(cfg, (((2, 0), p), ((0, 2), p)))


def test_fresh_doors_searcher():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    searcher = fresh_doors_searcher(cfg)
    first = searcher.guess_distribution(())
    assert len(first) == 6 and all(p == Fraction(1, 6) for _, p in first)
    after = searcher.guess_distribution(((frozenset({0, 1}), 0),))
    assert after == [(frozenset({2, 3}), Fraction(1))]
    with pytest.raises(DoorBudgetError):
        fresh_doors_searcher(GameConfig(5, 3, 2, occupancy="single"))


@pytest.mark.parametrize("occupancy", ["multi", "single"])
def test_fresh_k_is_the_stay_table_that_never_stays(occupancy):
    for n, d, k in [(2, 1, 2), (4, 2, 2), (5, 2, 1), (6, 3, 2), (6, 3, 1), (7, 2, 3)]:
        cfg = GameConfig(n, d, k, occupancy=occupancy, reveal="uniform-doors")
        fresh = fresh_doors_searcher(cfg)
        empty = stay_table_searcher(cfg, StayTable(n, d, k, {}))
        assert isinstance(empty, FreshDoorsSearcher) and empty.table == fresh.table
        assert (fresh.name, empty.name) == ("fresh-k", "ptable")
        assert hider_best_response_value(cfg, empty) == hider_best_response_value(cfg, fresh)
        hider = uniform_hider(cfg)
        assert run_mc(cfg, empty, hider, 500, 7).wins == run_mc(cfg, fresh, hider, 500, 7).wins
    # The evaluator's memo test relabels fresh-k through dataclasses.replace.
    plain = replace(fresh, door_symmetric=False)
    assert plain.table == StayTable(n, d, k, {}) and not plain.door_symmetric


@pytest.mark.parametrize("n, d, k, entries, value", [
    (4, 2, 2, {(1,): Fraction(0)}, Fraction(2, 3)),
    # (2,) is reached only by staying at (1,), so its 1/2 never plays.
    (6, 3, 2, {(1,): Fraction(0), (1, 1): Fraction(0), (2,): Fraction(1, 2)}, Fraction(2, 5)),
], ids=["4-2-2-zero", "6-3-2-unreached-stay"])
def test_a_table_that_never_stays_plays_the_single_game_as_fresh_k(n, d, k, entries, value):
    cfg = GameConfig(n, d, k, occupancy="single")
    report = hider_best_response_value(cfg, stay_table_searcher(cfg, StayTable(n, d, k, entries)))
    assert (report.value, report.tight) == (value, True)
    assert report == hider_best_response_value(cfg, fresh_doors_searcher(cfg))


def test_a_table_that_stays_at_a_reachable_order_is_refused_in_the_single_game():
    message = "^stay-table play is defined for the multi-occupancy game$"
    cfg = GameConfig(6, 3, 2, occupancy="single")
    table = StayTable(6, 3, 2, {(1,): Fraction(0), (1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    with pytest.raises(ValueError, match=message):
        stay_table_searcher(cfg, table)
    assert stay_table_searcher(replace(cfg, occupancy="multi"), table).table is table
    with pytest.raises(ValueError, match=message):
        mimic_searcher(GameConfig(4, 2, 1, occupancy="single"))
    with pytest.raises(ValueError, match=message):
        scaled_searcher(GameConfig(9, 3, 2, occupancy="single"))


def test_guess_orbits_refuse_histories_the_rule_cannot_continue():
    fresh = fresh_doors_searcher(GameConfig(4, 2, 2, occupancy="single"))
    with pytest.raises(ValueError, match="^game already won, no further guess$"):
        fresh.guess_orbits(((frozenset({0, 1}), 0), (frozenset({2, 3}), 2)))
    with pytest.raises(ValueError, match="^game already lost, no further guess$"):
        fresh.guess_orbits(((frozenset({0, 1}), None),))
    # Histories this table's own play never makes: both guesses take fresh doors.
    foreign = ((frozenset({0, 1}), 0), (frozenset({2, 3}), 2))
    all_stay = StayTable(4, 3, 2, {(1,): Fraction(1), (2,): Fraction(1), (1, 1): Fraction(1)})
    with pytest.raises(DoorBudgetError, match="^ran out of fresh doors on the stay branch$"):
        stay_table_searcher(GameConfig(4, 3, 2), all_stay).guess_orbits(foreign)
    below_floor = StayTable(5, 3, 2, {(1,): Fraction(1), (2,): Fraction(4, 7), (1, 1): Fraction(6, 7)})
    with pytest.raises(DoorBudgetError, match="^ran out of fresh doors on the move branch$"):
        stay_table_searcher(GameConfig(5, 3, 2), below_floor).guess_orbits(foreign)


def test_fresh_k_below_dk_fails_on_the_move_branch():
    with pytest.raises(DoorBudgetError, match=r"^move branch at \(1, 1\) needs 2 fresh doors, only 1 left$"):
        fresh_doors_searcher(GameConfig(5, 3, 2))
    with pytest.raises(DoorBudgetError, match=r"^move branch at \(1,\) needs 3 fresh doors, only 1 left$"):
        fresh_doors_searcher(GameConfig(4, 2, 3, occupancy="single"))


def test_mimic_searcher_examples():
    strat = mimic_searcher(GameConfig(2, 2, 1))
    dist = dict(strat.guess_distribution(((frozenset({0}), 0),)))
    assert dist[frozenset({0})] == Fraction(2, 3)
    assert dist[frozenset({1})] == Fraction(1, 3)

    strat6 = mimic_searcher(GameConfig(6, 3, 1))
    dist6 = dict(strat6.guess_distribution(((frozenset({2}), 2),)))
    move_mass = sum(p for g, p in dist6.items() if g != frozenset({2}))
    assert move_mass == Fraction(20, 56)

    # A flat diagram never continues: the counts could not stay sorted.
    flat = ((frozenset({2}), 2), (frozenset({4}), 4))
    dist_flat = dict(strat6.guess_distribution(flat))
    assert frozenset({4}) not in dist_flat
    assert sum(dist_flat.values()) == 1

    with pytest.raises(ValueError):
        mimic_searcher(GameConfig(4, 2, 2))


def test_stay_table_searcher_behavior():
    cfg = GameConfig(3, 2, 2)
    strat = stay_table_searcher(cfg, StayTable(3, 2, 2, {(1,): Fraction(1)}))
    after = strat.guess_distribution(((frozenset({0, 1}), 0),))
    assert after == [(frozenset({0, 2}), Fraction(1))]

    cfg9 = GameConfig(9, 3, 2)
    strat9 = scaled_searcher(cfg9)
    h = ((frozenset({0, 1}), 0), (frozenset({2, 3}), 2))
    dist = strat9.guess_distribution(h)  # diagram (1, 1): stay entry is 0
    assert all(g.isdisjoint({0, 1, 2, 3}) for g, _ in dist)
    assert sum(p for _, p in dist) == 1
    assert len(dist) == len(list(combinations(range(5), 2)))


def test_stay_table_never_revisits_spent_doors():
    cfg = GameConfig(9, 3, 2)
    strat = scaled_searcher(cfg)
    h = ((frozenset({0, 1}), 0), (frozenset({0, 2}), 0))
    for guess, _ in strat.guess_distribution(h):
        assert guess <= frozenset({0}) | frozenset(range(3, 9))


def test_stay_table_validation_errors():
    with pytest.raises(MissingDiagramError):
        stay_table_searcher(
            GameConfig(9, 3, 2), StayTable(9, 3, 2, {(1,): Fraction(1, 2)})
        )
    # (4,3,2): any positive move branch would need a fifth door eventually.
    with pytest.raises(DoorBudgetError):
        stay_table_searcher(
            GameConfig(4, 3, 2),
            StayTable(4, 3, 2, {(1,): Fraction(1, 2), (2,): Fraction(1), (1, 1): Fraction(1)}),
        )
    # All-stay is the one table that fits four doors.
    strat = stay_table_searcher(
        GameConfig(4, 3, 2),
        StayTable(4, 3, 2, {(1,): Fraction(1), (2,): Fraction(1), (1, 1): Fraction(1)}),
    )
    assert strat.table.stay((1,)) == 1


def test_below_floor_table_allowed_when_stay_covers_it():
    # Five doors suffice for d=3, k=2 when the first decision always stays.
    cfg = GameConfig(5, 3, 2)
    table = StayTable(5, 3, 2, {(1,): Fraction(1), (2,): Fraction(4, 7), (1, 1): Fraction(6, 7)})
    strat = stay_table_searcher(cfg, table)
    h = ((frozenset({0, 1}), 0),)
    dist = dict(strat.guess_distribution(h))
    assert sum(dist.values()) == 1
    assert all(0 in g for g in dist)  # the stay branch is forced here

    # After a second find at the same door the stay mass drops to 4/7.
    h2 = h + ((frozenset({0, 2}), 0),)
    dist2 = dict(strat.guess_distribution(h2))
    assert sum(p for g, p in dist2.items() if 0 in g) == Fraction(4, 7)
    assert sum(p for g, p in dist2.items() if 0 not in g) == Fraction(3, 7)


def test_mimic_equals_scaled_table_at_k1():
    # The sampled-plan searcher and the k=1 table strategy are one object:
    # identical distributions at every reachable history.
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3)]:
        cfg = GameConfig(n, d, 1)
        mimic = mimic_searcher(cfg)
        table = stay_table_searcher(cfg, scaled_stay_table(n, d, 1))
        frontier = [()]
        while frontier:
            h = frontier.pop()
            dist_m = sorted(mimic.guess_distribution(h), key=lambda e: sorted(e[0]))
            dist_t = sorted(table.guess_distribution(h), key=lambda e: sorted(e[0]))
            assert dist_m == dist_t
            assert sum(p for _, p in dist_m) == 1
            if len(h) + 1 < d:
                for g, p in dist_m:
                    if p > 0:
                        for door in g:
                            frontier.append(h + ((g, door),))


def test_distributions_sum_to_one_everywhere():
    cases = [
        (GameConfig(4, 2, 2, occupancy="single"), fresh_doors_searcher),
        (GameConfig(4, 2, 2), scaled_searcher),
        (GameConfig(9, 3, 2), scaled_searcher),
    ]
    for cfg, make in cases:
        strat = make(cfg)
        frontier = [()]
        seen = 0
        while frontier and seen < 500:
            h = frontier.pop()
            dist = strat.guess_distribution(h)
            seen += 1
            assert sum(p for _, p in dist) == 1
            assert all(1 <= len(g) <= cfg.k for g, _ in dist)
            if len(h) + 1 < cfg.d:
                for g, p in dist:
                    if p > 0:
                        for door in sorted(g)[:1]:
                            frontier.append(h + ((g, door),))


def test_samplers_track_distributions():
    # Fixed-seed frequencies from the cursor sampler (_DistributionSampler,
    # which run_mc uses for searchers without a fresh_door_stays rule) stay
    # within 5 sigma of the exact per-guess probabilities, conditioning on
    # the sampler having opened with the history's first guess.
    cfg = GameConfig(6, 3, 2)
    table = StayTable(6, 3, 2, {(1,): Fraction(1), (2,): Fraction(3, 7), (1, 1): Fraction(4, 7)})
    strat = stay_table_searcher(cfg, table)
    history = ((frozenset({0, 1}), 0),)
    exact = dict(strat.guess_distribution(history))
    rng = random.Random(12345)
    counts: dict = {}
    matched = 0
    for _ in range(120000):
        sampler = strat.sampler(rng)
        if sampler.next_guess() != frozenset({0, 1}):
            continue
        sampler.observe(frozenset({0, 1}), 0)
        second = sampler.next_guess()
        counts[second] = counts.get(second, 0) + 1
        matched += 1
    assert matched > 5000
    for guess, p in exact.items():
        freq = counts.get(guess, 0) / matched
        sigma = (float(p) * (1 - float(p)) / matched) ** 0.5
        assert abs(freq - float(p)) <= 5 * sigma + 1e-9
    assert sum(counts.values()) == matched  # nothing outside the support


def test_a_one_entry_table_reads_nothing_from_the_stream():
    rng = random.Random(3)
    state = rng.getstate()
    assert draw_from(draw_table([("only", Fraction(1))]), rng.getrandbits) == "only"
    cfg = GameConfig(4, 2, 2)
    only = frozenset({0, 1})
    cursor = TabularSearcher(cfg, {(): ((only, Fraction(1)),)}).sampler(rng)
    assert cursor.next_guess() == only
    hider = HiderStrategy(cfg, (((1, 1, 0, 0), Fraction(1)),))
    assert hider.sampler(rng).sample() == (1, 1, 0, 0)
    assert rng.getstate() == state


def test_draws_read_the_bits_of_randbelow():
    # A denominator of 4 draws from (4 - 1).bit_length() = 2 bits, with no
    # rejection: the draw is the outcome at those bits.
    quarters = [(outcome, Fraction(1, 4)) for outcome in "abcd"]
    rng, twin = random.Random(11), random.Random(11)
    draws = [draw_from(draw_table(quarters), rng.getrandbits) for _ in range(50)]
    assert draws == ["abcd"[twin.getrandbits(2)] for _ in range(50)]


def test_hider_sampler_is_exact_and_seeded():
    cfg = GameConfig(3, 3, 2)
    hider = uniform_hider(cfg)
    rng = random.Random(7)
    sampler = hider.sampler(rng)
    draws = [sampler.sample() for _ in range(2000)]
    assert set(draws) <= {allocation for allocation, _ in hider.distribution}
    rng2 = random.Random(7)
    sampler2 = hider.sampler(rng2)
    assert [sampler2.sample() for _ in range(2000)] == draws


def test_load_hider_json(tmp_path):
    cfg = GameConfig(2, 2, 1)
    doc = {
        "n": 2, "d": 2,
        "entries": [
            {"allocation": [2, 0], "p": {"num": 1, "den": 2}},
            {"allocation": [0, 2], "p": {"num": 1, "den": 2}},
        ],
    }
    path = tmp_path / "hider.json"
    path.write_text(json.dumps(doc))
    hider = load_hider_json(cfg, path)
    assert sum(p for _, p in hider.distribution) == 1

    doc["entries"][0]["p"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_hider_json(cfg, path)


def test_hider_checks_fail_at_the_first_bad_entry_in_input_order():
    cfg = GameConfig(2, 2, 1)
    half = Fraction(1, 2)
    # (1, 1) sorts first, but (2, 0) is the first to repeat in input order.
    with pytest.raises(ValueError, match=r"^duplicate allocation \(2, 0\)$"):
        HiderStrategy(cfg, (((1, 1), half), ((2, 0), half), ((2, 0), half), ((1, 1), half)))
    with pytest.raises(ValueError, match="^duplicate allocation"):
        HiderStrategy(cfg, (((1, 1), half), ((1, 1), half), ((3, -1), half)))
    with pytest.raises(ValueError, match="invalid for"):
        HiderStrategy(cfg, (((1, 1), half), ((3, -1), half), ((1, 1), half)))
    with pytest.raises(ValueError, match="not an exact fraction"):
        HiderStrategy(cfg, (((1, 1), 0.5), ((1, 1), half)))
    with pytest.raises(ValueError, match="must be positive"):
        HiderStrategy(cfg, (((1, 1), -half), ((3, -1), half)))


def _hider_inputs(cfg, tmp_path, monkeypatch):
    """(hider, the pairs it was built from) for the uniform, all-in-one,
    by-shape and file-loaded hiders of the game."""
    allocations = enumerate_allocations(cfg.n, cfg.d, cfg.occupancy)
    yield uniform_hider(cfg), [(a, Fraction(1, len(allocations))) for a in allocations]
    if cfg.occupancy == "multi" or cfg.d == 1:
        corners = [tuple(cfg.d if door == i else 0 for door in range(cfg.n)) for i in range(cfg.n)]
        yield all_in_one_hider(cfg), [(a, Fraction(1, cfg.n)) for a in corners]
    given = []

    def recording(config, distribution, name):
        given.extend(distribution)
        return HiderStrategy(config, given, name)

    with monkeypatch.context() as patch:
        patch.setattr(grid, "HiderStrategy", recording)
        by_shape = by_shape_hider(cfg)
    pairs = list(given)
    yield by_shape, pairs
    path = tmp_path / f"{cfg.occupancy}-{cfg.n}-{cfg.d}.json"
    entries = [{"allocation": list(a), "p": {"num": p.numerator, "den": p.denominator}} for a, p in pairs]
    path.write_text(json.dumps({"n": cfg.n, "d": cfg.d, "entries": entries[::-1]}))
    yield load_hider_json(cfg, path), pairs[::-1]


@pytest.mark.parametrize("occupancy", ["multi", "single"])
def test_hiders_read_back_their_input_from_the_table(occupancy, tmp_path, monkeypatch):
    for n in range(1, 7):
        for d in range(1, min(3, n if occupancy == "single" else 3) + 1):
            cfg = GameConfig(n, d, 1, occupancy=occupancy)
            for hider, pairs in _hider_inputs(cfg, tmp_path, monkeypatch):
                at = (cfg, hider.name)
                assert hider.distribution == tuple(pairs), at
                assert HiderStrategy(cfg, hider.distribution).table == hider.table, at
                den, bits, bounds, outcomes = hider.table
                equal = len({p for _, p in pairs}) == 1
                assert isinstance(bounds, range if equal else list), at
                # The same draws from range and list bounds on one stream.
                listed = (den, bits, list(bounds), outcomes)
                rng, twin = random.Random(n * 10 + d), random.Random(n * 10 + d)
                draws = [draw_from(hider.table, rng.getrandbits) for _ in range(60)]
                assert draws == [draw_from(listed, twin.getrandbits) for _ in range(60)], at


def test_equal_weight_guess_tables_sum_as_a_range():
    thirds = [(door, Fraction(1, 3)) for door in "abc"]
    assert draw_table(thirds) == (3, 2, range(1, 4), ["a", "b", "c"])
    skewed = [("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))]
    assert draw_table(skewed) == (4, 2, [2, 3, 4], ["a", "b", "c"])


def test_uniform_hider_build_peak_memory():
    # The (20,4,2) hider holds 8,855 allocation tuples, about 1.76 MB; its
    # build may add a list or two of references, not a pair, a set entry
    # and a running sum per allocation (3.2 MB in all).
    cfg = GameConfig(20, 4, 2)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        hider = uniform_hider(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(hider.table[3]) == 8855
    assert peak <= 2.4 * 2**20, peak / 2**20


def test_scaled_searcher_counts(subtests=None):
    cfg = GameConfig(4, 2, 2)
    strat = scaled_searcher(cfg)
    # stay probability 4/5 at diagram (1): mass 4/5 on {current, fresh} pairs.
    h = ((frozenset({0, 1}), 1),)
    dist = dict(strat.guess_distribution(h))
    stay_mass = sum(p for g, p in dist.items() if 1 in g)
    assert stay_mass == Fraction(4, 5)
    assert stay_mass == 2 * stay_probability(4, 2, (1,))
    assert count_allocations(4, 2) == 10


def _reachable_histories(searcher, every_guess=False):
    """Every history with fewer than d rounds that play can reach: guesses
    of positive probability, or every legal guess with ``every_guess``,
    each revealing any door it holds that can still hide a treasure."""
    cfg = searcher.config
    frontier = [()]
    while frontier:
        history = frontier.pop()
        yield history
        if len(history) + 1 == cfg.d:
            continue
        spent = {o for _, o in history} if cfg.occupancy == "single" else set()
        if every_guess:
            guesses = [frozenset(g) for g in all_guesses(cfg)]
        else:
            guesses = [g for g, p in searcher.guess_distribution(history) if p > 0]
        for guess in guesses:
            frontier.extend(history + ((guess, o),) for o in sorted(guess - spent))


def _rule_read_guess_by_guess(searcher, history):
    """The searcher's rule read off guess by guess over ``all_guesses``."""
    cfg = searcher.config
    n, k = cfg.n, cfg.k
    fresh = frozenset(range(n)) - guessed_doors(history)
    if isinstance(searcher, LiftedPlanStrategy):
        (_, canon), _, starts = relabeling((0,) * n, history)
        info = searcher._game.s_infoset_by_hist.get(canon)
        parent = 0 if info is None else searcher._plan[info.parent_seq]
    rule = {}
    for doors in all_guesses(cfg):
        g = frozenset(doors)
        if isinstance(searcher, LiftedPlanStrategy):
            if parent == 0:
                p = Fraction(1, len(all_guesses(cfg)))
            else:
                p = searcher._plan[info.action_of[orbit_key(starts, g)]] / parent
        elif type(searcher) is FreshDoorsSearcher or not history:
            p = Fraction(len(g) == k and g <= fresh, comb(len(fresh), k))
        else:
            current = history[-1][1]
            stay = searcher.table.stay(discovery_counts(history))
            if len(g) == k and current in g and g - {current} <= fresh:
                p = stay / comb(len(fresh), k - 1)
            else:
                p = (1 - stay) * Fraction(len(g) == k and g <= fresh, comb(len(fresh), k))
        if p:
            rule[g] = p
    return rule


def _orbit_searchers():
    tables = {
        (5, 3, 2): {(1,): Fraction(1), (2,): Fraction(4, 7), (1, 1): Fraction(6, 7)},
        (6, 3, 2): {(1,): Fraction(1), (2,): Fraction(3, 7), (1, 1): Fraction(4, 7)},
        (7, 2, 3): {(1,): Fraction(1, 2)},
    }
    for (n, d, k), entries in tables.items():
        yield stay_table_searcher(GameConfig(n, d, k), StayTable(n, d, k, entries))
    yield scaled_searcher(GameConfig(9, 3, 2))
    yield scaled_searcher(GameConfig(12, 4, 1))
    yield mimic_searcher(GameConfig(6, 4, 1))
    yield fresh_doors_searcher(GameConfig(6, 3, 2, occupancy="single"))
    yield fresh_doors_searcher(GameConfig(7, 2, 3))
    yield fresh_doors_searcher(GameConfig(6, 2, 3, occupancy="single"))
    for n, d, k, occupancy in [(3, 3, 2, "multi"), (4, 2, 3, "multi"), (4, 3, 2, "single")]:
        yield sequence_form_value(GameConfig(n, d, k, occupancy=occupancy)).certificate.searcher_strategy


def test_guess_orbits_expand_to_the_rule_read_guess_by_guess():
    # On every reachable history of small games, each bundled door-symmetric
    # searcher's orbits expand to exactly its rule read guess by guess, with
    # masses summing to 1, and every pool is a union of the history's
    # relabeling cells, so each (parts, each) pair is a union of orbits of
    # the history's stabilizer. Lifted LP plans are also read off the plan,
    # on the histories it never reaches, where they guess uniformly.
    histories = 0
    for searcher in _orbit_searchers():
        assert searcher.door_symmetric and searcher.guess_orbits is not None
        n = searcher.config.n
        every_guess = isinstance(searcher, LiftedPlanStrategy)
        for history in _reachable_histories(searcher, every_guess):
            histories += 1
            starts = relabeling((0,) * n, history)[2]
            for parts, each in searcher.guess_orbits(history):
                assert each > 0
                pooled = [door for pool, _ in parts for door in pool]
                assert len(set(pooled)) == len(pooled)
                for pool, m in parts:
                    assert list(pool) == sorted(pool) and 0 <= m <= len(pool)
                    inside = {starts[door] for door in pool}
                    assert sum(starts.count(start) for start in inside) == len(pool)
            expanded = searcher.guess_distribution(history)
            assert sum(p for _, p in expanded) == 1
            assert len({g for g, _ in expanded}) == len(expanded)
            assert dict(expanded) == _rule_read_guess_by_guess(searcher, history), history
    assert histories > 1000
