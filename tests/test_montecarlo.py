import os
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracle_utils import TabularSearcher, WithoutDoorSymmetry
from treasurehunt import montecarlo
from treasurehunt.combinatorics import SINGLE, enumerate_allocations
from treasurehunt.errors import AdversarialRevealError, DoorBudgetError, MissingDiagramError
from treasurehunt.game import CHANCE_REVEALS, GameConfig, chance_reveal
from treasurehunt.montecarlo import (
    CSV_HEADER,
    McReport,
    compare_to_exact,
    derive_seed,
    run_mc,
    run_mc_batched,
)
from treasurehunt.solver import evaluate_under_reveal, sequence_form_value
from treasurehunt.staytables import StayTable
from treasurehunt import strategies
from treasurehunt.strategies import (
    HiderStrategy,
    all_in_one_hider,
    fresh_doors_searcher,
    randbelow,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

F = Fraction


def test_reproducible_runs():
    cfg = GameConfig(4, 2, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    a = run_mc(cfg, searcher, hider, 5000, seed=99)
    b = run_mc(cfg, searcher, hider, 5000, seed=99)
    assert a == b
    c = run_mc(cfg, searcher, hider, 5000, seed=100)
    assert c.wins != a.wins  # different stream, almost surely


@pytest.mark.parametrize("seed", [-5, -1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # random.Random drops a seed's sign, so -5 would replay seed 5.
    cfg = GameConfig(9, 3, 2)
    with pytest.raises(ValueError, match="seed"):
        run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), 10, seed)


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 7])
def test_batched_root_seed_outside_64_bits_rejected(seed):
    # derive_seed masks to 64 bits, so -5 would replay the root seed 2**64 - 5.
    cfg = GameConfig(9, 3, 2)
    with pytest.raises(ValueError, match="seed"):
        run_mc_batched(cfg, scaled_searcher(cfg), uniform_hider(cfg), 2000, seed, 4)


@pytest.mark.parametrize("trials", [0, -3])
def test_batched_trials_below_one_rejected(trials, monkeypatch):
    # run_mc's ValueError, before any batch seed is derived.
    def no_derive(seed, index):
        raise AssertionError("derived a seed")

    monkeypatch.setattr(montecarlo, "derive_seed", no_derive)
    cfg = GameConfig(9, 3, 2)
    with pytest.raises(ValueError, match="trials must be positive"):
        run_mc_batched(cfg, scaled_searcher(cfg), uniform_hider(cfg), trials, 0, 4)


_NOT_INTS = [True, False, 2.5, 10.0, "10", None]


@pytest.mark.parametrize("value", _NOT_INTS, ids=repr)
@pytest.mark.parametrize("name", ["trials", "seed"])
def test_trials_and_seed_must_be_exact_ints(name, value):
    # trials=True would play one trial and report "trials": true, and a
    # float seed would run in run_mc but fail inside derive_seed's mask.
    cfg = GameConfig(4, 2, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    args = {"trials": 10, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_mc(cfg, searcher, hider, **args)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_mc_batched(cfg, searcher, hider, batches=2, **args)


@pytest.mark.parametrize("value", _NOT_INTS, ids=repr)
def test_batches_must_be_an_exact_int(value):
    # batches=True would run as one batch, and 2.5 or "2" raise TypeError.
    cfg = GameConfig(4, 2, 2)
    with pytest.raises(ValueError, match="batches must be an integer"):
        run_mc_batched(cfg, scaled_searcher(cfg), uniform_hider(cfg), 10, 0, value)


@pytest.mark.parametrize("value", _NOT_INTS, ids=repr)
@pytest.mark.parametrize("name", ["trials", "wins", "seed"])
def test_report_counts_and_seed_must_be_exact_ints(name, value):
    args = {"trials": 10, "wins": 1, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        McReport(GameConfig(4, 2, 2), "a", "b", **args)


def test_hider_table_is_built_once_at_construction(monkeypatch):
    # run_mc, every batch of run_mc_batched and the cursor read the table
    # the constructor built; none of them builds another.
    cfg = GameConfig(9, 3, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    assert hider.table == strategies.draw_table(hider.distribution)
    expected = run_mc_batched(cfg, searcher, hider, 200, 5, batches=4).wins

    def no_build(distribution):
        raise AssertionError("built a draw table for the hider again")

    monkeypatch.setattr(strategies, "draw_table", no_build)
    assert run_mc_batched(cfg, searcher, hider, 200, 5, batches=4).wins == expected
    assert hider.sampler(random.Random(1)).sample() in dict(hider.distribution)


def test_seed_range_ends_accepted():
    cfg = GameConfig(4, 2, 2)
    for seed in (0, 2**64 - 1):
        assert run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), 10, seed).seed == seed
        assert run_mc_batched(cfg, scaled_searcher(cfg), uniform_hider(cfg), 10, seed, 2).seed == seed


def test_adversarial_rejected():
    cfg = GameConfig(4, 2, 2, reveal="adversarial")
    with pytest.raises(AdversarialRevealError):
        run_mc(cfg, scaled_searcher(GameConfig(4, 2, 2)), uniform_hider(cfg), 10, 1)


def test_single_trial_concentrated_hider():
    cfg = GameConfig(4, 2, 2)
    hider = HiderStrategy(cfg, (((2, 0, 0, 0), F(1)),))
    report = run_mc(cfg, scaled_searcher(cfg), hider, 1, seed=5)
    assert report.wins in (0, 1) and report.trials == 1


def test_merge_is_addition():
    cfg = GameConfig(4, 2, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    a = run_mc(cfg, searcher, hider, 3000, seed=derive_seed(7, 0))
    b = run_mc(cfg, searcher, hider, 3000, seed=derive_seed(7, 1))
    batched = run_mc_batched(cfg, searcher, hider, 6000, seed=7, batches=2)
    assert batched.wins == a.wins + b.wins
    assert batched.seed == 7


def test_report_without_trials_rejected():
    # Else estimate, stderr and to_json would each divide by zero.
    with pytest.raises(ValueError, match="trials must be positive"):
        McReport(GameConfig(4, 2, 2), "a", "b", 0, 0, 0)


def test_compare_to_exact_examples():
    cfg = GameConfig(9, 3, 2)
    near = McReport(cfg, "s", "h", trials=10**6, wins=48500, seed=0)
    assert compare_to_exact(near, F(8, 165)).passed
    far = McReport(cfg, "s", "h", trials=10**6, wins=100000, seed=0)
    assert not compare_to_exact(far, F(8, 165)).passed
    spot = McReport(cfg, "s", "h", trials=1000, wins=250, seed=0)
    check = compare_to_exact(spot, F(1, 4))
    assert check.z_score == 0.0 and check.passed
    with pytest.raises(ValueError):
        compare_to_exact(McReport(cfg, "s", "h", trials=50, wins=10, seed=0), F(1, 5))


def test_estimates_track_exact_values():
    cfg = GameConfig(4, 2, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    report = run_mc(cfg, searcher, hider, 40000, seed=20260808)
    assert compare_to_exact(report, F(2, 5)).passed


def test_reveal_rules_agree_for_equalizing_strategies():
    # The table strategies win or lose identically under every reveal rule,
    # so estimates and exact values line up rule by rule.
    from treasurehunt.solver import counting_upper_bound
    from treasurehunt.strategies import mimic_searcher

    cases = [
        ((4, 2, 2), scaled_searcher),
        ((6, 3, 1), mimic_searcher),
    ]
    for (n, d, k), make in cases:
        expected = counting_upper_bound(GameConfig(n, d, k))
        reports = []
        for rule in ("lowest-index", "uniform-doors", "uniform-treasures"):
            cfg = GameConfig(n, d, k, reveal=rule)
            searcher, hider = make(cfg), uniform_hider(cfg)
            exact = sum(
                p * evaluate_under_reveal(cfg, searcher, a, rule)
                for a, p in hider.distribution
            )
            assert exact == expected
            report = run_mc(cfg, searcher, hider, 30000, seed=11)
            assert compare_to_exact(report, expected).passed
            reports.append(report)
        for a in reports:
            for b in reports:
                spread = abs(a.wins / a.trials - b.wins / b.trials)
                assert spread <= 4 * (a.stderr**2 + b.stderr**2) ** 0.5


def test_csv_row_matches_header():
    cfg = GameConfig(4, 2, 2)
    report = run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), 500, seed=3)
    row = report.csv_row()
    assert len(row) == len(CSV_HEADER)
    assert row[:5] == [4, 2, 2, "multi", "lowest-index"]
    assert row[7] == 500 and row[8] == report.wins


def test_derive_seed_spread():
    seeds = {derive_seed(123, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def test_strategies_built_for_another_game_rejected():
    cfg = GameConfig(9, 3, 2)
    with pytest.raises(ValueError, match="searcher"):
        run_mc(cfg, scaled_searcher(GameConfig(10, 3, 2)), uniform_hider(cfg), 10, 1)
    # A searcher for nine doors in a twelve-door game would never open 9-11.
    wide = GameConfig(12, 3, 2)
    with pytest.raises(ValueError, match="searcher"):
        run_mc(wide, scaled_searcher(cfg), uniform_hider(wide), 10, 1)
    with pytest.raises(ValueError, match="hider"):
        run_mc(wide, scaled_searcher(wide), uniform_hider(cfg), 10, 1)
    single = GameConfig(6, 3, 2, occupancy=SINGLE)
    with pytest.raises(ValueError, match="searcher"):
        run_mc(single, fresh_doors_searcher(GameConfig(6, 3, 2)), uniform_hider(single), 10, 1)


@pytest.mark.parametrize(
    "doors", [(0, 1, 2, 3), (4,), (-1,), ()], ids=["all-doors", "door-n", "door-minus-1", "empty-guess"]
)
def test_table_path_rejects_an_illegal_guess(doors):
    # Played unchecked, the all-doors guess at k = 1 would win every trial,
    # door 4 would raise IndexError, and door -1 would read door 3's count.
    cfg = GameConfig(4, 2, 1)
    searcher = TabularSearcher(cfg, {(): ((frozenset(doors), F(1)),)})
    with pytest.raises(ValueError, match="illegal guess"):
        run_mc(cfg, searcher, uniform_hider(cfg), 100, seed=0)


def test_inline_play_checks_its_rule():
    cfg = GameConfig(3, 2, 2)
    hider = HiderStrategy(cfg, (((1, 1, 0), F(1)),))
    # Two fresh doors per round cannot last two rounds behind three doors.
    short = SimpleNamespace(config=cfg, name="short", fresh_door_stays={})
    with pytest.raises(DoorBudgetError):
        run_mc(cfg, short, hider, 100, seed=1)
    cfg = GameConfig(6, 3, 2)
    hider = HiderStrategy(cfg, (((2, 1, 0, 0, 0, 0), F(1)),))
    gappy = SimpleNamespace(config=cfg, name="gappy", fresh_door_stays={(1,): F(1)})
    with pytest.raises(MissingDiagramError):
        run_mc(cfg, gappy, hider, 100, seed=1)


# Stays 1, 3/7 and 4/7: a coin that is neither certain nor one half.
CUSTOM_TABLE = StayTable(6, 3, 2, {(1,): F(1), (2,): F(3, 7), (1, 1): F(4, 7)})
POINT_MASS_CASES = [
    ("fresh-single-6-3-2", GameConfig(6, 3, 2, occupancy=SINGLE), fresh_doors_searcher),
    ("fresh-multi-4-2-2", GameConfig(4, 2, 2), fresh_doors_searcher),
    ("scaled-9-3-2", GameConfig(9, 3, 2), scaled_searcher),
    ("custom-6-3-2", GameConfig(6, 3, 2), lambda cfg: stay_table_searcher(cfg, CUSTOM_TABLE)),
]
# The cursor path builds each history's draw table once per run_mc call,
# which short runs barely repay, so it plays fewer trials.
POINT_MASS_TRIALS = {"inline": 400, "cursor": 100}


@pytest.mark.parametrize("path", ["inline", "cursor"])
@pytest.mark.parametrize("name, base, make", POINT_MASS_CASES, ids=[c[0] for c in POINT_MASS_CASES])
def test_point_mass_runs_match_exact_values(name, base, make, path):
    # One point-mass hider per allocation, so every reachable stay coin,
    # fresh-door draw and chance reveal is weighed against the exact value.
    # A certain outcome must repeat in every trial. The other allocations are
    # pooled by shape, since the searchers are door-symmetric. Pooling all
    # allocations would hide a wrong stay coin: the table searchers attain
    # the counting bound against the uniform mix whatever their stays.
    trials = POINT_MASS_TRIALS[path]
    for rule in CHANCE_REVEALS:
        cfg = replace(base, reveal=rule)
        searcher = make(cfg)
        played = searcher if path == "inline" else WithoutDoorSymmetry(searcher)
        assert (getattr(played, "fresh_door_stays", None) is None) == (path == "cursor")
        memo: dict = {}
        shapes: dict = {}
        allocations = enumerate_allocations(cfg.n, cfg.d, cfg.occupancy)
        for index, allocation in enumerate(allocations):
            exact = evaluate_under_reveal(cfg, searcher, allocation, rule, _memo=memo)
            hider = HiderStrategy(cfg, ((allocation, F(1)),))
            wins = run_mc(cfg, played, hider, trials, seed=derive_seed(2026, index)).wins
            if exact in (0, 1):
                assert wins == exact * trials, (rule, allocation, wins, exact)
            pooled = shapes.setdefault(tuple(sorted(allocation)), [0, 0.0, 0.0])
            pooled[0] += wins
            pooled[1] += trials * float(exact)
            pooled[2] += trials * float(exact * (1 - exact))
        for shape, (wins, mean, variance) in shapes.items():
            if variance:
                z = (wins - mean) / variance**0.5
                assert abs(z) <= 4, (rule, shape, wins, mean, z)


def test_table_path_wins_pinned_where_tables_have_power_of_two_denominators():
    # Most third-round tables of the (6,3,2) lifted LP plan split between
    # two guesses; randbelow draws below 2 from one bit, not from two bits
    # with half of them rejected, so these wins pin that width.
    plan = sequence_form_value(GameConfig(6, 3, 2)).certificate.searcher_strategy
    for rule, wins in zip(CHANCE_REVEALS, (418, 421, 410)):
        cfg = GameConfig(6, 3, 2, reveal=rule)
        assert run_mc(cfg, plan, uniform_hider(cfg), 3000, seed=2026).wins == wins, rule


class _RecordingSearcher(WithoutDoorSymmetry):
    """Records every history whose guess distribution is asked for."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = []

    def guess_distribution(self, history):
        self.asked.append(history)
        return super().guess_distribution(history)


def _cursor_wins(cfg, searcher, hider, trials, seed):
    """Wins of run_mc's loop with one ``sampler(rng)`` cursor per trial."""
    rng = random.Random(seed)
    sample = hider.sampler(rng).sample
    wins = 0
    for _ in range(trials):
        remaining = list(sample())
        cursor = searcher.sampler(rng)
        for _ in range(cfg.d):
            guess = cursor.next_guess()
            options = sorted(o for o in guess if remaining[o])
            if not options:
                break
            doors, weights = chance_reveal(remaining, options, cfg.reveal)
            door = doors[0]
            if len(doors) > 1:
                r = randbelow(rng.getrandbits, sum(weights))
                for door, weight in zip(doors, weights):
                    r -= weight
                    if r < 0:
                        break
            remaining[door] -= 1
            cursor.observe(guess, door)
        else:
            wins += 1
    return wins


def test_distribution_path_draws_like_a_cursor_and_asks_once_per_history():
    # run_mc builds each history's draw table once per call and shares it
    # across trials; the draws stay those of a per-trial cursor.
    for rule in CHANCE_REVEALS:
        cfg = GameConfig(6, 3, 2, reveal=rule)
        searcher = _RecordingSearcher(stay_table_searcher(cfg, CUSTOM_TABLE))
        hider = uniform_hider(cfg)
        report = run_mc(cfg, searcher, hider, 2000, seed=31)
        assert len(searcher.asked) == len(set(searcher.asked)) < 2000
        assert report.wins == _cursor_wins(cfg, searcher, hider, 2000, seed=31)


# Stays strictly between 0 and 1 on every diagram, so every stay coin draws.
FRACTIONAL_TABLE = StayTable(6, 3, 2, {(1,): F(1, 3), (2,): F(3, 7), (1, 1): F(4, 7)})


def _skewed_hider(cfg):
    """A non-uniform hider: draws go through the running-sum search."""
    return HiderStrategy(cfg, (
        ((1, 1, 1, 0, 0, 0), F(1, 2)),
        ((2, 0, 0, 0, 0, 1), F(1, 3)),
        ((0, 0, 0, 0, 3, 0), F(1, 6)),
    ))


def _fractional(cfg):
    return stay_table_searcher(cfg, FRACTIONAL_TABLE)


# name: (game, searcher, hider, batches or None, wins per rule in CHANCE_REVEALS
# order at 3000 trials and seed 2026). The wins pin the random stream: a change
# to how run_mc draws, however exact, shows here.
STREAM_PINS = {
    "scaled-9-3-2-uniform": (GameConfig(9, 3, 2), scaled_searcher, uniform_hider, None, (153, 154, 154)),
    "scaled-20-4-2-uniform": (GameConfig(20, 4, 2), scaled_searcher, uniform_hider, None, (11, 11, 10)),
    "fresh-single-6-3-2-uniform": (
        GameConfig(6, 3, 2, occupancy=SINGLE), fresh_doors_searcher, uniform_hider, None, (1189, 1189, 1176)),
    "fresh-multi-7-2-3-uniform": (GameConfig(7, 2, 3), fresh_doors_searcher, uniform_hider, None, (956, 956, 977)),
    "fractional-6-3-2-uniform": (GameConfig(6, 3, 2), _fractional, uniform_hider, None, (413, 404, 407)),
    "fractional-6-3-2-skewed": (GameConfig(6, 3, 2), _fractional, _skewed_hider, None, (505, 503, 486)),
    "scaled-4-2-2-all-in-one": (GameConfig(4, 2, 2), scaled_searcher, all_in_one_hider, None, (1215, 1215, 1215)),
    "table-path-scaled-9-3-2-uniform": (
        GameConfig(9, 3, 2), lambda cfg: WithoutDoorSymmetry(scaled_searcher(cfg)), uniform_hider, None,
        (132, 131, 134)),
    "batched-scaled-9-3-2-uniform": (GameConfig(9, 3, 2), scaled_searcher, uniform_hider, 3, (143, 142, 139)),
}


@pytest.mark.parametrize("name", list(STREAM_PINS))
def test_wins_pinned_at_fixed_seeds(name):
    base, make_searcher, make_hider, batches, pinned = STREAM_PINS[name]
    for rule, wins in zip(CHANCE_REVEALS, pinned):
        cfg = replace(base, reveal=rule)
        searcher, hider = make_searcher(cfg), make_hider(cfg)
        if batches is None:
            report = run_mc(cfg, searcher, hider, 3000, seed=2026)
        else:
            report = run_mc_batched(cfg, searcher, hider, 3000, seed=2026, batches=batches)
        assert report.wins == wins, (rule, report.wins)


# Wins at 25,000 trials and seed 2026 per rule in CHANCE_REVEALS order: three
# blocks, which read the streams of 2026, derive_seed(2026, 1) and
# derive_seed(2026, 2) and play 10,000, 10,000 and 5,000 trials.
BLOCKED_STREAM_PINS = {
    "scaled-9-3-2-uniform": (1175, 1186, 1162),
    "fresh-single-6-3-2-uniform": (9908, 9908, 9854),
}
BLOCKED_TRIALS = 25_000


@pytest.mark.parametrize("name", list(BLOCKED_STREAM_PINS))
def test_blocked_wins_pinned_at_a_fixed_seed(name):
    base, make_searcher, make_hider, _, _ = STREAM_PINS[name]
    for rule, wins in zip(CHANCE_REVEALS, BLOCKED_STREAM_PINS[name]):
        cfg = replace(base, reveal=rule)
        searcher, hider = make_searcher(cfg), make_hider(cfg)
        assert run_mc(cfg, searcher, hider, BLOCKED_TRIALS, seed=2026).wins == wins, rule
        # Each block is a run of its own at its block seed.
        blocks = zip((2026, derive_seed(2026, 1), derive_seed(2026, 2)), (10_000, 10_000, 5_000))
        assert sum(run_mc(cfg, searcher, hider, size, seed).wins for seed, size in blocks) == wins


def test_blocks_played_in_one_process_share_the_draw_tables(monkeypatch):
    monkeypatch.delattr(os, "fork")
    cfg = GameConfig(6, 3, 2)
    searcher = _RecordingSearcher(stay_table_searcher(cfg, CUSTOM_TABLE))
    run_mc(cfg, searcher, uniform_hider(cfg), BLOCKED_TRIALS, seed=31)
    assert len(searcher.asked) == len(set(searcher.asked))


def _fake_cpus(monkeypatch, cpus):
    """Make os.sched_getaffinity report ``cpus`` usable CPUs (at most 3)."""
    assert cpus <= 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_forks(monkeypatch):
    """Wrap os.fork; the list it returns grows by each child's pid."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (name, searcher, batches or None); three batches of 25,000 trials are
# three runs of one block each.
CORE_CASES = [
    ("stay-rule", scaled_searcher, None),
    ("draw-table", lambda cfg: WithoutDoorSymmetry(scaled_searcher(cfg)), None),
    ("batched", scaled_searcher, 3),
]


@pytest.mark.parametrize("name, make, batches", CORE_CASES, ids=[c[0] for c in CORE_CASES])
def test_wins_do_not_depend_on_cores(name, make, batches, monkeypatch):
    cfg = GameConfig(9, 3, 2, reveal="uniform-doors")
    searcher, hider = make(cfg), uniform_hider(cfg)

    def run():
        if batches is None:
            return run_mc(cfg, searcher, hider, BLOCKED_TRIALS, seed=2026).wins
        return run_mc_batched(cfg, searcher, hider, BLOCKED_TRIALS, seed=2026, batches=batches).wins

    wins = {}
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            _fake_cpus(patch, cpus)
            forks = _count_forks(patch)
            wins[cpus] = run()
            assert len(forks) == cpus - 1, cpus
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        wins["no fork"] = run()
    assert len(set(wins.values())) == 1, wins
    _assert_no_child_left()


@pytest.mark.parametrize("trials", [1, 3000, 10_000])
def test_runs_of_one_block_never_fork(trials, monkeypatch):
    cfg = GameConfig(9, 3, 2)
    _fake_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), trials, seed=2026)
    assert forks == []


def test_a_second_thread_keeps_play_serial(monkeypatch):
    cfg = GameConfig(9, 3, 2)
    _fake_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(montecarlo.threading, "active_count", lambda: 2)
    run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), BLOCKED_TRIALS, seed=2026)
    assert forks == []


def test_a_fork_that_raises_leaves_its_share_to_the_caller(monkeypatch):
    cfg = GameConfig(9, 3, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    expected = BLOCKED_STREAM_PINS["scaled-9-3-2-uniform"][CHANCE_REVEALS.index(cfg.reveal)]
    _fake_cpus(monkeypatch, 3)

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_mc(cfg, searcher, hider, BLOCKED_TRIALS, seed=2026).wins == expected
    _assert_no_child_left()


def _failing_at(size, play):
    """``play`` that raises DoorBudgetError for a block of ``size`` trials."""

    def failing(config, searcher, hider_draw, trials, rng):
        if trials == size:
            raise DoorBudgetError(f"no doors for a block of {trials} trials")
        return play(config, searcher, hider_draw, trials, rng)

    return failing


# (trials, usable CPUs, size of the block that fails): at 15,000 trials on two
# CPUs the child plays the 5,000-trial block and the caller the first one; at
# 25,000 on three CPUs the second child plays the last block.
FAILURE_CASES = [
    ("child", 15_000, 2, 5_000),
    ("caller", 15_000, 2, 10_000),
    ("second-child", 25_000, 3, 5_000),
]


@pytest.mark.parametrize("name, trials, cpus, size", FAILURE_CASES, ids=[c[0] for c in FAILURE_CASES])
def test_a_failed_share_raises_the_serial_error(name, trials, cpus, size, monkeypatch):
    cfg = GameConfig(9, 3, 2)
    searcher, hider = scaled_searcher(cfg), uniform_hider(cfg)
    monkeypatch.setattr(montecarlo, "_play_stays", _failing_at(size, montecarlo._play_stays))
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        with pytest.raises(DoorBudgetError) as serial:
            run_mc(cfg, searcher, hider, trials, seed=2026)
    _fake_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    with pytest.raises(DoorBudgetError) as forked:
        run_mc(cfg, searcher, hider, trials, seed=2026)
    assert len(forks) == cpus - 1
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    _assert_no_child_left()
