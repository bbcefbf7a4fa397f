import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import (
    LOST,
    ONGOING,
    WON,
    all_guesses,
    apply_counts,
    apply_events,
    apply_guess,
    brute_canonical_form,
    brute_stabilizer,
    initial_state,
    is_legal_guess,
    replay,
    reveal_options,
    reveal_weights,
)
from treasurehunt.combinatorics import enumerate_allocations
from treasurehunt.game import (
    GameConfig,
    check_guess,
    discovery_counts,
    every_guess,
    orbit_key,
    orbit_representatives,
    refine,
    relabeling,
    split_cells,
    stabilizer_size,
)
from treasurehunt.strategies import scaled_searcher


def test_config_validation():
    GameConfig(3, 2, 2)
    with pytest.raises(ValueError):
        GameConfig(3, 4, 2, occupancy="single")
    with pytest.raises(ValueError):
        GameConfig(3, 2, 4)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 2, reveal="psychic")


def test_config_sizes_are_exact_ints():
    # A float size used to construct and fail later, inside closed forms.
    for sizes in ((4.0, 2, 2), (4, 2.0, 2), (4, 2, 2.0), (4, True, 2), (True, 1, 1), ("4", 2, 2)):
        with pytest.raises(ValueError, match="must be int"):
            GameConfig(*sizes)


def test_allocations_hold_integer_counts():
    cfg = GameConfig(4, 3, 2)
    assert cfg.is_valid_allocation((2, 1, 0, 0))
    for counts in ((1.5, 1.5, 0, 0), (True, True, True, 0), (2.0, 1, 0, 0), ("3", 0, 0, 0)):
        assert not cfg.is_valid_allocation(counts)


def test_initial_state():
    cfg = GameConfig(3, 3, 2)
    state = initial_state(cfg, (2, 1, 0))
    assert state.remaining == (2, 1, 0) and state.round == 0 and state.status == ONGOING
    single = GameConfig(3, 2, 2, occupancy="single")
    assert initial_state(single, (1, 1, 0)).status == ONGOING
    with pytest.raises(ValueError):
        initial_state(single, (2, 1, 0))


def test_reveal_options():
    cfg = GameConfig(3, 3, 2)
    state = initial_state(cfg, (2, 1, 0))
    assert reveal_options(state, {0, 2}) == {0}
    assert reveal_options(state, {0, 1}) == {0, 1}
    state2 = initial_state(GameConfig(3, 1, 2), (0, 0, 1))
    assert reveal_options(state2, {0, 1}) == frozenset()


def test_reveal_weights():
    cfg = GameConfig(3, 3, 2)
    state = initial_state(cfg, (2, 1, 0))
    assert reveal_weights(state, {0, 1}, "lowest-index") == [(0, Fraction(1))]
    assert reveal_weights(state, {0, 1}, "uniform-doors") == [
        (0, Fraction(1, 2)), (1, Fraction(1, 2)),
    ]
    assert reveal_weights(state, {0, 1}, "uniform-treasures") == [
        (0, Fraction(2, 3)), (1, Fraction(1, 3)),
    ]
    with pytest.raises(ValueError):
        reveal_weights(state, {0, 1}, "adversarial")
    # One candidate door is forced under every rule, adversarial included.
    assert reveal_weights(state, {0, 2}, "adversarial") == [(0, Fraction(1))]


def test_all_guesses_order():
    # The LP's columns follow this order: sizes 1 to k, lexicographic within a size.
    assert all_guesses(GameConfig(3, 1, 2)) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert len(all_guesses(GameConfig(5, 2, 3))) == 5 + 10 + 10


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (5, 3), (7, 3)])
def test_every_guess_with_every_door_alone_is_all_guesses(n, k):
    # The best response's full loop: with each door a cell of its own, every
    # guess is an orbit of its own, so each one comes out once, at mass 1.
    cfg = GameConfig(n, 1, k)
    reps = list(orbit_representatives(every_guess(cfg), range(n)))
    assert sorted(guess for guess, _ in reps) == sorted(all_guesses(cfg))
    assert {mass for _, mass in reps} == {1}


def test_apply_guess_round_trip():
    cfg = GameConfig(3, 3, 2)
    state = initial_state(cfg, (2, 1, 0))
    state = apply_guess(state, {0, 2}, 0)
    assert state.remaining == (1, 1, 0) and state.found == (1, 0, 0)
    assert state.discovery_order == (0,) and state.status == ONGOING
    state = apply_guess(state, {0, 1}, 1)
    state = apply_guess(state, {0, 1}, 0)
    assert state.status == WON and state.round == 3


def test_apply_guess_loss_and_errors():
    cfg = GameConfig(3, 1, 2)
    state = initial_state(cfg, (0, 0, 1))
    lost = apply_guess(state, {0, 1}, None)
    assert lost.status == LOST
    with pytest.raises(ValueError):
        apply_guess(state, {0, 1}, 0)  # nothing to reveal at door 0
    with pytest.raises(ValueError):
        apply_guess(state, {2}, None)  # a reveal is forced
    won = apply_guess(state, {2}, 2)
    assert won.status == WON


def test_win_requires_exactly_d_reveals():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    state = initial_state(cfg, (1, 1, 0, 0))
    state = apply_guess(state, {0, 2}, 0)
    assert state.status == ONGOING
    state = apply_guess(state, {1, 3}, 1)
    assert state.status == WON and state.round == cfg.d


def test_discovery_counts():
    h = ((frozenset({5}), 5), (frozenset({5}), 5), (frozenset({1}), 1))
    assert discovery_counts(h) == (2, 1)


def test_legal_guess():
    cfg = GameConfig(4, 2, 2)
    assert is_legal_guess(cfg, {0})
    assert is_legal_guess(cfg, {0, 3})
    assert not is_legal_guess(cfg, set())
    assert not is_legal_guess(cfg, {0, 1, 2})
    assert not is_legal_guess(cfg, {4})


def test_check_guess_agrees_with_the_rules_engine():
    cfg = GameConfig(4, 2, 2)
    for size in range(4):
        for guess in combinations(range(-1, 6), size):
            if is_legal_guess(cfg, guess):
                check_guess(cfg, frozenset(guess), ())
            else:
                with pytest.raises(ValueError, match=r"illegal guess \[.*\] at history \(\)"):
                    check_guess(cfg, frozenset(guess), ())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_door_relabeling_equivariance(data):
    n = data.draw(st.integers(2, 5))
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, n))
    cfg = GameConfig(n, d, k)
    allocation = tuple(
        data.draw(
            st.lists(st.integers(0, d), min_size=n, max_size=n).filter(
                lambda xs: sum(xs) == d
            )
        )
    )
    perm = tuple(data.draw(st.permutations(range(n))))
    state = initial_state(cfg, allocation)
    permuted = initial_state(cfg, apply_counts(allocation, perm))
    for _ in range(d):
        doors = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=k)
        )
        options = reveal_options(state, doors)
        mapped = frozenset(perm[x] for x in doors)
        assert reveal_options(permuted, mapped) == frozenset(perm[o] for o in options)
        if not options:
            state = apply_guess(state, doors, None)
            permuted = apply_guess(permuted, mapped, None)
            break
        choice = data.draw(st.sampled_from(sorted(options)))
        state = apply_guess(state, doors, choice)
        permuted = apply_guess(permuted, mapped, perm[choice])
        assert permuted.remaining == apply_counts(state.remaining, perm)
        assert permuted.found == apply_counts(state.found, perm)
        assert permuted.status == state.status
        if state.status != ONGOING:
            break
    assert sum(state.remaining) + sum(state.found) == d


def test_replay_validates():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    history = ((frozenset({0, 1}), 0), (frozenset({2, 3}), 2))
    assert replay(cfg, (1, 0, 1, 0), history).status == WON
    with pytest.raises(ValueError):
        replay(cfg, (1, 0, 1, 0), ((frozenset({0, 1, 2}), 0),))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_relabeling_matches_brute_force(data):
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        counts = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    else:
        counts = (0,) * n  # the form of a history alone
    rounds = data.draw(st.integers(0, 3))
    events = []
    for r in range(rounds):
        doors = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
        reveals = list(doors) + ([-1] if r == rounds - 1 else [])  # -1: a pending guess
        events.append((doors, data.draw(st.sampled_from(reveals))))
    events = tuple(events)

    form, sigma, starts = relabeling(counts, events)
    best, minimizers, _ = brute_canonical_form(counts, events)
    assert form == best
    assert relabeling(counts, tuple((frozenset(g), o) for g, o in events))[0] == best
    assert (apply_counts(counts, sigma), apply_events(events, sigma)) == form
    assert stabilizer_size(starts) == minimizers

    # A door's cell start is the first label of its orbit under the form's
    # stabilizer, and one split_cells step from the parent's starts gives
    # them, a pending last guess included.
    stabilizer = brute_stabilizer(*form)
    first = [min(p[label] for p in stabilizer) for label in range(n)]
    assert tuple(first[sigma[door]] for door in range(n)) == starts
    if events:
        assert split_cells(relabeling(counts, events[:-1])[2], *events[-1]) == starts

    # The orbit of a door set on the form: its key is the smallest image,
    # and the build's orbit size (the door sets of its size that share the
    # key) is the number of images.
    doors = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    images = {tuple(sorted(p[x] for x in doors)) for p in stabilizer}
    starts = tuple(first)
    key = orbit_key(starts, doors)
    assert key == min(images)
    same_size = combinations(range(n), len(doors))
    assert sum(orbit_key(starts, other) == key for other in same_size) == len(images)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refine_matches_relabeling_and_brute_force(data):
    # One refinement step from a parent's canonical form gives the child's:
    # the evaluator's memo key for a child position.
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        counts = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    else:
        counts = (0,) * n
    events = []
    for _ in range(data.draw(st.integers(0, 2))):
        doors = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        events.append((doors, data.draw(st.sampled_from(sorted(doors)))))
    doors = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    revealed = data.draw(st.sampled_from(sorted(doors)))
    events = tuple(events)
    child = events + ((doors, revealed),)

    form, _, starts = relabeling(counts, events)
    step = refine(form, starts, doors, revealed)
    assert (step, split_cells(starts, doors, revealed)) == relabeling(counts, child)[::2]
    assert step == brute_canonical_form(counts, tuple((tuple(sorted(g)), o) for g, o in child))[0]


def _starts(counts, events):
    starts = relabeling(counts, events)[2]
    return starts, len(set(starts))


def test_orbit_representatives_cover_each_stabilizer_orbit_once():
    # A searcher's orbits: grouping its expanded guesses by their orbit under
    # the position's stabilizer (orbit_key on its starts) gives the
    # representatives' orbits and masses, with every representative a
    # member of its own orbit.
    cfg = GameConfig(15, 3, 3)
    searcher = scaled_searcher(cfg)
    rng = random.Random(3)
    positions = 0
    for allocation in rng.sample(enumerate_allocations(15, 3, "multi"), 40):
        history = ()
        remaining = list(allocation)
        for _ in range(cfg.d - 1):
            starts, _ = _starts(allocation, history)
            grouped: dict = {}
            for guess, p in searcher.guess_distribution(history):
                key = orbit_key(starts, guess)
                grouped[key] = grouped.get(key, 0) + p
            reps = list(orbit_representatives(searcher.guess_orbits(history), starts))
            assert {orbit_key(starts, g): mass for g, mass in reps} == grouped
            assert len(reps) == len(grouped)
            positions += 1
            live = [g for g, _ in searcher.guess_distribution(history) if any(remaining[o] for o in g)]
            if not live:
                break
            guess = rng.choice(live)
            o = rng.choice([o for o in sorted(guess) if remaining[o]])
            remaining[o] -= 1
            history += ((guess, o),)
    assert positions > 60


@pytest.mark.parametrize("n,d,k", [(6, 3, 3), (8, 3, 2), (7, 4, 3)])
def test_orbit_representatives_of_all_guesses_follow_all_guesses(n, d, k):
    # The LP build's expansion: one pool of all doors for each guess size
    # 1..k. Sorted by (size, lexicographic), the representatives and orbit
    # sizes are all_guesses grouped by orbit_key, each orbit named by its
    # first member, in first-appearance order. On a canonical form (of a
    # position, or of a history alone) a representative is its own key.
    cfg = GameConfig(n, d, k)
    rng = random.Random(n * 100 + d * 10 + k)
    positions = [(allocation, (), False) for allocation in enumerate_allocations(n, d, "multi")]
    for allocation in rng.sample(enumerate_allocations(n, d, "multi"), 30):
        remaining = list(allocation)
        events = []
        for _ in range(d - 1):
            guess = rng.choice(all_guesses(cfg))
            live = [o for o in guess if remaining[o]]
            if not live:
                break
            o = rng.choice(live)
            remaining[o] -= 1
            events.append((guess, o))
            positions.append((*relabeling(allocation, events)[0], True))
            positions.append((*relabeling((0,) * n, events)[0], True))
    most_cells = 0
    for counts, events, canonical in positions:
        starts, cells = _starts(counts, events)
        most_cells = max(most_cells, cells)
        grouped: dict = {}
        for g in all_guesses(cfg):
            first, size = grouped.get(orbit_key(starts, g), (g, 0))
            grouped[orbit_key(starts, g)] = (first, size + 1)
        reps = sorted(orbit_representatives(every_guess(cfg), starts), key=lambda rep: (len(rep[0]), rep[0]))
        assert reps == list(grouped.values())
        if canonical:
            assert all(orbit_key(starts, g) == g for g, _ in reps)
    assert most_cells >= 5
