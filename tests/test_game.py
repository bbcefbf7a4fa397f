from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treasurehunt.errors import NonMonotoneDiagramError
from treasurehunt.game import (
    GameConfig,
    LOST,
    ONGOING,
    WON,
    all_guesses,
    apply_guess,
    history_to_diagram,
    initial_state,
    is_legal_guess,
    replay,
    reveal_options,
    reveal_weights,
)


def test_config_validation():
    GameConfig(3, 2, 2)
    with pytest.raises(ValueError):
        GameConfig(3, 4, 2, occupancy="single")
    with pytest.raises(ValueError):
        GameConfig(3, 2, 4)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 2, reveal="psychic")


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


def test_history_to_diagram():
    h = ((frozenset({5}), 5), (frozenset({5}), 5), (frozenset({1}), 1))
    diagram, current = history_to_diagram(h)
    assert diagram == (2, 1) and current == 1

    single = ((frozenset({0, 2}), 0),)
    assert history_to_diagram(single) == ((1,), 0)

    foreign = ((frozenset({2}), 2), (frozenset({4}), 4), (frozenset({4}), 4))
    with pytest.raises(NonMonotoneDiagramError):
        history_to_diagram(foreign)


def test_legal_guess():
    cfg = GameConfig(4, 2, 2)
    assert is_legal_guess(cfg, {0})
    assert is_legal_guess(cfg, {0, 3})
    assert not is_legal_guess(cfg, set())
    assert not is_legal_guess(cfg, {0, 1, 2})
    assert not is_legal_guess(cfg, {4})


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
    permuted = initial_state(cfg, _apply(allocation, perm))
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
        assert permuted.remaining == _apply(state.remaining, perm)
        assert permuted.found == _apply(state.found, perm)
        assert permuted.status == state.status
        if state.status != ONGOING:
            break
    assert sum(state.remaining) + sum(state.found) == d


def _apply(counts, perm):
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i]] = c
    return tuple(out)


def test_replay_validates():
    cfg = GameConfig(4, 2, 2, occupancy="single")
    history = ((frozenset({0, 1}), 0), (frozenset({2, 3}), 2))
    assert replay(cfg, (1, 0, 1, 0), history).status == WON
    with pytest.raises(ValueError):
        replay(cfg, (1, 0, 1, 0), ((frozenset({0, 1, 2}), 0),))
