from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import recursive_allocations

from treasurehunt.combinatorics import (
    MULTI,
    SINGLE,
    allocation_shape,
    count_allocations,
    enumerate_allocations,
    enumerate_partitions,
    is_partition,
    partition_weight,
    shape_representatives,
)
from treasurehunt.game import relabeling


def test_count_allocations():
    assert count_allocations(4, 2, SINGLE) == 6
    assert count_allocations(3, 3, MULTI) == 10
    assert count_allocations(5, 0, MULTI) == 1
    assert count_allocations(6, 3, MULTI) == 56
    assert count_allocations(2, 3, SINGLE) == 0


def test_enumerate_allocations_examples():
    assert enumerate_allocations(2, 2, MULTI) == [(0, 2), (1, 1), (2, 0)]
    singles = enumerate_allocations(3, 2, SINGLE)
    assert singles == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert len(enumerate_allocations(6, 3, MULTI)) == 56


def test_enumeration_is_lexicographic_and_duplicate_free():
    for n in range(1, 6):
        for d in range(0, 5):
            for occ in (SINGLE, MULTI):
                if occ == SINGLE and d > n:
                    continue
                allocations = enumerate_allocations(n, d, occ)
                assert len(allocations) == count_allocations(n, d, occ)
                assert all(a < b for a, b in zip(allocations, allocations[1:]))
                assert all(sum(a) == d for a in allocations)


def test_enumeration_matches_the_recursive_reference_in_order():
    for n in range(1, 9):
        for d in range(0, 6):
            for occ in (SINGLE, MULTI):
                # Includes d = 0 (one empty allocation) and single d > n (none).
                assert enumerate_allocations(n, d, occ) == recursive_allocations(n, d, occ), (n, d, occ)


def test_bool_parts_are_not_a_partition():
    assert is_partition((1,)) and is_partition((2, 1))
    for parts in ((True,), (2, True), (1.0,), (2, 1.0)):
        assert not is_partition(parts)


def test_enumerate_partitions():
    assert enumerate_partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert enumerate_partitions(3, 1) == [(3,)]
    # p(4) = 5
    assert len(enumerate_partitions(4, 4)) == 5
    assert all(is_partition(p) for p in enumerate_partitions(6, 6))


def test_partition_weight_values():
    assert partition_weight((1, 1, 1), 6) == 20
    with pytest.raises(ValueError):
        partition_weight((1, 2), 4)
    with pytest.raises(ValueError):
        partition_weight((1, 1, 1), 2)


def test_partition_weight_matches_brute_force():
    # Count allocations of each shape directly over all 56 allocations.
    counts: dict = {}
    for allocation in enumerate_allocations(6, 3, MULTI):
        shape = allocation_shape(allocation)
        counts[shape] = counts.get(shape, 0) + 1
    assert counts[(2, 1)] == 30
    assert counts[(3,)] == 6
    for shape, count in counts.items():
        assert partition_weight(shape, 6) == count


def test_weights_partition_the_allocation_count():
    for n in range(1, 9):
        for d in range(1, 6):
            total = sum(
                partition_weight(pi, n)
                for pi in enumerate_partitions(d, min(n, d))
            )
            assert total == count_allocations(n, d, MULTI)


@given(
    a=st.integers(-50, 50), b=st.integers(1, 50),
    c=st.integers(-50, 50), e=st.integers(1, 50),
)
def test_fraction_arithmetic_round_trip(a, b, c, e):
    x, y = Fraction(a, b), Fraction(c, e)
    assert (x + y) - y == x
    assert x.denominator > 0 and (x + y).denominator > 0


def test_shape_representatives_one_per_shape_in_order():
    for occupancy in (SINGLE, MULTI):
        for n in range(1, 7):
            for d in range(1, 5):
                reps = shape_representatives(n, d, occupancy)
                allocations = enumerate_allocations(n, d, occupancy)
                assert reps == sorted({tuple(sorted(a)) for a in allocations})
                assert len(reps) == len({allocation_shape(a) for a in allocations})
    assert shape_representatives(29, 5, MULTI)[:2] == [(0,) * 28 + (5,), (0,) * 27 + (1, 4)]
    assert len(shape_representatives(29, 5, MULTI)) == 7
    assert shape_representatives(12, 4, SINGLE) == [(0,) * 8 + (1,) * 4]
    with pytest.raises(ValueError):
        shape_representatives(3, 2, "bag")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shape_representative_is_canonical_and_first_relabeling(data):
    n = data.draw(st.integers(1, 6))
    occupancy = data.draw(st.sampled_from((SINGLE, MULTI)))
    d = data.draw(st.integers(1, n if occupancy == SINGLE else 4))
    allocations = enumerate_allocations(n, d, occupancy)
    a = data.draw(st.sampled_from(allocations))
    rep = tuple(sorted(a))
    assert rep == relabeling(a, ())[0][0]
    assert rep in shape_representatives(n, d, occupancy)
    position = {alloc: i for i, alloc in enumerate(allocations)}
    assert all(position[rep] <= position[p] for p in set(permutations(a)))
