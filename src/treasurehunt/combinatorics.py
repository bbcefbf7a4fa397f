"""Exact counting and enumeration: binomials, integer partitions, and
treasure allocations over doors (set or multiset occupancy).

All quantities are arbitrary-precision integers or `fractions.Fraction`;
nothing in this package ever rounds.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb, factorial

SINGLE = "single"
MULTI = "multi"
OCCUPANCIES = (SINGLE, MULTI)

# A partition is a nonincreasing tuple of positive ints; an allocation is a
# tuple of per-door treasure counts.
Partition = tuple[int, ...]
Allocation = tuple[int, ...]


def count_allocations(n: int, d: int, occupancy: str = MULTI) -> int:
    """Number of ways to place d treasures behind n doors.

    Single occupancy allows at most one treasure per door, C(n, d).
    Multi occupancy allows repeats, the multiset count C(n + d - 1, d).
    """
    if n < 1:
        raise ValueError("need at least one door")
    if d < 0:
        raise ValueError("treasure count must be nonnegative")
    if occupancy == SINGLE:
        return comb(n, d)
    if occupancy == MULTI:
        return comb(n + d - 1, d)
    raise ValueError(f"unknown occupancy {occupancy!r}")


def enumerate_allocations(n: int, d: int, occupancy: str = MULTI) -> list[Allocation]:
    """All allocations exactly once, lexicographically ordered.

    The lexicographic order is the canonical order used everywhere for
    reproducible certificates and CSV output. The door tuples that
    ``combinations`` (single) or ``combinations_with_replacement`` (multi)
    yield in order give count vectors in descending order, hence the reverse.
    """
    if n < 1:
        raise ValueError("need at least one door")
    if occupancy not in OCCUPANCIES:
        raise ValueError(f"unknown occupancy {occupancy!r}")
    choose = combinations if occupancy == SINGLE else combinations_with_replacement
    allocations = []
    for doors in choose(range(n), d):
        counts = [0] * n
        for door in doors:
            counts[door] += 1
        allocations.append(tuple(counts))
    allocations.reverse()
    return allocations


def shape_representatives(n: int, d: int, occupancy: str = MULTI) -> list[Allocation]:
    """One allocation per shape, lexicographically ordered.

    The representative of a shape is its ascending-sorted allocation
    (0, ..., 0, parts ascending): ``tuple(sorted(a))`` for every
    allocation ``a`` of that shape, and the lexicographically first of them.
    """
    if occupancy not in OCCUPANCIES:
        raise ValueError(f"unknown occupancy {occupancy!r}")
    cap = 1 if occupancy == SINGLE else d
    return sorted(
        (0,) * (n - len(pi)) + pi[::-1] for pi in enumerate_partitions(d, n) if pi[0] <= cap
    )


def enumerate_partitions(d: int, max_parts: int) -> list[Partition]:
    """All partitions of d into at most max_parts parts, largest part first."""
    if d < 1 or max_parts < 1:
        raise ValueError("d and max_parts must be positive")
    out: list[Partition] = []

    def rec(prefix: list[int], left: int, cap: int, slots: int) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(cap, left), 0, -1):
            prefix.append(part)
            rec(prefix, left - part, part, slots - 1)
            prefix.pop()

    rec([], d, d, max_parts)
    return out


def is_partition(seq) -> bool:
    """True when seq is a nonincreasing sequence of positive ints, not bools."""
    parts = tuple(seq)
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def allocation_shape(allocation: Allocation) -> Partition:
    """The sorted positive counts of an allocation, its shape."""
    return tuple(sorted((c for c in allocation if c > 0), reverse=True))


def partition_weight(pi: Partition, n: int) -> int:
    """Number of allocations over n doors whose shape equals pi.

    Equals n! / (prod_c m_c! * (n - j)!) with j parts and m_c the
    multiplicity of part value c.
    """
    parts = tuple(pi)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition")
    j = len(parts)
    if j > n:
        raise ValueError(f"partition has {j} parts but only {n} doors exist")
    weight = factorial(n) // factorial(n - j)
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        weight //= factorial(m)
    return weight
