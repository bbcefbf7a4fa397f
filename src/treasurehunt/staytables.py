"""Stay-probability tables over found-treasure diagrams.

After each find, the table-driven searcher either stays on the door of the
last find or moves on to fresh doors. The stay probability depends only on
the diagram of found counts in discovery order. For guess size 1 the
probability is determined exactly by conditioning a uniformly sampled
allocation plan on the observable history; it comes out as a ratio of
allocation counts over diagram completions. For larger guess sizes the
base probabilities are scaled by k, which is only a probability when the
door count is large enough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from .combinatorics import Partition, enumerate_partitions, is_partition, partition_weight
from .errors import DoorBudgetError, ExceedsUnitError, MissingDiagramError, TableEntryError
from .jsonio import fraction_from_json, fraction_to_json, int_from_json


def decision_diagrams(n: int, d: int) -> list[Partition]:
    """The scaled table's keys: partitions of sizes 1..d-1, at most n parts.

    Sorted by size then reverse-lexicographically, the canonical listing
    order for tables and reports.
    """
    out: list[Partition] = []
    for size in range(1, d):
        out.extend(enumerate_partitions(size, min(size, n)))
    return out


def stay_probability(n: int, d: int, diagram: Partition) -> Fraction:
    """Probability the guess-one mimic keeps digging its current door.

    With j parts and last part c, this is the allocation-count mass of
    shape completions whose j-th part exceeds c, over the mass of those
    whose j-th part is at least c. Returns 0 when no completion continues.
    """
    lam = tuple(diagram)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    size = sum(lam)
    if not 1 <= size <= d - 1:
        raise ValueError(f"diagram size {size} outside 1..{d - 1}")
    if len(lam) > n:
        raise ValueError(f"diagram has {len(lam)} parts but only {n} doors exist")
    prefix, last = lam[:-1], lam[-1]
    stay_mass = 0
    total_mass = 0
    for pi in enumerate_partitions(d, n):
        j = len(lam)
        if len(pi) < j or pi[: j - 1] != prefix:
            continue
        if pi[j - 1] < last:
            continue
        w = partition_weight(pi, n)
        total_mass += w
        if pi[j - 1] > last:
            stay_mass += w
    if stay_mass == 0:
        return Fraction(0)
    return Fraction(stay_mass, total_mass)


@dataclass(frozen=True)
class StayTable:
    """Exact stay probabilities per discovery order for one game size.

    entries maps a discovery order (the per-door find counts, in the order
    the doors were first found; size 1..d-1) to the probability of staying
    on the current door after a find that leaves those counts. A partition
    key covers every order that a table which never stays after a flat find,
    such as (1, 1), reaches; a table that does stay there also needs orders
    such as (1, 2).
    """

    n: int
    d: int
    k: int
    entries: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        for diagram, p in self.entries.items():
            if not isinstance(diagram, tuple) or not all(type(c) is int and c >= 1 for c in diagram):
                raise TableEntryError(f"{diagram} is not a discovery order")
            if not 1 <= sum(diagram) <= self.d - 1:
                raise TableEntryError(f"diagram {diagram} has size outside 1..{self.d - 1}")
            if not isinstance(p, Fraction):
                raise TableEntryError(f"entry for {diagram} must be a Fraction, got {type(p).__name__}")
            if not 0 <= p <= 1:
                raise TableEntryError(f"entry {p} for {diagram} outside [0, 1]")

    def stay(self, order: tuple[int, ...]) -> Fraction:
        """0 for the empty table, which never stays; otherwise the entry,
        or ``MissingDiagramError`` for an order the table lacks."""
        if not self.entries:
            return Fraction(0)
        try:
            return self.entries[tuple(order)]
        except KeyError:
            raise MissingDiagramError(order) from None

    def sorted_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.entries.items(), key=lambda kv: (sum(kv[0]), tuple(-p for p in kv[0])))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "entries": [
                {"diagram": list(diagram), "p": fraction_to_json(p)}
                for diagram, p in self.sorted_items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StayTable":
        try:
            n, d, k = (int_from_json(obj[name], name) for name in "ndk")
            raw_entries = obj["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TableEntryError(f"malformed table document: {exc}") from exc
        if not isinstance(raw_entries, list):
            raise TableEntryError(f"malformed table entries: a list expected, got {type(raw_entries).__name__}")
        entries: dict[tuple[int, ...], Fraction] = {}
        try:
            for item in raw_entries:
                diagram = tuple(int_from_json(part, "diagram part") for part in item["diagram"])
                if diagram in entries:
                    raise TableEntryError(f"duplicate entry for diagram {diagram}")
                entries[diagram] = fraction_from_json(item["p"])
        except (KeyError, TypeError) as exc:
            raise TableEntryError(f"malformed table entries: {type(exc).__name__}: {exc}") from exc
        except ValueError as exc:
            raise TableEntryError(str(exc)) from exc
        return cls(n=n, d=d, k=k, entries=entries)

    @classmethod
    def load(cls, path) -> "StayTable":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise TableEntryError(f"malformed table document: {exc}") from exc
        return cls.from_json(doc)


def scaled_stay_table(n: int, d: int, k: int) -> StayTable:
    """The k-scaled table: k times the guess-one stay probabilities.

    Requires n >= d*k so fresh doors never run out, and every scaled entry
    at most 1. The first diagram (in listing order) whose scaled entry
    exceeds 1 is reported via ExceedsUnitError.
    """
    if n < d * k:
        raise DoorBudgetError(f"scaling needs n >= d*k, got n={n} < {d * k}")
    entries: dict[Partition, Fraction] = {}
    for diagram in decision_diagrams(n, d):
        p = k * stay_probability(n, d, diagram)
        if p > 1:
            raise ExceedsUnitError(diagram, p)
        entries[diagram] = p
    return StayTable(n=n, d=d, k=k, entries=entries)


def min_scalable_doors(d: int, k: int) -> int:
    """Smallest n >= d*k for which the scaled table exists.

    The scan terminates because every base stay probability vanishes as n
    grows: its stay mass is O(n^(j-1)) against a total of order n^j.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be positive")
    n = d * k
    while True:
        try:
            scaled_stay_table(n, d, k)
            return n
        except ExceedsUnitError:
            n += 1


def q_one_find(n: int, d: int) -> Fraction:
    """Move-on probability after the very first find, in closed form."""
    return Fraction(comb(n, d), comb(n + d - 1, d))
