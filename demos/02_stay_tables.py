"""Stay probabilities: when to keep digging the same door.

In the multi-occupancy game a door may hide several treasures. The
guess-one reference searcher samples a full treasure plan uniformly and
digs along it; to an outside observer it keeps digging its current door
with a probability that depends only on the diagram of counts found so
far. Larger guesses scale those probabilities by k, which only works when
there are enough doors. Below that door count a table keyed by discovery
order, the find counts per door in the order the doors were first found,
can still reach the counting bound.
"""

from fractions import Fraction as F

from treasurehunt import (
    ExceedsUnitError,
    GameConfig,
    StayTable,
    hider_best_response_value,
    min_scalable_doors,
    q_one_find,
    scaled_stay_table,
    stay_probability,
    stay_table_searcher,
)

print("Two treasures, two doors, guess one door at a time:")
print(f"  after the first find, stay with probability {stay_probability(2, 2, (1,))}")
print("  (two thirds: both treasures sit together in 2 of the 3 weighted plans)")
print()

print("Move-on probability after the very first find, q = C(n,d)/C(n+d-1,d):")
for n, d in [(2, 2), (6, 3), (9, 3)]:
    print(f"  n={n}, d={d}: q = {q_one_find(n, d)}")
print()

print("Scaling to guesses of two, three treasures:")
try:
    scaled_stay_table(6, 3, 2)
except ExceedsUnitError as err:
    print(f"  n=6 fails: diagram {err.diagram} would need stay probability {err.value} > 1")
for n in (7, 8, 9):
    try:
        table = scaled_stay_table(n, 3, 2)
        print(f"  n={n} works: " + ", ".join(
            f"{list(diag)} -> {p}" for diag, p in table.sorted_items()
        ))
    except ExceedsUnitError as err:
        print(f"  n={n} fails: diagram {err.diagram} needs {err.value} > 1")
print()
print(f"Smallest door count where scaling works for d=3, k=2: {min_scalable_doors(3, 2)}")
print(f"For d=2, k=2 it is {min_scalable_doors(2, 2)}.")
print()

print(f"d=4, k=2 scales only from n={min_scalable_doors(4, 2)}. At n=8 this table, keyed by")
print("discovery order, stays after the flat find (1, 1), so it also needs (1, 2):")
table = StayTable(8, 4, 2, {
    (1,): F(1), (2,): F(1, 2), (1, 1): F(1), (3,): F(64, 165),
    (2, 1): F(224, 495), (1, 2): F(91, 165), (1, 1, 1): F(10, 33),
})
print("  " + ", ".join(f"{list(order)} -> {p}" for order, p in table.sorted_items()))
config = GameConfig(8, 4, 2)
report = hider_best_response_value(config, stay_table_searcher(config, table))
print(f"  certified value {report.value}, tight: {report.tight}, on "
      f"{len(report.certificate['checked'])} allocation shapes")
