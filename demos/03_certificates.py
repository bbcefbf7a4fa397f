"""Certifying strategy guarantees by exact best response.

A searcher strategy is certified from below by evaluating it against
every allocation with adversarial reveals and taking the minimum. When
that minimum meets the counting bound k^d over the number of hiding
possibilities, the strategy is provably optimal and the game value is
settled. A door-symmetric strategy is scored once per allocation shape,
and at each position one guess per orbit of the position's symmetries,
so a certificate at 42 doors expands at most a few dozen positions per shape.
"""

from fractions import Fraction

from treasurehunt import (
    GameConfig,
    StayTable,
    hider_best_response_value,
    counting_upper_bound,
    scaled_searcher,
    stay_table_searcher,
    verify_equalizing,
)

F = Fraction

print("Nine doors, three treasures, guesses of two, scaled stay table:")
cfg = GameConfig(9, 3, 2)
report = hider_best_response_value(cfg, scaled_searcher(cfg))
print(f"  worst-case win probability {report.value}, counting bound {counting_upper_bound(cfg)}")
print(f"  tight: {report.tight}  ->  the game is worth exactly {report.value}")
print()

print("42 doors, four treasures, guesses of four: a large certificate.")
cfg42 = GameConfig(42, 4, 4)
report42 = hider_best_response_value(cfg42, scaled_searcher(cfg42))
print(f"  worst case {report42.value} over {len(report42.certificate['checked'])} allocation shapes,"
      f" tight: {report42.tight}")
print()

print("Six doors: scaling fails, but a hand-tuned table still equalizes.")
cfg6 = GameConfig(6, 3, 2)
table6 = StayTable(6, 3, 2, {(1,): F(1), (2,): F(3, 7), (1, 1): F(4, 7)})
eq = verify_equalizing(cfg6, table6)
print(f"  stays 1, 3/7, 4/7: equal={eq.equal}, common value {eq.value}")
print()

print("Five doors is one short of d*k, yet always-stay-first makes it fit:")
cfg5 = GameConfig(5, 3, 2)
table5 = StayTable(5, 3, 2, {(1,): F(1), (2,): F(4, 7), (1, 1): F(6, 7)})
eq5 = verify_equalizing(cfg5, table5)
cert5 = hider_best_response_value(cfg5, stay_table_searcher(cfg5, table5))
print(f"  stays 1, 4/7, 6/7: equal={eq5.equal}, value {eq5.value}, tight={cert5.tight}")
print()

print("A sloppy table is caught with a concrete counterexample:")
lazy = StayTable(6, 3, 2, {(1,): F(1, 2), (2,): F(1, 2), (1, 1): F(1, 2)})
bad = verify_equalizing(cfg6, lazy)
print(f"  equal={bad.equal}, counterexample allocation {bad.counterexample}")
