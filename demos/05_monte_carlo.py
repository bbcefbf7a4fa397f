"""Seeded simulation as a cross-check on the exact values.

Runs are reproducible from a single 64-bit seed, a run's 10,000-trial
blocks merge by plain addition of wins, and estimates are compared to
exact values with a four-sigma z-test.
"""

from fractions import Fraction

from treasurehunt import (
    GameConfig,
    compare_to_exact,
    derive_seed,
    fresh_doors_searcher,
    run_mc,
    scaled_searcher,
    uniform_hider,
)

cfg = GameConfig(9, 3, 2)
report = run_mc(cfg, scaled_searcher(cfg), uniform_hider(cfg), trials=200_000, seed=7)
check = compare_to_exact(report, Fraction(8, 165))
print(f"multi n=9 d=3 k=2, scaled table vs uniform hider, {report.trials} trials, seed {report.seed}:")
print(f"  estimate {report.wins}/{report.trials} = {float(report.estimate):.5f}")
print(f"  exact 8/165 = {float(check.exact):.5f}, z = {check.z_score:+.2f}, passed: {check.passed}")
print()

single = GameConfig(4, 2, 2, occupancy="single")
rep2 = run_mc(single, fresh_doors_searcher(single), uniform_hider(single), trials=200_000, seed=7)
check2 = compare_to_exact(rep2, Fraction(2, 3))
print(f"single n=4 d=2 k=2, fresh pairs: estimate {float(rep2.estimate):.5f} vs 2/3, "
      f"z = {check2.z_score:+.2f}, passed: {check2.passed}")
print()

searcher, hider = fresh_doors_searcher(single), uniform_hider(single)
whole = run_mc(single, searcher, hider, trials=20_000, seed=7)
first = run_mc(single, searcher, hider, trials=10_000, seed=7)
second = run_mc(single, searcher, hider, trials=10_000, seed=derive_seed(7, 1))
print(f"20000 trials at seed 7: {whole.wins} wins; its two blocks as runs of their own, "
      f"at seeds 7 and derive_seed(7, 1): {first.wins} + {second.wins} = {first.wins + second.wins}")
assert whole.wins == first.wins + second.wins
print("blocks merge by addition, so partitioned runs need no coordination")
