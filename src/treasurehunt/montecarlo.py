"""Seeded Monte Carlo estimation of win probabilities.

Simulation uses Python's Mersenne Twister (`random.Random`), seeded with a
64-bit integer. Batch runs derive per-batch seeds from the root seed with a
SplitMix-style mix, so partitioned runs are reproducible and merging is
plain addition of wins and trials. Estimates are reported as the exact
fraction wins/trials plus a binomial standard error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .errors import AdversarialRevealError
from .game import CHANCE_REVEALS, GameConfig, chance_reveal
from .strategies import HiderStrategy, SearcherStrategy

_MASK64 = (1 << 64) - 1

CSV_HEADER = [
    "n", "d", "k", "variant", "reveal", "searcher", "hider",
    "trials", "wins", "estimate_num", "estimate_den", "stderr", "seed",
]


def derive_seed(seed: int, index: int) -> int:
    """Child seed for batch `index`: a SplitMix64 mix of seed and index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class McReport:
    config: GameConfig
    searcher: str
    hider: str
    trials: int
    wins: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.wins <= self.trials:
            raise ValueError("wins must lie in 0..trials")

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.wins, self.trials)

    @property
    def stderr(self) -> float:
        p = self.wins / self.trials
        return sqrt(p * (1.0 - p) / self.trials)

    def csv_row(self) -> list:
        est = self.estimate
        return [
            self.config.n, self.config.d, self.config.k,
            self.config.occupancy, self.config.reveal,
            self.searcher, self.hider,
            self.trials, self.wins,
            est.numerator, est.denominator,
            repr(self.stderr), self.seed,
        ]

    def to_json(self) -> dict:
        from .jsonio import fraction_to_json

        return {
            "n": self.config.n, "d": self.config.d, "k": self.config.k,
            "variant": self.config.occupancy, "reveal": self.config.reveal,
            "searcher": self.searcher, "hider": self.hider,
            "trials": self.trials, "wins": self.wins,
            "estimate": fraction_to_json(self.estimate),
            "stderr": self.stderr, "seed": self.seed,
        }


def run_mc(
    config: GameConfig,
    searcher: SearcherStrategy,
    hider: HiderStrategy,
    trials: int,
    seed: int,
) -> McReport:
    """Simulate independent games and count wins.

    Requires a chance reveal rule; adversarial reveals are resolved only by
    the solver. The same (seed, config, strategies, trials) always
    reproduces the same wins within this implementation.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if config.reveal not in CHANCE_REVEALS:
        raise AdversarialRevealError("simulation needs a chance reveal rule")
    rng = random.Random(seed)
    hider_sampler = hider.sampler(rng)
    d = config.d
    reveal = config.reveal
    wins = 0
    for _ in range(trials):
        allocation = hider_sampler.sample()
        remaining = list(allocation)
        cursor = searcher.sampler(rng)
        won = True
        for _ in range(d):
            guess = cursor.next_guess()
            options = sorted(o for o in guess if remaining[o] > 0)
            if not options:
                won = False
                break
            door = options[0]
            # A lone candidate is forced under every rule. Most rounds of the
            # bundled strategies have one, so the call is skipped there.
            if len(options) > 1:
                doors, weights = chance_reveal(remaining, options, reveal)
                if len(doors) > 1:
                    r = rng.randrange(sum(weights))
                    for door, weight in zip(doors, weights):
                        r -= weight
                        if r < 0:
                            break
            remaining[door] -= 1
            cursor.observe(guess, door)
        if won:
            wins += 1
    return McReport(
        config=config,
        searcher=searcher.name,
        hider=hider.name,
        trials=trials,
        wins=wins,
        seed=seed,
    )


def merge_reports(first: McReport, second: McReport) -> McReport:
    """Combine two runs of the same experiment: wins and trials add up."""
    for attr in ("config", "searcher", "hider"):
        if getattr(first, attr) != getattr(second, attr):
            raise ValueError(f"cannot merge reports with different {attr}")
    return McReport(
        config=first.config,
        searcher=first.searcher,
        hider=first.hider,
        trials=first.trials + second.trials,
        wins=first.wins + second.wins,
        seed=first.seed,
    )


def run_mc_batched(
    config: GameConfig,
    searcher: SearcherStrategy,
    hider: HiderStrategy,
    trials: int,
    seed: int,
    batches: int,
) -> McReport:
    """Split trials over batches with derived seeds and merge the results."""
    if batches < 1:
        raise ValueError("need at least one batch")
    base, extra = divmod(trials, batches)
    merged: McReport | None = None
    for index in range(batches):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        report = run_mc(config, searcher, hider, size, derive_seed(seed, index))
        merged = report if merged is None else merge_reports(merged, report)
    assert merged is not None
    return McReport(
        config=merged.config, searcher=merged.searcher, hider=merged.hider,
        trials=merged.trials, wins=merged.wins, seed=seed,
    )


@dataclass(frozen=True)
class McCheck:
    z_score: float
    passed: bool
    exact: Fraction


def compare_to_exact(report: McReport, exact: Fraction, sigmas: float = 4.0) -> McCheck:
    """z-test of the estimate against an exact value; passes within 4 sigma."""
    if report.trials < 100:
        raise ValueError("need at least 100 trials for a meaningful z-test")
    stderr = report.stderr
    if stderr == 0.0:
        z = 0.0 if report.estimate == exact else float("inf")
    else:
        z = (report.wins / report.trials - float(exact)) / stderr
    return McCheck(z_score=z, passed=abs(z) <= sigmas, exact=Fraction(exact))
