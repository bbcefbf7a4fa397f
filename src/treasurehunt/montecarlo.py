"""Seeded Monte Carlo estimation of win probabilities.

Simulation uses Python's Mersenne Twister (`random.Random`), seeded with a
64-bit integer. Estimates are reported as the exact fraction wins/trials
plus a binomial standard error.

`run_mc` plays its trials in blocks of `BLOCK_TRIALS`: block 0 reads the
stream of the seed itself and block i >= 1 that of `derive_seed(seed, i)`,
a SplitMix-style mix of the seed and the block index. So a run of at most
`BLOCK_TRIALS` trials reads the stream it always read, and a run's wins
are the sum of its blocks' wins, each that of a run of its own at its
block seed. Longer runs deal their blocks round-robin to processes forked
across the usable CPUs and add up the wins, which therefore do not depend
on how many cores play them.
"""

from __future__ import annotations

import os
import random
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .errors import AdversarialRevealError, DoorBudgetError, MissingDiagramError
from .game import CHANCE_REVEALS, GameConfig, chance_reveal
from .jsonio import fraction_to_json, int_from_json
from .strategies import HiderStrategy, SearcherStrategy, check_built_for, guess_table, randbelow

_MASK64 = (1 << 64) - 1
MIN_CHECK_TRIALS = 100  # fewest trials compare_to_exact accepts
BLOCK_TRIALS = 10_000  # trials per block; each block reads its own seeded stream
_SIGKILL = 9  # POSIX fixes SIGKILL at 9, and os has no name for it

CSV_HEADER = [
    "n", "d", "k", "variant", "reveal", "searcher", "hider",
    "trials", "wins", "estimate_num", "estimate_den", "stderr", "seed",
]


def derive_seed(seed: int, index: int) -> int:
    """Child seed `index` of `seed`, a SplitMix64 mix of the two; `run_mc`
    seeds its block i >= 1 with ``derive_seed(seed, i)``."""
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
        for name in ("trials", "wins", "seed"):
            int_from_json(getattr(self, name), name)
        if self.trials < 1:
            raise ValueError("trials must be positive")
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
    the solver. Both strategies must be built for the config's n, d, k and
    occupancy; their reveal rule does not matter. The same (seed, config,
    strategies, trials) always reproduces the same wins within this
    implementation.

    Every draw reads the stream by one rule, ``strategies.randbelow``'s
    rejection draw over ``(m - 1).bit_length()`` bits, inlined in the
    loops. Each trial draws its allocation from the hider's ``table``. A
    searcher with a ``fresh_door_stays`` rule plays the stay-rule loop:
    each trial shuffles one door list partially, Fisher-Yates style, so
    the first ``live`` entries are the never-guessed doors, and every door
    index and stay coin is such a draw. Any other searcher plays the
    draw-table loop: each history's checked ``guess_table`` is built once
    per call, in each process that plays its blocks, and drawn from as
    ``strategies.draw_from`` draws, so a
    ``sampler(rng)`` cursor per trial wins the same trials. Both loops
    resolve a guess that finds two doors or more by ``chance_reveal``.

    Trials are played in blocks of ``BLOCK_TRIALS``, the last one shorter.
    Block 0 reads ``random.Random(seed)`` and block i >= 1 reads
    ``random.Random(derive_seed(seed, i))``, each through a fresh call of
    its loop, and the wins are their sum; so a run of at most
    ``BLOCK_TRIALS`` trials reads the stream of ``seed`` alone, as it
    always has. Where there are two blocks or more, ``os.fork`` exists, the
    process runs one thread and ``os.sched_getaffinity`` reports two CPUs
    or more, the blocks are dealt round-robin to forked child processes,
    one per usable CPU beyond the first, and the caller plays the first
    share. The wins do not depend on the number of cores. Otherwise the
    blocks are played here in order, and so is the share of a child whose
    fork raises ``OSError``. If any share fails, every child is killed and
    reaped and all blocks are replayed here in order, so the caller gets
    the error that serial play raises. No child outlives the call.
    """
    int_from_json(trials, "trials")
    int_from_json(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= seed <= _MASK64:  # random.Random drops a seed's sign
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if config.reveal not in CHANCE_REVEALS:
        raise AdversarialRevealError("simulation needs a chance reveal rule")
    check_built_for(config, "searcher", searcher)
    check_built_for(config, "hider", hider)
    # Chosen by attribute, not by type, so a wrapper that forwards
    # attributes plays the same path and random stream as its searcher.
    stays = getattr(searcher, "fresh_door_stays", None) is not None
    tables: dict = {}  # history -> its guess_table, shared by the blocks a process plays
    den, bits, bounds, allocations = hider.table
    # den positive probabilities make the bounds 1..den: the search returns r.
    hider_draw = (den, bits, bounds, allocations, den == len(bounds))

    def play_block(index: int) -> int:
        size = min(BLOCK_TRIALS, trials - index * BLOCK_TRIALS)
        rng = random.Random(derive_seed(seed, index) if index else seed)
        if stays:
            return _play_stays(config, searcher, hider_draw, size, rng)
        return _play_table(config, searcher, hider_draw, size, rng, tables)

    wins = _play_blocks(play_block, -(-trials // BLOCK_TRIALS))
    return McReport(config, searcher.name, hider.name, trials, wins, seed)


def _usable_cpus() -> int:
    """CPUs a fork may use: 1 without ``os.fork``, with threads, or unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or threading.active_count() != 1 or affinity is None:
        return 1
    return len(affinity(0))


def _play_blocks(play_block, blocks: int) -> int:
    """Sum of ``play_block(i)`` over ``range(blocks)``, forked across CPUs."""
    shares = min(blocks, _usable_cpus())
    if shares < 2:
        return sum(map(play_block, range(blocks)))
    children: list = []  # (pid, pipe it writes its wins to), until reaped
    try:
        return _play_shares(play_block, blocks, shares, children)
    except Exception:  # a share failed: the serial replay below raises its error
        pass
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    return sum(map(play_block, range(blocks)))


def _play_shares(play_block, blocks: int, shares: int, children: list) -> int:
    """Fork a child for each share but the first, play the rest, add the wins."""
    dealt = [range(share, blocks, shares) for share in range(shares)]
    mine = dealt[:1]
    for share in dealt[1:]:
        try:
            children.append(_fork_share(play_block, share))
        except OSError:  # no process to spare: play the share here
            mine.append(share)
    wins = sum(play_block(index) for share in mine for index in share)
    while children:
        pid, pipe = children[-1]
        data = pipe.read()
        pipe.close()
        _, status = os.waitpid(pid, 0)
        children.pop()
        if status or not data:
            raise ChildProcessError(f"process {pid} did not play its share")
        wins += int(data)
    return wins


def _fork_share(play_block, share: range):
    """A child process that plays ``share``: its pid and the pipe it writes to."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child leaves only through os._exit, whatever it raises
        code = 1
        try:
            os.close(read)
            os.write(write, str(sum(map(play_block, share))).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _reveal(remaining: list, options: list, reveal: str, getrandbits) -> int:
    """The door a chance reveal picks among two or more guessed live doors."""
    options.sort()
    doors, weights = chance_reveal(remaining, options, reveal)
    if len(doors) == 1:
        return doors[0]
    r = randbelow(getrandbits, sum(weights))
    for door, weight in zip(doors, weights):
        r -= weight
        if r < 0:
            return door


def _play_stays(config, searcher, hider_draw, trials, rng) -> int:
    """Wins of a ``fresh_door_stays`` searcher over ``trials`` games."""
    getrandbits = rng.getrandbits
    den, hider_bits, bounds, allocations, uniform = hider_draw
    n, d, k, reveal = config.n, config.d, config.k, config.reveal
    stays = searcher.fresh_door_stays
    # coins[diagram] = (numerator, denominator, bits of a draw below it).
    coins = {c: (p.numerator, p.denominator, (p.denominator - 1).bit_length()) for c, p in stays.items()}
    bits_below = [0] + [(live - 1).bit_length() for live in range(1, n + 1)]
    all_doors = list(range(n))
    wins = 0
    for _ in range(trials):
        r = getrandbits(hider_bits)
        while r >= den:
            r = getrandbits(hider_bits)
        remaining = list(allocations[r if uniform else bisect_right(bounds, r)])
        pool = all_doors[:]
        live, diagram, current = n, (), -1
        for _ in range(d):
            stay = False
            if diagram:
                coin = coins.get(diagram)
                if coin is None:
                    raise MissingDiagramError(diagram)
                num, den_stay, bits = coin
                r = getrandbits(bits)
                while r >= den_stay:
                    r = getrandbits(bits)
                stay = r < num
            need = k - 1 if stay else k
            if live < need:
                raise DoorBudgetError(f"{searcher.name!r} needs {need} fresh doors, only {live} left")
            # The first live door found, and a list only once a second is.
            found = current if stay and remaining[current] else None
            options = None
            stop = live - need
            while live > stop:
                # randbelow(getrandbits, live), inlined: live >= 1 here.
                bits = bits_below[live]
                i = getrandbits(bits)
                while i >= live:
                    i = getrandbits(bits)
                live -= 1
                door = pool[i]
                pool[i] = pool[live]
                pool[live] = door
                if remaining[door]:
                    if found is None:
                        found = door
                    else:
                        options = options or [found]
                        options.append(door)
            if found is None:
                break
            if options is not None:
                found = _reveal(remaining, options, reveal, getrandbits)
            remaining[found] -= 1
            if stays:
                if found == current:
                    diagram = diagram[:-1] + (diagram[-1] + 1,)
                else:
                    diagram += (1,)
                    current = found
        else:
            wins += 1
    return wins


def _play_table(config, searcher, hider_draw, trials, rng, tables: dict) -> int:
    """Wins of a searcher played from its ``guess_distribution`` draw tables.

    ``tables`` maps each history met so far to its ``guess_table``; a history
    not in it gets its table built and added.
    """
    getrandbits = rng.getrandbits
    den, hider_bits, bounds, allocations, uniform = hider_draw
    wins = 0
    for _ in range(trials):
        r = getrandbits(hider_bits)
        while r >= den:
            r = getrandbits(hider_bits)
        remaining = list(allocations[r if uniform else bisect_right(bounds, r)])
        history = ()
        for _ in range(config.d):
            table = tables.get(history)
            if table is None:
                table = tables[history] = guess_table(config, searcher, history)
            # strategies.draw_from(table, getrandbits), inlined.
            guess_den, guess_bits, sums, guesses = table
            r = getrandbits(guess_bits)
            while r >= guess_den:
                r = getrandbits(guess_bits)
            guess = guesses[bisect_right(sums, r)]
            found = options = None
            for door in guess:
                if remaining[door]:
                    if found is None:
                        found = door
                    else:
                        options = options or [found]
                        options.append(door)
            if found is None:
                break
            if options is not None:
                found = _reveal(remaining, options, config.reveal, getrandbits)
            remaining[found] -= 1
            history += ((guess, found),)
        else:
            wins += 1
    return wins


@dataclass(frozen=True)
class McCheck:
    z_score: float
    passed: bool
    exact: Fraction


def compare_to_exact(report: McReport, exact: Fraction, sigmas: float = 4.0) -> McCheck:
    """z-test of the estimate against an exact value; passes within 4 sigma."""
    if report.trials < MIN_CHECK_TRIALS:
        raise ValueError(f"need at least {MIN_CHECK_TRIALS} trials for a meaningful z-test")
    stderr = report.stderr
    if stderr == 0.0:
        z = 0.0 if report.estimate == exact else float("inf")
    else:
        z = (report.wins / report.trials - float(exact)) / stderr
    return McCheck(z_score=z, passed=abs(z) <= sigmas, exact=Fraction(exact))
