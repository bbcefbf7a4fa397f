"""Per-layer spans recorded from outside the program.

``instrument`` wraps the public functions of each layer at the name its
caller looks up (``cli.sequence_form_value``, ``seqform.solve_lp``,
``solver.evaluate_exact`` ...) and restores every one of them on exit.
Nothing in ``treasurehunt`` is edited.

A span records name, start, end and parent. A layer's self time is its
duration minus the part its child spans cover; calls run one at a time in a
single thread, so child spans never overlap and coverage is their sum. Hot
inner calls (per-allocation ``evaluate_exact``, sampler cursors) are kept as
aggregate leaf spans: a count, a total and the per-call durations for
percentiles, with no record per call. Samplers are timed through the public
``sampler(rng)`` protocol, by proxies that the strategy constructors hand to the
CLI in place of the real strategies.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    uid: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float  # duration minus child coverage


@dataclass
class Aggregate:
    """Many calls of one hot function: a count, a total, and optionally the
    per-call durations for percentiles."""

    count: int = 0
    total: float = 0.0
    durations: array | None = None

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the per-call durations, in microseconds."""
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
        return ordered[rank] * 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.counts: dict[str, int] = {}
        self._open: list[list] = []  # [uid, start, child coverage] of each open span
        self._next_uid = 0

    @contextmanager
    def span(self, name: str):
        uid = self._next_uid
        self._next_uid += 1
        parent = self._open[-1][0] if self._open else None
        frame = [uid, clock(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            end = clock()
            self._open.pop()
            duration = end - frame[1]
            self.spans.append(Span(uid, parent, name, frame[1], end, duration - frame[2]))
            if self._open:
                self._open[-1][2] += duration

    def spanned(self, name: str, fn):
        """``fn`` with each call recorded as one span."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def aggregated(self, name: str, fn, percentiles: bool = False):
        """``fn`` with its calls folded into one aggregate leaf span."""
        agg = self.aggregates.setdefault(name, Aggregate())
        if percentiles and agg.durations is None:
            agg.durations = array("d")
        charge = self._charge

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(agg, clock() - start)
        return wrapper

    def _charge(self, agg: Aggregate, elapsed: float) -> None:
        agg.count += 1
        agg.total += elapsed
        if agg.durations is not None:
            agg.durations.append(elapsed)
        if self._open:
            self._open[-1][2] += elapsed

    def counted(self, name: str, fn):
        """``fn`` with its calls counted, not timed."""
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        """Summed duration of the spans or aggregate called ``name``."""
        if name in self.aggregates:
            return self.aggregates[name].total
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def self_total(self, name: str) -> float:
        return sum((s.self_s for s in self.spans if s.name == name), 0.0)


# ---------------------------------------------------------------------------
# Strategy proxies: time samplers through the public sampler(rng) protocol
# ---------------------------------------------------------------------------

class _SearcherProxy:
    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.config = inner.config
        self.name = inner.name
        self.door_symmetric = inner.door_symmetric
        self.guess_distribution = inner.guess_distribution
        self._new_cursor = tracer.aggregated("strategies.searcher_sampler", inner.sampler)
        self._agg = tracer.aggregates["strategies.searcher_sampler"]
        self._charge = tracer._charge

    def sampler(self, rng):
        return _CursorProxy(self._new_cursor(rng), self._agg, self._charge)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _CursorProxy:
    """A searcher cursor whose next_guess and observe calls are timed."""

    __slots__ = ("_cursor", "_agg", "_charge")

    def __init__(self, cursor, agg: Aggregate, charge):
        self._cursor = cursor
        self._agg = agg
        self._charge = charge

    def next_guess(self):
        start = clock()
        try:
            return self._cursor.next_guess()
        finally:
            self._charge(self._agg, clock() - start)

    def observe(self, guess, revealed):
        start = clock()
        try:
            return self._cursor.observe(guess, revealed)
        finally:
            self._charge(self._agg, clock() - start)


class _HiderProxy:
    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.config = inner.config
        self.name = inner.name
        self.distribution = inner.distribution
        self._new_sampler = tracer.aggregated("strategies.hider_sampler", inner.sampler)
        self._timed = lambda fn: tracer.aggregated("strategies.hider_sampler", fn)

    def sampler(self, rng):
        return _SamplerProxy(self._timed(self._new_sampler(rng).sample))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _SamplerProxy:
    __slots__ = ("sample",)

    def __init__(self, sample):
        self.sample = sample


# ---------------------------------------------------------------------------
# Installing and restoring the wrappers
# ---------------------------------------------------------------------------

class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary the workloads cross; restore them on exit."""
    from treasurehunt import cli, seqform, solver, strategies

    patches = _Patches()

    def sequence_form(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("seqform"):
                report = fn(*args, **kwargs)
            tracer.add("seqform.positions", report.certificate.stats["positions"])
            return report
        return wrapper

    def lp_solve(fn):
        def wrapper(num_vars, objective, constraints, **kwargs):
            side = "simplex.searcher" if kwargs.get("maximize", True) else "simplex.hider"
            with tracer.span(side):
                result = fn(num_vars, objective, constraints, **kwargs)
            tracer.add("simplex.rows", len(constraints))
            tracer.add("simplex.nnz", sum(len(row) for row, _, _ in constraints))
            return result
        return wrapper

    def enumerate_allocations(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("combinatorics.enumerate"):
                out = fn(*args, **kwargs)
            tracer.add("combinatorics.allocations", len(out))
            return out
        return wrapper

    def build(proxy):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span("strategies.build"):
                    strategy = fn(*args, **kwargs)
                return proxy(strategy, tracer)
            return wrapper
        return make

    def run_mc(fn):
        def wrapper(config, searcher, hider, trials, seed):
            with tracer.span("montecarlo"):
                report = fn(config, searcher, hider, trials, seed)
            tracer.add("montecarlo.trials", report.trials)
            return report
        return wrapper

    def spanned(name):
        return lambda fn: tracer.spanned(name, fn)

    def aggregated(name):
        return lambda fn: tracer.aggregated(name, fn)

    try:
        patches.wrap(cli, "sequence_form_value", sequence_form)
        patches.wrap(seqform, "build_quotient_game", spanned("seqform.build"))
        patches.wrap(seqform, "solve_lp", lp_solve)
        patches.wrap(cli, "hider_best_response_value", spanned("solver.hbr"))
        patches.wrap(solver, "evaluate_exact",
                     lambda fn: tracer.aggregated("solver.evaluate", fn, percentiles=True))
        patches.wrap(solver, "searcher_best_response_value", spanned("solver.sbr"))
        patches.wrap(cli, "evaluate_under_reveal", aggregated("solver.exact_check"))
        patches.wrap(solver, "enumerate_allocations", enumerate_allocations)
        patches.wrap(strategies, "enumerate_allocations", enumerate_allocations)
        patches.wrap(strategies, "scaled_stay_table", spanned("staytables.table"))
        patches.wrap(cli, "scaled_searcher", build(_SearcherProxy))
        patches.wrap(cli, "fresh_doors_searcher", build(_SearcherProxy))
        patches.wrap(cli, "uniform_hider", build(_HiderProxy))
        patches.wrap(strategies, "uniform_hider", build(_HiderProxy))
        patches.wrap(cli, "run_mc", run_mc)
        # One guess_distribution call is one evaluator node expanded.
        for cls in (strategies.StayTableSearcher, strategies.FreshDoorsSearcher,
                    seqform.LiftedPlanStrategy):
            patches.wrap(cls, "guess_distribution", lambda fn: tracer.counted("solver.nodes", fn))
        yield tracer
    finally:
        patches.restore()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass over a job list."""
    evaluate = tracer.aggregates.get("solver.evaluate", Aggregate())
    return {
        "cli.self_s": tracer.self_total("cli"),
        "seqform.build_s": tracer.total("seqform.build"),
        "seqform.self_s": tracer.self_total("seqform"),
        "seqform.positions": tracer.counts.get("seqform.positions", 0),
        "simplex.searcher_s": tracer.total("simplex.searcher"),
        "simplex.hider_s": tracer.total("simplex.hider"),
        "simplex.rows": tracer.counts.get("simplex.rows", 0),
        "simplex.nnz": tracer.counts.get("simplex.nnz", 0),
        "solver.evaluate_s": evaluate.total,
        "solver.evaluate_calls": evaluate.count,
        "solver.evaluate_us_p50": evaluate.percentile_us(0.50),
        "solver.evaluate_us_p99": evaluate.percentile_us(0.99),
        "solver.nodes": tracer.counts.get("solver.nodes", 0),
        "solver.hbr_self_s": tracer.self_total("solver.hbr"),
        "solver.sbr_s": tracer.total("solver.sbr"),
        "solver.exact_check_s": tracer.total("solver.exact_check"),
        "combinatorics.enumerate_s": tracer.total("combinatorics.enumerate"),
        "combinatorics.allocations": tracer.counts.get("combinatorics.allocations", 0),
        "staytables.table_s": tracer.total("staytables.table"),
        "strategies.build_s": tracer.total("strategies.build"),
        "strategies.searcher_sampler_s": tracer.total("strategies.searcher_sampler"),
        "strategies.hider_sampler_s": tracer.total("strategies.hider_sampler"),
        "montecarlo.self_s": tracer.self_total("montecarlo"),
        "montecarlo.trials": tracer.counts.get("montecarlo.trials", 0),
    }


# Exact counts: identical in every traced pass, whatever the seed.
EXACT_COUNTS = (
    "seqform.positions", "simplex.rows", "simplex.nnz", "solver.evaluate_calls",
    "solver.nodes", "combinatorics.allocations", "montecarlo.trials",
)
