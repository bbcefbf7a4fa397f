"""The benchmark's tracer (``perfbench/tracing.py``) wraps library names from
outside and hands the CLI proxies in place of the strategies. A change that
renames or removes one of those names, or that reads a strategy attribute
the proxies do not forward, breaks ``--trace 1``; this test catches it
without running the benchmark."""

import importlib.util
import sys
from pathlib import Path

from treasurehunt import cli, montecarlo, seqform, solver, strategies
from treasurehunt.game import GameConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
OWNERS = (
    cli, seqform, solver, strategies,
    strategies.StayTableSearcher, strategies.FreshDoorsSearcher, seqform.LiftedPlanStrategy,
)


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every attribute the owners define themselves, plus the inherited
    ``guess_distribution`` the tracer counts on each strategy class."""
    saved = {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}
    for cls in OWNERS[4:]:
        saved[(cls, "guess_distribution")] = cls.guess_distribution
    return saved


def test_tracer_wraps_the_cli_path_and_restores_every_name(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = _snapshot()
    multi = GameConfig(9, 3, 2)
    single = GameConfig(6, 3, 2, occupancy="single", reveal="uniform-doors")
    games = ((multi, "scaled_searcher"), (single, "fresh_doors_searcher"))
    plain = []
    for config, build in games:
        searcher, hider = getattr(strategies, build)(config), strategies.uniform_hider(config)
        allocation = hider.distribution[0][0]
        plain.append((
            montecarlo.run_mc(config, searcher, hider, 100, 7).wins,
            solver.evaluate_under_reveal(config, searcher, allocation, config.reveal),
        ))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        wrapped = {key for key, value in before.items() if getattr(*key) is not value}
        assert {(cli, "run_mc"), (cli, "scaled_searcher"), (cli, "uniform_hider")} <= wrapped
        traced = []
        for config, build in games:
            searcher, hider = getattr(cli, build)(config), cli.uniform_hider(config)
            assert type(searcher).__name__ == "_SearcherProxy"
            assert type(hider).__name__ == "_HiderProxy"
            allocation = hider.distribution[0][0]
            traced.append((
                cli.run_mc(config, searcher, hider, 100, 7).wins,
                cli.evaluate_under_reveal(config, searcher, allocation, config.reveal),
            ))
    # The proxies play and score exactly as the strategies they wrap.
    assert traced == plain
    assert tracer.counts["montecarlo.trials"] == 200
    assert all(getattr(*key) is value for key, value in before.items())
    assert _snapshot().keys() == before.keys()
