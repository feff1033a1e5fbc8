"""Portfolio racing over the generator zoo — Figure-1-style histogram.

Races the :data:`~repro.apps.stp_plugins.STP_PORTFOLIOS` heuristic
portfolios against each other (racing ramp-up, deterministic SimEngine)
on instances from every STP generator family and records which portfolio
wins per family. Mirrors the shape of the paper's Figure 1: instances
solved *during* racing are excluded from the winner statistics and
reported separately (tree-like families — ``pace``, ``orlib_euclidean``
— fall almost entirely in that bucket; the reduction-resistant unit-cost
shapes are the ones whose races survive to a verdict).

Each race rotates which ParaSolver rank holds which portfolio so that
rank-order tie-breaking cannot systematically favour one portfolio.

``run_portfolio_races`` is imported by ``tests/test_portfolio_racing.py``
to assert the histogram is reproducible seed-for-seed.

Floors (the reference run: 13/24 races survived racing to a declared
winner, winners over all 6 families): at least
:data:`MIN_FAMILIES_WITH_WINNERS` families declare a winner, at least
:data:`MIN_COMPLETED_RACES` races complete, every race is certified.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import emit_bench_json
from repro.apps.stp_plugins import STP_PORTFOLIOS, SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.instances import generate_family
from repro.obs.reporters import winner_histogram_report
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.verify.steiner import check_ug_steiner_result

N_SOLVERS = len(STP_PORTFOLIOS)  # one rank per portfolio

#: per-family configs tuned so a useful share of races *survives* racing
#: (unit costs / parity terminals resist presolve); see module docstring
RACE_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("hypercube", {"dim": 4, "perturbed": False, "parity_terminals": True}),
    ("orlib_random", {"n": 60, "m": 150, "n_terminals": 12, "max_cost": 1}),
    ("orlib_euclidean", {"n": 70, "n_terminals": 14, "k_nearest": 3, "rounded": True}),
    ("pace", {"n": 120, "n_chords": 80, "n_terminals": 24, "max_cost": 1}),
    ("grid_holes", {"rows": 9, "cols": 9, "n_holes": 2, "perturbed": False, "n_terminals": 14}),
    ("incidence", {"n": 60, "extra_edges": 100, "n_terminals": 12, "max_weight": 1}),
)

PORTFOLIO_NAMES = tuple(name for name, _ in STP_PORTFOLIOS)

MIN_FAMILIES_WITH_WINNERS = 5
MIN_COMPLETED_RACES = 10


class RotatedPortfolioPlugins(SteinerUserPlugins):
    """SteinerUserPlugins with the racing settings rotated by ``rotation``.

    Ties in the winner selection break toward the lowest rank; rotating
    the portfolio -> rank assignment per race removes that positional
    advantage (Latin-square style), so a portfolio that keeps winning
    does so on merit.
    """

    def __init__(self, rotation: int = 0) -> None:
        self.rotation = rotation

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        sets = super().racing_param_sets(n, base)
        r = self.rotation % len(sets)
        return sets[r:] + sets[:r]


def race_once(instance, rotation: int, seed: int) -> dict:
    """One deterministic SimEngine race; returns the outcome record."""
    plugins = RotatedPortfolioPlugins(rotation)
    cfg = UGConfig(
        ramp_up="racing",
        racing_deadline=0.02,
        racing_open_node_threshold=2,
        status_interval_work=0.0005,
        time_limit=60.0,
        trace_enabled=True,
    )
    solver = ug(instance.copy(), plugins, n_solvers=N_SOLVERS, comm="sim",
                params=ParamSet(), config=cfg, seed=seed, wall_clock_limit=600.0)
    res = solver.run()
    sets = plugins.racing_param_sets(N_SOLVERS, ParamSet())

    def portfolio_of_setting(k: int) -> str:
        return sets[(k - 1) % len(sets)].get_extra("stp/portfolio")

    outcome: dict = {
        "solved": res.solved,
        "objective": res.objective,
        "certified": bool(check_ug_steiner_result(instance, res).ok),
        "winner_portfolio": None,
        "first_finisher": None,
    }
    if res.stats.racing_winner is not None:
        outcome["winner_portfolio"] = portfolio_of_setting(res.stats.racing_winner)
    else:
        ev = res.trace.events("solved_in_racing") if res.trace is not None else []
        if ev:  # excluded from the histogram, tracked for the caption
            outcome["first_finisher"] = portfolio_of_setting(((ev[0].rank - 1) % N_SOLVERS) + 1)
    return outcome


def run_portfolio_races(
    seeds: tuple[int, ...] = (11, 12, 13, 14),
    configs: tuple[tuple[str, dict], ...] = RACE_CONFIGS,
) -> dict:
    """Race every family x seed; returns the aggregated payload.

    Winner histograms are keyed by the 1-based index into
    :data:`STP_PORTFOLIOS` so ``winner_histogram_report`` can label each
    row with the portfolio's name. ``configs`` defaults to the full
    family sweep; the racing tests pass a cheap subset.
    """
    index_of = {name: i + 1 for i, name in enumerate(PORTFOLIO_NAMES)}
    winners: dict[str, list[int]] = {fam: [] for fam, _ in configs}
    first_finishers: dict[str, list[int]] = {fam: [] for fam, _ in configs}
    excluded: dict[str, int] = {fam: 0 for fam, _ in configs}
    races: list[dict] = []
    rotation = 0
    for fam, config in configs:
        for seed in seeds:
            gi = generate_family(fam, seed=seed, configs=(config,))[0]
            out = race_once(gi.instance, rotation, seed)
            out.update(family=fam, instance=gi.name, seed=seed, rotation=rotation)
            races.append(out)
            rotation += 1
            if out["winner_portfolio"] is not None:
                winners[fam].append(index_of[out["winner_portfolio"]])
            else:
                excluded[fam] += 1
                if out["first_finisher"] is not None:
                    first_finishers[fam].append(index_of[out["first_finisher"]])
    return {
        "portfolios": list(PORTFOLIO_NAMES),
        "winners": winners,
        "first_finishers": first_finishers,
        "excluded": excluded,
        "races": races,
        "n_races": len(races),
        "completed_races": sum(len(v) for v in winners.values()),
        "certified_races": sum(1 for r in races if r["certified"]),
    }


@pytest.mark.benchmark(group="portfolio_racing")
def test_portfolio_racing_histogram(benchmark):
    t0 = time.time()
    out = benchmark.pedantic(run_portfolio_races, rounds=1, iterations=1)
    report = winner_histogram_report(
        f"Portfolio racing winners per family ({sum(out['excluded'].values())} races "
        "solved during racing excluded, as in Figure 1)",
        out["winners"],
        len(PORTFOLIO_NAMES),
        setting_kind=lambda k: PORTFOLIO_NAMES[k - 1],
    )
    print(report.render())
    assert out["certified_races"] == out["n_races"], "every race must yield a valid tree"
    families = [fam for fam, idxs in out["winners"].items() if idxs]
    assert len(families) >= MIN_FAMILIES_WITH_WINNERS, families
    assert out["completed_races"] >= MIN_COMPLETED_RACES, out["completed_races"]
    emit_bench_json(
        "portfolio_racing",
        {
            "report": report,
            "wall_seconds": time.time() - t0,
            **{k: v for k, v in out.items() if k != "races"},
            "races": out["races"],
        },
    )
