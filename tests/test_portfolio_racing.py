"""Heuristic-portfolio racing: whitelist plumbing, merit, robustness.

A portfolio is a ``plugin_whitelists["heuristic"]`` entry.  Covers it
end to end: the CIP kernel honours the whitelist, the STP racing lanes
carry exactly the whitelists they always did, a
heuristic-rich portfolio beats the heuristic-free one in a two-solver
race *independent of lane order* (the winner-selection tie-break favours
rank 1, so lane-independence is what "wins on merit" means here), a
portfolio naming a crashing heuristic still terminates honestly via
quarantine, and the bench histogram is reproducible seed-for-seed.
"""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.bench_portfolio_racing import run_portfolio_races
from repro.apps.stp_plugins import STP_PORTFOLIOS, SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.cip.plugins import Heuristic
from repro.cip.registry import WHITELISTABLE_KINDS
from repro.instances import generate_family
from repro.steiner.solver import SteinerSolver
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.verify.differential import brute_force_steiner
from repro.verify.steiner import check_ug_steiner_result

PORTFOLIO_OF = dict(STP_PORTFOLIOS)

_CONSTRUCT = ("steiner_ascend_prune", "steiner_tm")
_MST = ("steiner_mstc", "steiner_key_vertex")
_LOCAL = ("steiner_tm", "steiner_key_vertex")
_NO_DUAL_FIXING = ("integrality", "linear_activity")

# the first 8 STP racing lanes' effective whitelists (missing kind =
# unrestricted), as emitted before portfolios became plugin_whitelists
DEFAULT_LANES = [
    {},
    {"heuristic": _CONSTRUCT},
    {"heuristic": _MST},
    {"heuristic": _LOCAL},
    {"heuristic": ()},
    {},
    {"heuristic": _CONSTRUCT},
    {"heuristic": _MST},
]
PLUGIN_SET_LANES = [
    {},
    {"propagator": _NO_DUAL_FIXING, "heuristic": _CONSTRUCT},
    {"heuristic": _MST, "branching": ("steinervertex",)},
    {"propagator": ("integrality",), "heuristic": _LOCAL},
    {"heuristic": ()},
    {"propagator": _NO_DUAL_FIXING},
    {"heuristic": _CONSTRUCT, "branching": ("steinervertex",)},
    {"propagator": ("integrality",), "heuristic": _MST},
]


def heuristic_whitelist(portfolio):
    """ParamSet(plugin_whitelists=...) value for one heuristic portfolio."""
    return None if portfolio is None else {"heuristic": portfolio}

# reduction-resistant unit-cost instance where the full portfolio needs
# ~3 nodes and the heuristic-free one ~26 (probed): the merit race below
ORLIB_UNIT = ("orlib_random", {"n": 60, "m": 150, "n_terminals": 12, "max_cost": 1}, 11)


class RecordingHeuristic(Heuristic):
    """No-op heuristic that records how often the kernel invoked it.

    Subclasses declare ``name`` as a class attribute so the plugin-name
    catalog knows them at class-definition time — ``ParamSet`` rejects
    whitelist names it has never seen (the typo guard under test in
    ``test_unknown_portfolio_name_rejected``).
    """

    def __init__(self) -> None:
        self.calls = 0

    def run(self, solver, node, x) -> None:
        self.calls += 1


class RecA(RecordingHeuristic):
    name = "rec_a"


class RecB(RecordingHeuristic):
    name = "rec_b"


class CrashingHeuristic(Heuristic):
    """Always raises — quarantine fodder."""

    name = "crash_heur"

    def __init__(self) -> None:
        self.calls = 0

    def run(self, solver, node, x) -> None:
        self.calls += 1
        raise RuntimeError("deliberate heuristic crash")


def _branching_graph():
    """Unit-cost parity hypercube: small, but LP-fractional at the root,
    so the kernel actually branches and heuristics actually fire."""
    return generate_family(
        "hypercube", seed=9, configs=({"dim": 4, "perturbed": False, "parity_terminals": True},)
    )[0].instance


class TwoLanePlugins(SteinerUserPlugins):
    """Two racing lanes with explicitly ordered portfolios, all other
    knobs held identical, so any outcome difference is the portfolio's."""

    def __init__(self, order: tuple[str, str]) -> None:
        self.order = order

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        return [
            base.with_changes(
                permutation_seed=0,
                heur_frequency=1,
                plugin_whitelists=heuristic_whitelist(PORTFOLIO_OF[name]),
                extras={"stp/portfolio": name},
            )
            for name in self.order
        ]


@pytest.mark.fast
class TestPortfolioWhitelist:
    def _prepared(self, portfolio):
        solver = SteinerSolver(
            _branching_graph(),
            params=ParamSet(plugin_whitelists=heuristic_whitelist(portfolio), heur_frequency=1),
            seed=0,
        )
        solver.prepare(reduce=False)
        assert solver.cip is not None
        return solver

    def test_whitelist_filters_heuristics(self):
        solver = self._prepared(("rec_a",))
        rec_a, rec_b = RecA(), RecB()
        solver.cip.include_heuristic(rec_a)
        solver.cip.include_heuristic(rec_b)
        solver.cip.step()
        assert rec_a.calls > 0, "whitelisted heuristic never ran"
        assert rec_b.calls == 0, "non-whitelisted heuristic ran anyway"

    def test_none_means_every_heuristic(self):
        solver = self._prepared(None)
        rec_a, rec_b = RecA(), RecB()
        solver.cip.include_heuristic(rec_a)
        solver.cip.include_heuristic(rec_b)
        solver.cip.step()
        assert rec_a.calls > 0 and rec_b.calls > 0

    def test_empty_portfolio_disables_all(self):
        solver = self._prepared(())
        rec = RecA()
        solver.cip.include_heuristic(rec)
        solver.cip.step()
        assert rec.calls == 0

    @pytest.mark.parametrize(
        "extras, expected",
        [({}, DEFAULT_LANES), ({"stp/race_plugin_sets": True}, PLUGIN_SET_LANES)],
        ids=["portfolios", "plugin_sets"],
    )
    def test_racing_lane_whitelists(self, extras, expected):
        lanes = SteinerUserPlugins().racing_param_sets(8, ParamSet().with_changes(**extras))
        for k, (params, want) in enumerate(zip(lanes, expected)):
            for kind in WHITELISTABLE_KINDS:
                assert params.whitelist_for(kind) == want.get(kind), (k, kind)

    def test_unknown_portfolio_name_rejected(self):
        """A typoed portfolio entry fails at ParamSet construction, not as
        a silently-empty lane at solve time."""
        from repro.exceptions import ModelError

        with pytest.raises(ModelError, match="no_such_heuristic"):
            ParamSet(plugin_whitelists={"heuristic": ("no_such_heuristic",)})


def _two_lane_race(order: tuple[str, str], instance):
    cfg = UGConfig(
        ramp_up="racing",
        # racing may conclude only when a lane actually finishes: an
        # unreachable deadline/threshold isolates time-to-solve as the metric
        racing_deadline=1e9,
        racing_open_node_threshold=10**9,
        status_interval_work=0.0005,
        latency=0.02,
        time_limit=600.0,
        trace_enabled=True,
    )
    res = ug(
        instance.copy(), TwoLanePlugins(order), n_solvers=2, comm="sim",
        params=ParamSet(), config=cfg, seed=1, wall_clock_limit=300.0,
    ).run()
    ev = res.trace.events("solved_in_racing")
    assert ev, "race must conclude by a lane finishing"
    first = order[(ev[0].rank - 1) % 2]
    work = {}
    for e in res.trace.events("work"):
        work[e.rank] = work.get(e.rank, 0.0) + e.data["work"]
    work_of = {order[(rank - 1) % 2]: total for rank, total in work.items()}
    return res, first, work_of


@pytest.mark.fast
class TestStrongerPortfolioWins:
    def test_full_beats_lean_in_both_lane_orders(self):
        fam, config, seed = ORLIB_UNIT
        gi = generate_family(fam, seed=seed, configs=(config,))[0]
        objectives = []
        for order in (("full", "lean"), ("lean", "full")):
            res, first, work_of = _two_lane_race(order, gi.instance)
            assert first == "full", f"lane order {order}: heuristic-free lane finished first"
            assert work_of["lean"] > work_of["full"], order
            assert res.solved
            assert check_ug_steiner_result(gi.instance, res).ok
            objectives.append(res.objective)
        # both lane orders prove the same optimum
        assert math.isclose(objectives[0], objectives[1], rel_tol=1e-9)


class QuarantinePlugins(SteinerUserPlugins):
    """Injects a crashing heuristic into every solver handle."""

    def create_handle(self, instance, node, params, seed, incumbent):
        handle = super().create_handle(instance, node, params, seed, incumbent)
        if handle.cip is not None:
            handle.cip.include_heuristic(CrashingHeuristic())
        return handle

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        # every lane whitelists ONLY the crasher: no working heuristic
        # may mask the containment path under test
        return [
            base.with_changes(
                permutation_seed=k,
                heur_frequency=1,
                plugin_whitelists={"heuristic": ("crash_heur",)},
            )
            for k in range(n)
        ]


@pytest.mark.fast
class TestQuarantinedPortfolio:
    def test_cip_quarantines_crasher_and_stays_exact(self):
        graph = _branching_graph()
        optimum = brute_force_steiner(graph)
        solver = SteinerSolver(
            graph.copy(),
            params=ParamSet(plugin_whitelists={"heuristic": ("crash_heur",)}, heur_frequency=1),
            seed=0,
        )
        solver.prepare(reduce=False)
        crasher = CrashingHeuristic()
        solver.cip.include_heuristic(crasher)
        sol = solver.solve()
        assert math.isclose(sol.cost, optimum, rel_tol=1e-9, abs_tol=1e-6)
        assert solver.cip.quarantine.is_quarantined("crash_heur")
        # exactly max_failures calls reach the plugin, then it is skipped
        assert crasher.calls == solver.cip.params.plugin_max_failures

    def test_race_with_crashing_portfolio_terminates_honestly(self):
        fam, config, seed = ORLIB_UNIT
        gi = generate_family(fam, seed=seed, configs=(config,))[0]
        seq = SteinerSolver(gi.instance.copy(), seed=0).solve()
        cfg = UGConfig(
            ramp_up="racing",
            racing_deadline=0.05,
            racing_open_node_threshold=4,
            status_interval_work=0.0005,
            time_limit=600.0,
            trace_enabled=True,
        )
        res = ug(
            gi.instance.copy(), QuarantinePlugins(), n_solvers=3, comm="sim",
            params=ParamSet(), config=cfg, seed=1, wall_clock_limit=300.0,
        ).run()
        assert res.solved
        assert check_ug_steiner_result(gi.instance, res).ok
        assert math.isclose(res.objective, seq.cost, rel_tol=1e-9, abs_tol=1e-6)
        quarantined = res.trace.events("plugin_quarantined")
        assert any(e.data.get("plugin") == "crash_heur" for e in quarantined), (
            "the crashing heuristic was never quarantined"
        )


@pytest.mark.fast
class TestHistogramReproducibility:
    def test_same_seed_same_histogram(self):
        configs = (("hypercube", {"dim": 4, "perturbed": False, "parity_terminals": True}),)
        a = run_portfolio_races(seeds=(12,), configs=configs)
        b = run_portfolio_races(seeds=(12,), configs=configs)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["n_races"] == 1 and a["certified_races"] == 1
