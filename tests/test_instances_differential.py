"""Differential sweep: generator zoo vs brute-force oracles (slow tier).

Every tiny-config instance of every family is solved by the CIP kernel
and compared against the exhaustive references in
``repro.verify.differential``; the new primal heuristics must produce
certificate-valid trees on the same instances, and a full
ug[SteinerJack, sim] racing run must survive the UG-level certificate
audit. Runs in the nightly slow job (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import math

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.instances import generate_family, tiny_zoo
from repro.sdp.solver import MISDPSolver
from repro.steiner.heuristics import (
    key_vertex_local_search,
    mst_construction_heuristic,
    repeated_shortest_path_heuristic,
)
from repro.steiner.solver import SteinerSolver
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.verify.differential import brute_force_misdp, brute_force_steiner
from repro.verify.steiner import check_steiner_tree, check_ug_steiner_result

pytestmark = pytest.mark.slow

STP_ZOO = tiny_zoo(seeds=(0, 1, 2), kind="stp")
MISDP_ZOO = tiny_zoo(seeds=(0, 1, 2), kind="misdp")


@pytest.mark.parametrize("gi", STP_ZOO, ids=lambda gi: gi.name)
class TestSteinerDifferential:
    def test_cip_matches_brute_force(self, gi):
        optimum = brute_force_steiner(gi.instance)
        sol = SteinerSolver(gi.instance.copy(), seed=3).solve()
        assert math.isclose(sol.cost, optimum, rel_tol=1e-9, abs_tol=1e-6), gi.name

    def test_mst_construction_certificate_valid(self, gi):
        res = mst_construction_heuristic(gi.instance)
        assert res is not None, f"{gi.name}: construction failed on a connected instance"
        edges, cost = res
        report = check_steiner_tree(gi.instance, edges, cost)
        assert report.ok, f"{gi.name}: {report.render() if hasattr(report, 'render') else report}"
        # a heuristic tree is an upper bound on the optimum
        assert cost >= brute_force_steiner(gi.instance) - 1e-9

    def test_key_vertex_search_improves_and_stays_valid(self, gi):
        start = repeated_shortest_path_heuristic(gi.instance, n_starts=2, seed=5)
        assert start is not None
        edges, cost = key_vertex_local_search(gi.instance, start[0], max_rounds=3, seed=5)
        assert cost <= start[1] + 1e-9, f"{gi.name}: local search worsened the tree"
        assert check_steiner_tree(gi.instance, edges, cost).ok, gi.name


@pytest.mark.parametrize("gi", MISDP_ZOO, ids=lambda gi: gi.name)
class TestMisdpDifferential:
    def test_sdp_approach_matches_brute_force(self, gi):
        ref = brute_force_misdp(gi.instance)
        assert ref is not None, f"{gi.name}: anchored instance must be feasible"
        sol = MISDPSolver(gi.instance, approach="sdp", seed=3).solve(node_limit=5000)
        assert math.isclose(sol.objective, ref[0], rel_tol=1e-4, abs_tol=1e-4), gi.name

    def test_lp_approach_matches_brute_force(self, gi):
        ref = brute_force_misdp(gi.instance)
        assert ref is not None
        sol = MISDPSolver(gi.instance, approach="lp", seed=3).solve(node_limit=5000)
        assert math.isclose(sol.objective, ref[0], rel_tol=1e-4, abs_tol=1e-4), gi.name


class TestUgRacingCertificates:
    def test_racing_run_passes_ug_audit(self):
        gi = generate_family(
            "orlib_random", seed=5, configs=({"n": 30, "m": 60, "n_terminals": 6},)
        )[0]
        seq = SteinerSolver(gi.instance.copy(), seed=0).solve()
        cfg = UGConfig(
            ramp_up="racing",
            racing_deadline=0.02,
            racing_open_node_threshold=8,
            time_limit=60.0,
        )
        res = ug(
            gi.instance.copy(), SteinerUserPlugins(), n_solvers=5, comm="sim",
            params=ParamSet(), config=cfg, seed=1, wall_clock_limit=120.0,
        ).run()
        assert res.solved
        report = check_ug_steiner_result(gi.instance, res)
        assert report.ok, report
        assert math.isclose(res.objective, seq.cost, rel_tol=1e-9, abs_tol=1e-6)

    def test_each_portfolio_run_is_exact(self):
        from repro.apps.stp_plugins import STP_PORTFOLIOS

        gi = generate_family(
            "incidence", seed=2, configs=({"n": 14, "extra_edges": 10, "n_terminals": 4},)
        )[0]
        optimum = brute_force_steiner(gi.instance)
        for _name, portfolio in STP_PORTFOLIOS:
            sol = SteinerSolver(
                gi.instance.copy(),
                params=ParamSet(plugin_whitelists=None if portfolio is None else {"heuristic": portfolio}),
                seed=4,
            ).solve()
            assert math.isclose(sol.cost, optimum, rel_tol=1e-9, abs_tol=1e-6), _name
