"""Solution checkers of ``repro.verify``: every checker must accept the
genuine artifact and reject a corrupted copy of it."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.exceptions import VerificationError
from repro.lp.interface import solve_lp
from repro.lp.model import LinearProgram
from repro.sdp.instances import min_k_partitioning
from repro.sdp.solver import MISDPSolver
from repro.steiner.graph import SteinerGraph
from repro.steiner.instances import hypercube_instance
from repro.steiner.prize_collecting import PCSTP
from repro.steiner.transformations import spg_to_sap
from repro.verify import (
    CheckReport,
    check_lp_certificate,
    check_misdp_result,
    check_misdp_solution,
    check_pc_solution,
    check_sap_arborescence,
    check_steiner_tree,
    check_ug_steiner_result,
)

pytestmark = pytest.mark.fast


def path_graph(costs: list[float]) -> SteinerGraph:
    g = SteinerGraph.create(len(costs) + 1)
    for i, c in enumerate(costs):
        g.add_edge(i, i + 1, float(c))
    g.set_terminal(0)
    g.set_terminal(len(costs))
    return g


class TestCheckReport:
    def test_add_and_tallies(self):
        r = CheckReport(subject="t")
        r.add("a", True)
        r.add("b", False, "broken")
        assert (r.passed, r.failed, r.ok) == (1, 1, False)
        assert [c.name for c in r.failures] == ["b"]
        assert "FAIL] b — broken" in r.summary()

    def test_raise_if_failed(self):
        r = CheckReport(subject="t")
        r.add("fine", True)
        r.raise_if_failed()  # no failures: returns quietly
        r.add("bad", False, "detail")
        with pytest.raises(VerificationError, match="bad"):
            r.raise_if_failed()

    def test_merge_and_skip(self):
        a = CheckReport()
        b = CheckReport()
        b.add("x", False)
        a.merge(b)
        assert a.failed == 1
        s = CheckReport().mark_skipped("untraced")
        assert s.skipped and s.ok
        assert "skipped" in s.summary()


class TestLPCertificate:
    def small_lp(self) -> LinearProgram:
        lp = LinearProgram()
        lp.add_variable(0.0, 2.0, -1.0, "x0")
        lp.add_variable(0.0, 2.0, -2.0, "x1")
        lp.add_row({0: 1.0, 1: 1.0}, rhs=2.5, name="cap")
        lp.add_row({0: 1.0, 1: -1.0}, lhs=-1.0, rhs=1.0, name="band")
        return lp

    def test_genuine_certificate_accepted(self):
        lp = self.small_lp()
        sol = solve_lp(lp, "simplex")
        report = check_lp_certificate(lp, sol)
        assert report.ok, report.summary()

    def test_perturbed_primal_rejected(self):
        lp = self.small_lp()
        sol = solve_lp(lp, "simplex")
        bad = dataclasses.replace(sol, x=sol.x + 0.3)
        report = check_lp_certificate(lp, bad)
        assert not report.ok

    def test_wrong_objective_rejected(self):
        lp = self.small_lp()
        sol = solve_lp(lp, "simplex")
        bad = dataclasses.replace(sol, objective=sol.objective - 1.0)
        report = check_lp_certificate(lp, bad)
        assert any(c.name == "objective_recomputed" for c in report.failures)

    def test_flipped_duals_rejected(self):
        lp = self.small_lp()
        sol = solve_lp(lp, "simplex")
        assert np.any(sol.duals != 0.0)  # the cap row must be binding
        bad = dataclasses.replace(sol, duals=-sol.duals)
        report = check_lp_certificate(lp, bad)
        assert not report.ok


class TestSteinerTreeChecker:
    def test_genuine_tree_accepted(self):
        g = path_graph([2.0, 3.0, 4.0])
        report = check_steiner_tree(g, [0, 1, 2], claimed_value=9.0)
        assert report.ok, report.summary()

    def test_wrong_weight_rejected(self):
        g = path_graph([2.0, 3.0, 4.0])
        report = check_steiner_tree(g, [0, 1, 2], claimed_value=8.0)
        assert any(c.name == "weight_recomputed" for c in report.failures)

    def test_disconnected_terminals_rejected(self):
        g = path_graph([2.0, 3.0, 4.0])
        report = check_steiner_tree(g, [0, 2], claimed_value=6.0)
        assert any(c.name == "tree_valid" for c in report.failures)

    def test_cycle_rejected(self):
        g = path_graph([2.0, 3.0])
        g.add_edge(0, 2, 10.0)
        report = check_steiner_tree(g, [0, 1, 2])
        assert any(c.name == "tree_valid" for c in report.failures)


class TestPCChecker:
    def instance(self) -> PCSTP:
        g = SteinerGraph.create(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 5.0)
        return PCSTP(g, np.array([4.0, 4.0, 2.0]))

    def test_genuine_solution_accepted(self):
        # connect 0-1 (cost 1), forgo vertex 2's prize (2): value 3
        report = check_pc_solution(self.instance(), [0], {0, 1}, claimed_value=3.0)
        assert report.ok, report.summary()

    def test_wrong_value_rejected(self):
        report = check_pc_solution(self.instance(), [0], {0, 1}, claimed_value=1.0)
        assert any(c.name == "pc_value_recomputed" for c in report.failures)

    def test_edge_leaving_vertex_set_rejected(self):
        report = check_pc_solution(self.instance(), [0, 1], {0, 1}, claimed_value=6.0)
        assert any(c.name == "pc_tree_valid" for c in report.failures)

    def test_empty_vertex_set_rejected(self):
        report = check_pc_solution(self.instance(), [], set())
        assert any(c.name == "pc_tree_valid" for c in report.failures)


class TestSAPChecker:
    def test_genuine_arborescence_accepted(self):
        g = path_graph([2.0, 3.0])
        sap = spg_to_sap(g, root=0)
        # forward arcs along the path: edge k's root-ward arc is 2k
        arcs = [a for a in range(sap.num_arcs)
                if sap.arc_tail[a] < sap.arc_head[a]]
        report = check_sap_arborescence(sap, arcs, claimed_value=5.0)
        assert report.ok, report.summary()

    def test_arc_into_root_rejected(self):
        g = path_graph([2.0, 3.0])
        sap = spg_to_sap(g, root=0)
        backwards = [a for a in range(sap.num_arcs) if sap.arc_head[a] == 0]
        report = check_sap_arborescence(sap, backwards, claimed_value=2.0)
        assert any(c.name == "arborescence_valid" for c in report.failures)

    def test_unreachable_arc_rejected(self):
        g = path_graph([2.0, 3.0])
        sap = spg_to_sap(g, root=0)
        # only the far arc (1 -> 2): not connected to the root
        far = [a for a in range(sap.num_arcs)
               if sap.arc_tail[a] == 1 and sap.arc_head[a] == 2]
        report = check_sap_arborescence(sap, far)
        assert any(c.name == "arborescence_valid" for c in report.failures)


class TestMISDPChecker:
    def test_genuine_solution_accepted(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        assert sol.y is not None
        report = check_misdp_result(m, sol)
        assert report.ok, report.summary()

    def test_fractional_point_rejected(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        y = np.full(m.num_vars, 0.5)
        report = check_misdp_solution(m, y)
        assert any(c.name == "integrality" for c in report.failures)

    def test_bound_violation_rejected(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        y = np.full(m.num_vars, 2.0)
        report = check_misdp_solution(m, y)
        assert any(c.name == "bounds" for c in report.failures)

    def test_wrong_objective_rejected(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        report = check_misdp_solution(m, sol.y, claimed_value=sol.objective + 5.0)
        assert any(c.name == "objective_recomputed" for c in report.failures)

    def test_broken_weak_duality_rejected(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        bad = dataclasses.replace(sol, dual_bound=sol.objective - 10.0)
        report = check_misdp_result(m, bad)
        assert any(c.name == "weak_duality" for c in report.failures)

    def test_missing_solution_is_trivially_ok(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        empty = dataclasses.replace(sol, y=None)
        report = check_misdp_result(m, empty)
        assert report.ok


class TestUGSteinerChecker:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.apps.stp_plugins import SteinerUserPlugins
        from repro.ug import ug
        from repro.ug.config import UGConfig

        g = hypercube_instance(3, perturbed=True, seed=4)
        solver = ug(g.copy(), SteinerUserPlugins(), n_solvers=2, comm="sim",
                    config=UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6),
                    seed=1, wall_clock_limit=90.0)
        return g, solver.run()

    def test_genuine_result_accepted(self, run):
        g, res = run
        assert res.solved
        report = check_ug_steiner_result(g, res)
        assert report.ok, report.summary()

    def test_tampered_edges_rejected(self, run):
        g, res = run
        edges = list(res.incumbent.payload["edges"])
        tampered = dataclasses.replace(
            res, incumbent=dataclasses.replace(
                res.incumbent, payload={"edges": edges[:-1]}))
        report = check_ug_steiner_result(g, tampered)
        assert not report.ok

    def test_tampered_value_rejected(self, run):
        g, res = run
        tampered = dataclasses.replace(
            res, incumbent=dataclasses.replace(
                res.incumbent, value=res.incumbent.value - 1.0))
        report = check_ug_steiner_result(g, tampered)
        assert any(c.name == "weight_recomputed" for c in report.failures)

    def test_bogus_dual_bound_rejected(self, run):
        g, res = run
        tampered = dataclasses.replace(res, dual_bound=res.objective + 5.0)
        report = check_ug_steiner_result(g, tampered)
        assert any(c.name == "weak_duality" for c in report.failures)

    def test_no_incumbent_is_trivially_ok(self, run):
        g, res = run
        empty = dataclasses.replace(res, incumbent=None)
        report = check_ug_steiner_result(g, empty)
        assert report.ok and any(c.name == "no_incumbent" for c in report.checks)


class TestGapConventions:
    def test_solve_result_gap_opposite_signs_is_inf(self):
        from repro.cip.result import SolveResult, SolveStatus, Solution

        res = SolveResult(status=SolveStatus.NODE_LIMIT,
                          best_solution=Solution(5.0, np.zeros(1)),
                          dual_bound=-5.0, nodes_processed=1)
        assert res.gap == math.inf

    def test_tolerances_rel_gap_opposite_signs_is_inf(self):
        from repro.utils.tolerances import DEFAULT_TOL

        assert DEFAULT_TOL.rel_gap(5.0, -5.0) == math.inf
        assert DEFAULT_TOL.rel_gap(math.inf, 3.0) == math.inf
        assert DEFAULT_TOL.rel_gap(110.0, 100.0) == pytest.approx(10.0 / 110.0)
