"""Failure-injection tests for the solver-kernel robustness layer.

Covers the ISSUE 3 tentpole: uniform ``LPStatus`` reporting from both
backends, the :class:`RobustLPSolver` failover chain (plain -> scaled ->
perturbed -> switched backend), plugin quarantine (flaky optional
plugins are contained and eventually skipped; essential-plugin failure
degrades the solve to ``NUMERICAL_ERROR`` with a still-valid dual
bound), budget-aware limit enforcement (deadlines honored within one
iteration of simplex, ADMM and the cut loop; soft-memory pressure sheds
the cut pool), and the completeness accounting for dropped subtrees.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg as sla

from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.params import ParamSet
from repro.cip.plugins import (
    BranchingRule,
    ConstraintHandler,
    Cut,
    EventHandler,
    Heuristic,
    PropagationResult,
    Relaxator,
)
from repro.cip.result import SolveStatus
from repro.lp import LinearProgram, LPStatus, RobustLPSolver, solve_lp
from repro.lp.simplex import solve_with_simplex
from repro.obs.trace import Tracer
from repro.sdp.admm import solve_sdp_relaxation
from repro.sdp.model import MISDP
from repro.utils import Budget
from tests.conftest import brute_force_binary_mip


# -- shared helpers -----------------------------------------------------------


class FakeClock:
    """Deterministic clock that advances by ``tick`` on every read."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def small_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_variable(0, 10, obj=-1.0)
    y = lp.add_variable(0, 10, obj=-2.0)
    lp.add_row({x: 1.0, y: 1.0}, rhs=6.0)
    lp.add_row({x: 1.0, y: -1.0}, lhs=-3.0)
    return lp


def knapsack_model() -> Model:
    m = Model("knap")
    vals = [10, 13, 7, 11]
    wts = [3, 4, 2, 3]
    for i in range(4):
        m.add_variable(f"x{i}", VarType.BINARY, obj=-vals[i])
    m.add_constraint({i: float(wts[i]) for i in range(4)}, rhs=7.0)
    return m


def toy_sdp() -> MISDP:
    m = MISDP("toy", b=np.array([1.0]), lb=np.array([-5.0]), ub=np.array([5.0]))
    m.add_block(np.eye(2), {0: np.array([[0.0, -1.0], [-1.0, 0.0]])})
    return m


class FlakyHeuristic(Heuristic):
    name = "flaky_heur"
    priority = 100

    def __init__(self) -> None:
        self.calls = 0

    def run(self, solver, node, x):
        self.calls += 1
        raise RuntimeError("heuristic numerical breakdown")


class FlakyEventHandler(EventHandler):
    name = "flaky_event"

    def on_new_incumbent(self, solver, value, data):
        raise RuntimeError("event handler exploded")


class FailingRelaxator(Relaxator):
    name = "bad_relax"

    def solve(self, solver, node):
        raise RuntimeError("relaxation diverged")


class FailingBranchingRule(BranchingRule):
    name = "bad_branch"
    priority = 1000

    def branch(self, solver, node, x):
        raise RuntimeError("branching score overflow")


class RejectAllHandler(ConstraintHandler):
    """Rejects every candidate and offers no cuts: an unresolvable hole."""

    name = "reject_all"

    def check(self, solver, x):
        return False

    def separate(self, solver, node, x):
        return []

    def propagate(self, solver, node):
        return PropagationResult()


# -- uniform LPStatus reporting (satellite c) ---------------------------------


class TestLPStatusUniformity:
    def test_simplex_singular_basis_returns_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise sla.LinAlgError("injected singular basis")

        monkeypatch.setattr(sla, "lu_factor", boom)
        sol = solve_with_simplex(small_lp())
        assert sol.status is LPStatus.ERROR

    def test_simplex_iteration_limit_status(self):
        sol = solve_with_simplex(small_lp(), max_iter=1)
        assert sol.status is LPStatus.ITERATION_LIMIT

    def test_highs_numerical_failure_returns_error(self, failing_highs):
        failing_highs(1)  # the handle's model status reports a solve error
        sol = solve_lp(small_lp(), "highs")
        assert sol.status is LPStatus.ERROR

    def test_plain_solution_has_empty_attempts(self):
        sol = solve_lp(small_lp(), "highs")
        assert sol.status is LPStatus.OPTIMAL
        assert sol.attempts == []


# -- the failover chain -------------------------------------------------------


class TestRobustLPSolver:
    def test_optimal_short_circuits_chain(self):
        sol = RobustLPSolver("highs").solve(small_lp())
        assert sol.status is LPStatus.OPTIMAL
        assert [a.strategy for a in sol.attempts] == ["plain"]

    def test_scaled_retry_recovers_from_transient_failure(self, monkeypatch):
        real = sla.lu_factor
        state = {"failures": 1}

        def flaky(*args, **kwargs):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise sla.LinAlgError("injected singular basis")
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "lu_factor", flaky)
        sol = RobustLPSolver("simplex").solve(small_lp())
        assert sol.status is LPStatus.OPTIMAL
        assert sol.objective == pytest.approx(-10.5)
        assert [a.strategy for a in sol.attempts] == ["plain", "scaled"]
        assert sol.attempts[0].status is LPStatus.ERROR

    def test_backend_switch_is_the_last_resort(self, monkeypatch):
        def boom(*args, **kwargs):
            raise sla.LinAlgError("injected singular basis")

        monkeypatch.setattr(sla, "lu_factor", boom)  # kills every simplex attempt
        sol = RobustLPSolver("simplex").solve(small_lp())
        assert sol.status is LPStatus.OPTIMAL
        assert sol.objective == pytest.approx(-10.5)
        assert [a.strategy for a in sol.attempts] == ["plain", "scaled", "perturbed", "switched"]
        assert sol.attempts[-1].backend == "highs"

    def test_iteration_limit_escalates_to_other_backend(self):
        sol = RobustLPSolver("simplex").solve(small_lp(), max_iter=1)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.attempts[-1].strategy == "switched"
        assert all(a.status is LPStatus.ITERATION_LIMIT for a in sol.attempts[:-1])

    def test_terminal_infeasible_stops_chain(self):
        lp = LinearProgram()
        x = lp.add_variable(0, 1)
        lp.add_row({x: 1.0}, lhs=2.0)
        sol = RobustLPSolver("highs").solve(lp)
        assert sol.status is LPStatus.INFEASIBLE
        assert len(sol.attempts) == 1

    def test_deadline_stops_chain_between_links(self, monkeypatch):
        def boom(*args, **kwargs):
            raise sla.LinAlgError("injected singular basis")

        monkeypatch.setattr(sla, "lu_factor", boom)
        budget = Budget(time_limit=1.5, clock=FakeClock(1.0)).start()
        sol = RobustLPSolver("simplex", budget=budget).solve(small_lp())
        assert sol.status is LPStatus.TIME_LIMIT
        assert len(sol.attempts) < 4  # surrendered before exhausting the chain


# -- plugin quarantine --------------------------------------------------------


class TestPluginQuarantine:
    def test_flaky_heuristic_is_contained_and_quarantined(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=1))
        heur = FlakyHeuristic()
        solver.include_heuristic(heur)
        tracer = Tracer()
        solver.tracer = tracer
        res = solver.solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-24.0)
        assert solver.quarantine.is_quarantined("flaky_heur")
        assert heur.calls == solver.params.plugin_max_failures  # skipped afterwards
        assert solver.stats.extra["plugins_quarantined"] == 1
        assert len(tracer.events("plugin_failure")) == solver.params.plugin_max_failures
        assert [e.data["plugin"] for e in tracer.events("plugin_quarantined")] == ["flaky_heur"]

    def test_flaky_event_handler_does_not_lose_incumbent(self):
        solver = make_mip_solver(knapsack_model())
        solver.include_event_handler(FlakyEventHandler())
        res = solver.solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-24.0)
        assert solver.stats.extra["plugin_failures"] >= 1

    def test_relaxator_quarantine_degrades_with_valid_bound(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(plugin_max_failures=1))
        solver.set_relaxator(FailingRelaxator())
        tracer = Tracer()
        solver.tracer = tracer
        res = solver.solve()
        assert res.status is SolveStatus.NUMERICAL_ERROR
        assert res.dual_bound <= -24.0 + 1e-9  # still a valid lower bound
        assert solver.stats.extra["numerical_degradations"] == 1
        assert [e.data["reason"] for e in tracer.events("solver_degraded")] == ["relaxator"]

    def test_all_branching_rules_failing_degrades(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        solver.registry.clear("branching")
        solver.include_branching_rule(FailingBranchingRule())
        res = solver.solve()
        assert res.status is SolveStatus.NUMERICAL_ERROR
        assert math.isfinite(res.dual_bound)
        assert res.dual_bound <= -24.0 + 1e-6  # capped by the dropped root
        assert solver.stats.extra["unresolved_nodes"] >= 1

    def test_surviving_branching_rule_keeps_solve_exact(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        solver.include_branching_rule(FailingBranchingRule())  # outranks the others
        res = solver.solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-24.0)
        assert solver.quarantine.is_quarantined("bad_branch")


# -- completeness accounting for dropped subtrees (satellite a) ----------------


class TestUnresolvedNodeAccounting:
    def test_unresolvable_nodes_forfeit_infeasibility_claim(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        solver.include_constraint_handler(RejectAllHandler())
        tracer = Tracer()
        solver.tracer = tracer
        res = solver.solve()
        # every integral point is rejected and no rule can branch further:
        # the pre-robustness kernel claimed INFEASIBLE here
        assert res.status is SolveStatus.UNKNOWN
        assert solver.stats.extra["unresolved_nodes"] >= 1
        assert math.isfinite(res.dual_bound)
        assert len(tracer.events("node_unresolved")) >= 1

    def test_unresolved_subtree_forfeits_optimal_and_caps_dual(self):
        class RejectX3(ConstraintHandler):
            name = "reject_x3"

            def check(self, solver, x):
                return x[3] <= 0.5

            def separate(self, solver, node, x):
                return []

            def propagate(self, solver, node):
                return PropagationResult()

        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        solver.include_constraint_handler(RejectX3())
        res = solver.solve()
        # best solution with x3 = 0 is x0 = x1 = 1 -> -23, but the x3 = 1
        # subtree is dropped unresolved below it, so OPTIMAL is forfeit
        assert res.best_solution is not None
        assert res.objective == pytest.approx(-23.0)
        assert res.status is SolveStatus.UNKNOWN
        assert res.dual_bound <= res.objective + 1e-9


# -- root accounting across resumed solves (satellite b) -----------------------


class TestRootNodeCounting:
    def test_root_counted_once_across_resumed_solves(self):
        one_shot = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        reference = one_shot.solve()

        resumed = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        res = resumed.solve(node_limit=1)
        while res.status is SolveStatus.NODE_LIMIT:
            res = resumed.solve(node_limit=resumed.stats.nodes_processed + 1)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(reference.objective)
        assert resumed.stats.nodes_created == one_shot.stats.nodes_created


# -- budget-aware limit enforcement -------------------------------------------


class TestBudget:
    def test_budget_basics(self):
        clk = FakeClock(1.0)
        b = Budget(time_limit=3.0, node_limit=5, soft_memory_limit_mb=100, clock=clk, rss_mb=lambda: 50)
        assert not b.started
        b.start()
        assert b.limited and b.has_deadline
        assert not b.time_exceeded()  # elapsed 1
        assert b.remaining_time() < 3.0
        assert b.time_exceeded() or b.time_exceeded()  # clock keeps ticking past 3
        assert b.nodes_exceeded(5) and not b.nodes_exceeded(4)
        assert not b.memory_pressure()

    def test_unlimited_budget_is_constant_time_false(self):
        b = Budget().start()
        assert not b.limited
        assert not b.time_exceeded()
        assert not b.nodes_exceeded(10**9)
        assert not b.memory_pressure()

    def test_memory_pressure_uses_injected_probe(self):
        b = Budget(soft_memory_limit_mb=100, rss_mb=lambda: 500).start()
        assert b.limited and b.memory_pressure()

    def test_deadline_mid_simplex_honored_within_one_pivot(self):
        budget = Budget(time_limit=3.0, clock=FakeClock(1.0)).start()
        sol = solve_with_simplex(small_lp(), budget=budget)
        assert sol.status is LPStatus.TIME_LIMIT
        assert sol.iterations <= 4

    def test_deadline_mid_admm_honored_within_one_iteration(self):
        budget = Budget(time_limit=3.0, clock=FakeClock(1.0)).start()
        r = solve_sdp_relaxation(toy_sdp(), budget=budget)
        assert r.status == "time_limit"
        assert r.iterations <= 4

    def test_deadline_mid_solve_is_traced_as_budget_stop(self):
        solver = make_mip_solver(knapsack_model(), ParamSet(lp_backend="simplex", heur_frequency=0))
        tracer = Tracer()
        solver.tracer = tracer
        budget = Budget(time_limit=40.0, clock=FakeClock(1.0)).start()
        res = solver.solve(budget=budget)
        assert res.status is SolveStatus.TIME_LIMIT
        assert solver.stats.extra.get("budget_stops", 0) >= 1
        scopes = {e.data["scope"] for e in tracer.events("budget_exhausted")}
        assert scopes & {"relaxation", "cut_loop", "heuristics"}

    def test_memory_pressure_sheds_cut_pool_and_throttles_heuristics(self):
        solver = make_mip_solver(knapsack_model())
        solver.setup()
        for i in range(10):
            solver.cutpool.add(Cut.from_dict({0: 1.0}, rhs=float(10 + i), name=f"c{i}"))
        assert len(solver.cutpool) == 10
        solver.budget = Budget(soft_memory_limit_mb=100, rss_mb=lambda: 500).start()
        tracer = Tracer()
        solver.tracer = tracer
        solver.step()
        assert len(solver.cutpool) == 5
        assert solver._heur_throttle == 2
        assert solver.stats.extra["memory_pressure_events"] >= 1
        assert tracer.events("memory_pressure")[0].data["cuts_evicted"] == 5


# -- the acceptance storm + determinism ---------------------------------------


class TestAcceptance:
    def _storm_model(self):
        rng = np.random.default_rng(2)  # needs real branching (13 nodes clean)
        n = 8
        c = rng.integers(-9, 10, n).astype(float)
        A = rng.integers(-4, 5, (4, n)).astype(float)
        b = rng.integers(2, 9, 4).astype(float)
        m = Model("storm")
        for i in range(n):
            m.add_variable(vtype=VarType.BINARY, obj=float(c[i]))
        for r in range(4):
            m.add_constraint({i: float(A[r, i]) for i in range(n)}, rhs=float(b[r]))
        return m, c, A, b

    def test_combined_failure_storm_keeps_valid_bound(self, monkeypatch):
        """Always-failing heuristic + intermittent singular bases + a
        mid-relaxation deadline: the pre-robustness kernel crashed with
        LPError here; now the solve must end in a safe status with a
        dual bound that never exceeds the primal."""
        real = sla.lu_factor
        state = {"calls": 0}

        def flaky(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] % 5 == 0:
                raise sla.LinAlgError("injected singular basis")
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "lu_factor", flaky)
        m, c, A, b = self._storm_model()
        params = ParamSet(
            lp_backend="simplex", heur_frequency=1, plugin_max_failures=2, presolve=False
        )
        solver = make_mip_solver(m, params)
        solver.include_heuristic(FlakyHeuristic())
        tracer = Tracer()
        solver.tracer = tracer
        budget = Budget(time_limit=300.0, clock=FakeClock(1.0)).start()
        res = solver.solve(budget=budget)

        assert res.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.TIME_LIMIT,
            SolveStatus.UNKNOWN,
            SolveStatus.NUMERICAL_ERROR,
        )
        if res.best_solution is not None:
            assert res.dual_bound <= res.objective + 1e-6
        if res.status is SolveStatus.OPTIMAL:
            assert res.objective == pytest.approx(brute_force_binary_mip(c, A, b))
        assert solver.quarantine.is_quarantined("flaky_heur")
        assert solver.stats.extra.get("lp_failovers", 0) >= 1
        assert len(tracer.events("lp_failover")) >= 1
        assert len(tracer.events("plugin_quarantined")) >= 1

    def test_robustness_trace_is_deterministic(self):
        def run() -> str:
            solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=1))
            solver.include_heuristic(FlakyHeuristic())
            solver.include_constraint_handler(RejectAllHandler())
            tracer = Tracer()
            solver.tracer = tracer
            solver.solve()
            return tracer.to_jsonl()

        assert run() == run()
