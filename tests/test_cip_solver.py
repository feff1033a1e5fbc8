"""Tests for the CIP solve loop: MIP correctness, limits, plugins, events."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.params import ParamSet
from repro.cip.plugins import EventHandler, Heuristic, Presolver
from repro.cip.result import SolveStatus
from repro.cip.solver import CIPSolver
from repro.exceptions import PluginError
from tests.conftest import brute_force_binary_mip


def knapsack_model() -> Model:
    m = Model("knap")
    vals = [10, 13, 7, 11]
    wts = [3, 4, 2, 3]
    for i in range(4):
        m.add_variable(f"x{i}", VarType.BINARY, obj=-vals[i])
    m.add_constraint({i: float(wts[i]) for i in range(4)}, rhs=7.0)
    return m


class TestMIPSolve:
    def test_knapsack_optimal(self):
        res = make_mip_solver(knapsack_model()).solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-24.0)
        assert res.gap == pytest.approx(0.0, abs=1e-9)

    def test_infeasible(self):
        m = Model()
        m.add_variable(vtype=VarType.INTEGER, lb=0, ub=10, obj=1.0)
        m.add_constraint({0: 2.0}, lhs=3.0, rhs=3.0)
        res = make_mip_solver(m).solve()
        assert res.status is SolveStatus.INFEASIBLE
        assert res.best_solution is None

    def test_continuous_only(self):
        m = Model()
        m.add_variable(lb=0, ub=4, obj=-1.0)
        res = make_mip_solver(m).solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-4.0)

    def test_node_limit(self):
        m = Model()
        # a problem needing branching: maximize sum x_i with parity rows
        for i in range(8):
            m.add_variable(vtype=VarType.BINARY, obj=-1.0)
        m.add_constraint({i: 1.0 for i in range(8)}, rhs=4.5)
        solver = make_mip_solver(m, ParamSet(heur_frequency=0, presolve=False))
        res = solver.solve(node_limit=1)
        assert res.nodes_processed <= 1

    def test_objective_integral_cutoff(self):
        m = knapsack_model()
        m.objective_integral = True
        solver = make_mip_solver(m)
        res = solver.solve()
        assert res.objective == pytest.approx(-24.0)

    def test_callback_interrupt(self):
        m = knapsack_model()
        solver = make_mip_solver(m, ParamSet(heur_frequency=0))
        res = solver.solve(callback=lambda s: False)
        assert res.status is SolveStatus.INTERRUPTED

    def test_maximisation_via_sense(self):
        m = Model(obj_sense=-1)
        m.add_variable(vtype=VarType.INTEGER, lb=0, ub=3, obj=-2.0)  # internal min(-2x)
        res = make_mip_solver(m).solve()
        assert m.external_objective(res.objective) == pytest.approx(6.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_binary_vs_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        c = rng.integers(-9, 10, n).astype(float)
        A = rng.integers(-4, 5, (3, n)).astype(float)
        b = rng.integers(2, 9, 3).astype(float)
        m = Model()
        for i in range(n):
            m.add_variable(vtype=VarType.BINARY, obj=float(c[i]))
        for r in range(3):
            m.add_constraint({i: float(A[r, i]) for i in range(n)}, rhs=float(b[r]))
        expected = brute_force_binary_mip(c, A, b)
        res = make_mip_solver(m).solve(node_limit=2000)
        if expected is None:
            assert res.status is SolveStatus.INFEASIBLE
        else:
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(expected, abs=1e-6)


class TestPlugins:
    def test_double_registration_rejected(self):
        solver = make_mip_solver(knapsack_model())
        with pytest.raises(PluginError):
            from repro.cip.heuristics import RoundingHeuristic

            solver.include_heuristic(RoundingHeuristic())

    def test_relaxator_single(self):
        from repro.cip.plugins import Relaxator

        class Dummy(Relaxator):
            name = "dummy"

        solver = CIPSolver(knapsack_model())
        solver.set_relaxator(Dummy())
        with pytest.raises(PluginError):
            solver.set_relaxator(Dummy())

    def test_step_requires_setup(self):
        solver = CIPSolver(knapsack_model())
        with pytest.raises(PluginError):
            solver.step()

    def test_event_handler_sees_incumbents(self):
        events = []

        class Recorder(EventHandler):
            name = "recorder"

            def on_new_incumbent(self, solver, value, data):
                events.append(value)

        solver = make_mip_solver(knapsack_model())
        solver.include_event_handler(Recorder())
        solver.solve()
        assert events and min(events) == pytest.approx(-24.0)

    def test_presolver_fixpoint(self):
        calls = []

        class Once(Presolver):
            name = "once"

            def presolve(self, solver):
                calls.append(1)
                return 0

        solver = CIPSolver(knapsack_model())
        solver.include_presolver(Once())
        solver.presolve()
        assert len(calls) == 1  # zero reductions -> no second round

    def test_heuristic_frequency_zero_disables(self):
        ran = []

        class Spy(Heuristic):
            name = "spy"

            def run(self, solver, node, x):
                ran.append(1)

        solver = make_mip_solver(knapsack_model(), ParamSet(heur_frequency=0))
        solver.include_heuristic(Spy())
        solver.solve()
        assert not ran


class TestIncumbentManagement:
    def test_add_solution_rejects_worse(self):
        solver = make_mip_solver(knapsack_model())
        solver.setup()
        assert solver.add_solution(-10.0, np.array([1.0, 0, 0, 1.0]), check=True)
        assert not solver.add_solution(-5.0, np.array([1.0, 0, 0, 0]), check=True)

    def test_add_solution_checks_feasibility(self):
        solver = make_mip_solver(knapsack_model())
        solver.setup()
        # weight 13 > 7: infeasible, must be rejected
        assert not solver.add_solution(-41.0, np.array([1.0, 1.0, 1.0, 1.0]), check=True)

    def test_set_cutoff_prunes(self):
        solver = make_mip_solver(knapsack_model())
        solver.setup()
        solver.set_cutoff_value(-1000.0)
        out = solver.step()
        assert out.finished
        # cutoff below optimum: everything pruned, no solution retained

    def test_dual_bound_before_setup(self):
        solver = make_mip_solver(knapsack_model())
        assert solver.dual_bound() == -math.inf
