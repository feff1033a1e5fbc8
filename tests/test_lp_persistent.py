"""Differential oracles and failure paths for the persistent node LP.

``CIPSolver`` keeps its relaxation loaded in one HiGHS handle and
re-solves it warm after pushing bound/row deltas.  Every test here runs
with the ``warm_vs_cold`` oracle armed: after each warm solve the same
node LP is materialised from scratch (``_build_lp``), cold-solved, and
the warm answer must match it and carry a valid optimality certificate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cip.heuristics import DivingHeuristic
from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.node import Node
from repro.cip.params import ParamSet
from repro.cip.plugins import Cut, RelaxationStatus
from repro.cip.result import SolveStatus
from repro.cip.solver import CIPSolver
from repro.instances import tiny_zoo
from repro.lp import HighsLP, LinearProgram, LPStatus, solve_lp
from repro.lp.scipy_backend import highs_binding, solve_with_scipy
from repro.obs.trace import Tracer
from repro.sdp.solver import MISDPSolver
from repro.steiner.solver import SteinerSolver
from repro.utils import Budget
from repro.verify.lp import check_lp_certificate
from tests.conftest import brute_force_binary_mip
from tests.test_cip_solver import knapsack_model


@pytest.fixture
def warm_vs_cold(monkeypatch):
    """After every warm node-LP solve, cold-solve ``_build_lp()`` too and
    require equal status, equal objective and a passing certificate of
    the warm solution against the cold materialisation."""
    seen = {"checked": 0}
    real = CIPSolver._solve_node_lp

    def checked(self: CIPSolver):
        sol = real(self)
        if self._node_lp is None:  # simplex backend, or this solve fell back cold
            return sol
        lp = self._build_lp()
        assert self._node_lp.num_rows == lp.num_rows == len(self._node_lp_rows)
        cold = solve_lp(lp, "highs")
        assert sol.status is cold.status
        if sol.status is LPStatus.OPTIMAL:
            assert abs(sol.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
            report = check_lp_certificate(lp, sol)
            assert report.ok, report.summary()
        seen["checked"] += 1
        return sol

    monkeypatch.setattr(CIPSolver, "_solve_node_lp", checked)
    return seen


def random_binary_model(seed: int, n: int = 8, m: int = 4):
    rng = np.random.default_rng(seed)
    c = rng.integers(-9, 10, n).astype(float)
    A = rng.integers(-4, 5, (m, n)).astype(float)
    b = rng.integers(2, 9, m).astype(float)
    model = Model(f"rand{seed}")
    for i in range(n):
        model.add_variable(vtype=VarType.BINARY, obj=float(c[i]))
    for r in range(m):
        model.add_constraint({i: float(A[r, i]) for i in range(n)}, rhs=float(b[r]))
    return model, brute_force_binary_mip(c, A, b)


# -- the binding -----------------------------------------------------------------


def test_binding_exposes_the_incremental_api():
    """A scipy upgrade that moves or trims the vendored binding must fail
    here, not as an ImportError inside a solve."""
    handle = highs_binding()._Highs
    for name in (
        "addRows",
        "deleteRows",
        "changeColsBounds",
        "run",
        "getSolution",
        "getInfo",
        "getModelStatus",
        "setOptionValue",
    ):
        assert callable(getattr(handle, name)), name


# -- (a) warm vs cold over the zoo and the generic MIP models --------------------


@pytest.mark.parametrize("gi", tiny_zoo(kind="stp"), ids=lambda gi: gi.name)
def test_stp_zoo_warm_solves_match_cold(gi, warm_vs_cold):
    solver = SteinerSolver(gi.instance.copy(), seed=3)
    sol = solver.solve()
    assert sol.status is SolveStatus.OPTIMAL
    if solver.cip is not None and solver.cip.stats.lp_solves:
        assert warm_vs_cold["checked"] == solver.cip.stats.extra["lp_warm_solves"]
        assert solver.cip.stats.extra.get("lp_cold_fallbacks", 0) == 0


@pytest.mark.parametrize("gi", tiny_zoo(kind="misdp"), ids=lambda gi: gi.name)
def test_misdp_zoo_lp_approach_warm_solves_match_cold(gi, warm_vs_cold):
    solver = MISDPSolver(gi.instance, approach="lp", seed=3)
    solver.solve(node_limit=5000)
    assert warm_vs_cold["checked"] == solver.cip.stats.lp_solves > 0
    assert solver.cip.stats.extra.get("lp_cold_fallbacks", 0) == 0


@pytest.mark.parametrize("seed", range(12))
def test_random_binary_mips_warm_solves_match_cold(seed, warm_vs_cold):
    model, expected = random_binary_model(seed)
    res = make_mip_solver(model).solve(node_limit=2000)
    if expected is None:
        assert res.status is SolveStatus.INFEASIBLE
    else:
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-6)
    assert warm_vs_cold["checked"] > 0


def test_knapsack_and_infeasible_models(warm_vs_cold):
    assert make_mip_solver(knapsack_model()).solve().objective == pytest.approx(-24.0)
    model = Model()
    model.add_variable(vtype=VarType.INTEGER, lb=0, ub=10, obj=1.0)
    model.add_constraint({0: 2.0}, lhs=3.0, rhs=3.0)
    assert make_mip_solver(model).solve().status is SolveStatus.INFEASIBLE
    assert warm_vs_cold["checked"] > 0


# -- the diving heuristic dives in the node, not in a relaxation of it ------------


def test_dive_respects_the_nodes_local_rows():
    """Without the local row ``x0 <= 0`` the dive ends at x0 = 1 (worth
    -3); inside the node the best it can reach is x1 = 1."""
    model = Model("dive")
    for obj in (-3.0, -1.0, -1.0):
        model.add_variable(vtype=VarType.BINARY, obj=obj)
    model.add_constraint({0: 1.0, 1: 1.0, 2: 1.0}, rhs=1.5)
    solver = make_mip_solver(model, ParamSet(presolve=False))
    solver.setup()
    node = Node(1, 0, 1, -10.0, local_rows=(Cut.from_dict({0: 1.0}, rhs=0.0, name="branch"),))
    solver._current_node = node
    assert solver._install_local_bounds(node)
    x = solver._solve_node_lp().x
    assert x[0] == pytest.approx(0.0)
    DivingHeuristic().run(solver, node, x)
    assert solver.incumbent is not None
    assert all(row.violation(solver.incumbent.x) <= 1e-9 for row in node.local_rows)
    assert solver.incumbent.value == pytest.approx(-1.0)


# -- (c) failure paths ------------------------------------------------------------


def test_forced_error_falls_back_cold_once_and_stays_exact(failing_highs, warm_vs_cold):
    model, expected = random_binary_model(2)
    solver = make_mip_solver(model)
    solver.tracer = Tracer()
    solver.setup()
    solver.step()  # the root: a handle is loaded and has a basis
    first_handle = solver._node_lp
    assert first_handle is not None
    failing_highs(1)  # the next run of any handle reports kSolveError
    res = solver.solve(node_limit=2000)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(expected, abs=1e-6)
    assert model.check_linear(res.best_solution.x)
    assert solver.stats.extra["lp_cold_fallbacks"] == 1
    assert solver._node_lp is not None and solver._node_lp is not first_handle
    (event,) = solver.tracer.events("lp_cold_fallback")
    assert event.data["status"] == "error"
    assert event.data["lp_cold_fallbacks"] == 1 and event.data["lp_warm_solves"] >= 2


def _slow_lp(seed: int = 0, n: int = 400, m: int = 300) -> LinearProgram:
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    for _ in range(n):
        lp.add_variable(0.0, 10.0, float(rng.uniform(-1, 1)))
    for _ in range(m):
        cols = rng.choice(n, 30, replace=False)
        lp.add_row({int(j): float(rng.uniform(0.1, 1)) for j in cols}, rhs=float(rng.uniform(5, 20)))
    return lp


def test_expiring_budget_yields_time_limit_within_the_deadline():
    warm = HighsLP.from_program(_slow_lp())
    assert solve_with_scipy(warm).status is LPStatus.OPTIMAL  # ~10 ms on the handle's clock
    lb, ub = np.zeros(400), np.full(400, 10.0)
    ub[:50] = 0.0
    warm.set_col_bounds(lb, ub)
    start = time.perf_counter()
    sol = solve_with_scipy(warm, budget=Budget(time_limit=1e-4).start())
    assert sol.status is LPStatus.TIME_LIMIT
    assert time.perf_counter() - start < 0.5
    # the limit is per solve, not cumulative over the handle's life
    assert solve_with_scipy(warm, budget=Budget(time_limit=60.0).start()).status is LPStatus.OPTIMAL
    assert solve_with_scipy(warm).status is LPStatus.OPTIMAL
    spent = Budget(time_limit=1e-9).start()
    assert solve_with_scipy(_slow_lp(1), budget=spent).status is LPStatus.TIME_LIMIT


def test_memory_pressure_mid_solve_resyncs_the_loaded_rows(warm_vs_cold):
    model, expected = random_binary_model(2)
    solver = make_mip_solver(model, ParamSet(presolve=False))
    solver.setup()
    solver.step()
    for i in range(10):  # globally valid (slack) cuts, so the optimum is unchanged
        solver.cutpool.add(Cut.from_dict({i % 8: 1.0}, rhs=float(2 + i), name=f"c{i}"))
    solver.step()
    assert solver._node_lp_rows == [*model.constraints, *solver.cutpool]
    solver._relieve_memory_pressure()
    assert len(solver.cutpool) == 5
    dropped_before = solver.stats.extra.get("lp_rows_dropped", 0)
    solver.step()
    assert solver._node_lp_rows[: len(model.constraints) + 5] == [*model.constraints, *solver.cutpool]
    assert solver.stats.extra["lp_rows_dropped"] >= dropped_before + 10
    res = solver.solve(node_limit=2000)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(expected, abs=1e-6)


def test_second_setup_reuses_the_handle_and_stays_exact(warm_vs_cold):
    """The ParaSolver pattern: one CIPSolver, one subproblem after another."""
    model, expected = random_binary_model(5)
    solver = make_mip_solver(model)
    first = solver.solve(node_limit=2000)
    handle = solver._node_lp
    assert handle is not None
    checked = warm_vs_cold["checked"]
    # a received subproblem: x0 fixed to 1, fresh tree, no incumbent carried
    solver.incumbent = None
    solver.setup(root_bounds={0: (1.0, 1.0)})
    second = solver.solve(node_limit=2000)
    assert solver._node_lp is handle
    assert warm_vs_cold["checked"] > checked
    sub_model, sub_expected = random_binary_model(5)
    sub_model.variables[0].lb = 1.0
    reference = make_mip_solver(sub_model, ParamSet(lp_backend="simplex")).solve(node_limit=2000)
    assert second.status is reference.status
    if reference.status is SolveStatus.OPTIMAL:
        assert second.objective == pytest.approx(reference.objective, abs=1e-6)
    assert first.objective == pytest.approx(expected, abs=1e-6)


# -- the SDP relaxator's eigenvector-cut LP loop -----------------------------------


@pytest.mark.parametrize("gi", tiny_zoo(kind="misdp"), ids=lambda gi: gi.name)
def test_sdp_lp_fallback_reaches_the_bound_of_a_cold_rebuild(gi):
    """The loop appends its cuts to one loaded LP; its bound must be the
    optimum of the LP rebuilt from scratch with every cut it generated."""
    misdp = gi.instance
    solver = MISDPSolver(misdp, approach="sdp", seed=0)
    solver.prepare()
    cip, relaxator = solver.cip, solver.cip.relaxator
    big = 1e6
    lb = np.where(np.isfinite(misdp.lb), misdp.lb, -big)
    ub = np.where(np.isfinite(misdp.ub), misdp.ub, big)
    res = relaxator._lp_fallback(cip, misdp.lb.copy(), misdp.ub.copy(), 0.0)
    assert res.status is RelaxationStatus.OPTIMAL
    # PSD-tight, so the last LP solved already held every cut
    for block in misdp.blocks:
        Z = block.evaluate(res.x)
        assert np.linalg.eigvalsh(Z).min() >= -1e-6 * max(1.0, float(np.abs(Z).max()))
    lp = LinearProgram()
    for i in range(misdp.num_vars):
        lp.add_variable(lb[i], ub[i], -float(misdp.b[i]))
    for row in [*misdp.linear_rows, *relaxator._fallback_cuts]:
        lp.add_row(dict(row.coefs), row.lhs, row.rhs)
    cold = solve_lp(lp, "simplex")
    assert cold.status is LPStatus.OPTIMAL
    assert res.bound == pytest.approx(cold.objective + cip.model.obj_offset, abs=1e-6)
    assert lp.is_feasible(res.x, 1e-6)
