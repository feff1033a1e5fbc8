"""Generic primal heuristics: rounding and LP diving."""

from __future__ import annotations

import math

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import Heuristic
from repro.cip.solver import CIPSolver
from repro.lp import HighsLP, LPStatus
from repro.lp.scipy_backend import solve_with_scipy


class RoundingHeuristic(Heuristic):
    """Round the relaxation solution to the nearest integers and check."""

    name = "rounding"
    priority = 10

    def run(self, solver: CIPSolver, node: Node, x: np.ndarray | None) -> None:
        if x is None:
            return
        cand = np.asarray(x, dtype=float).copy()
        for j in solver.model.integer_indices:
            lo, hi = solver.local_bounds(j)
            cand[j] = min(max(round(float(cand[j])), math.ceil(lo - solver.tol.feas)), math.floor(hi + solver.tol.feas))
        value = solver.model.objective_value(cand)
        if solver.add_solution(value, cand, check=True):
            solver.stats.heuristic_solutions += 1


class DivingHeuristic(Heuristic):
    """Iteratively fix the least-fractional variable and re-solve the LP.

    A bounded-depth LP dive; stops at the first infeasibility. Fixing
    order uses the solver permutation for tie-breaking, so racing settings
    genuinely diversify the dives.
    """

    name = "diving"
    priority = 5

    def __init__(self, max_depth: int = 30) -> None:
        self.max_depth = max_depth

    def run(self, solver: CIPSolver, node: Node, x: np.ndarray | None) -> None:
        if x is None or solver.relaxator is not None:
            return
        model = solver.model
        # the node's own relaxation (pool cuts and local rows included);
        # with HiGHS it is loaded once and every depth is a warm re-solve
        lp = solver._build_lp()  # noqa: SLF001 - core heuristic
        warm = HighsLP.from_program(lp) if solver.params.lp_backend == "highs" else None
        lb, ub = solver._local_lb.copy(), solver._local_ub.copy()  # noqa: SLF001

        cur = np.asarray(x, dtype=float).copy()
        perm = {j: r for r, j in enumerate(solver.rng.permutation(model.num_variables))}
        for _depth in range(self.max_depth):
            frac = [j for j in model.integer_indices if not solver.tol.is_integral(float(cur[j]))]
            if not frac:
                value = model.objective_value(cur)
                if solver.add_solution(value, cur, check=True):
                    solver.stats.heuristic_solutions += 1
                return
            j = min(frac, key=lambda k: (min(cur[k] - math.floor(cur[k]), math.ceil(cur[k]) - cur[k]), perm[k]))
            target = min(max(float(round(cur[j])), lb[j]), ub[j])
            lb[j] = ub[j] = target
            if warm is not None:
                warm.set_col_bounds(lb, ub)
                sol = solve_with_scipy(warm, budget=solver.lp_budget)
            else:
                lp.set_bounds(j, target, target)
                sol = solver.solve_lp_robust(lp)
            if sol.status is not LPStatus.OPTIMAL:
                return
            cur = sol.x
