"""SDP relaxator plugin — the nonlinear branch-and-bound approach.

At every node the continuous SDP relaxation (under the node's bounds) is
solved by the ADMM engine. Two safeguards mirror SCIP-SDP's engineering:

* if ADMM stalls (typically a Slater-condition violation after
  branching), the *penalty formulation* is retried to decide
  feasibility;
* if the relaxation is feasible but ADMM cannot reach tolerance (highly
  degenerate blocks, e.g. truss compliance with vanishing bars), the node
  is bounded by an internal eigenvector-cut LP loop instead — an outer
  approximation of the SDP cone, hence always a valid bound.

The relaxation depends on the node's bounds alone, so the last main ADMM
result is kept and handed out again (charged the same work) while they
are unchanged, as on the root's cut-loop re-solves.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import Cut, RelaxationResult, RelaxationStatus, Relaxator
from repro.cip.solver import CIPSolver
from repro.lp import HighsLP, LPStatus
from repro.lp.scipy_backend import solve_with_scipy
from repro.sdp.admm import SDPResult, solve_sdp_relaxation
from repro.sdp.linalg import eig_pairs_below
from repro.sdp.model import MISDP

# work-unit model: ADMM iterations dominate; calibrate against LP iters
WORK_PER_ADMM_ITER = 3e-5
WORK_PER_LP_FALLBACK = 5e-3


class SDPRelaxator(Relaxator):
    """Bounds nodes by the continuous SDP relaxation."""

    name = "sdp_relaxator"
    priority = 100

    def __init__(self, misdp: MISDP, max_iter: int = 3000, tol: float = 1e-7) -> None:
        self.misdp = misdp
        self.max_iter = max_iter
        self.tol = tol
        self._fallback_cuts: list[Cut] = []
        self._last: tuple[bytes, SDPResult] | None = None  # (bounds, main ADMM result)

    def _relax(self, lb: np.ndarray, ub: np.ndarray, budget) -> SDPResult:
        """The main ADMM solve, reused while the bounds are byte-identical
        (and no deadline has passed); ``time_limit`` results are not kept."""
        key = lb.tobytes() + ub.tobytes()
        hit = self._last is not None and self._last[0] == key
        if hit and (budget is None or not budget.time_exceeded()):
            res = self._last[1]
        else:
            res = solve_sdp_relaxation(
                self.misdp, lb, ub, max_iter=self.max_iter, tol=self.tol, budget=budget
            )
            self._last = None if res.status == "time_limit" else (key, res)
        return res if res.y is None else dataclasses.replace(res, y=res.y.copy())

    def solve(self, solver: CIPSolver, node: Node) -> RelaxationResult:
        m = self.misdp.num_vars
        lb = solver._local_lb[:m].copy()  # noqa: SLF001 - relaxator is a core plugin
        ub = solver._local_ub[:m].copy()  # noqa: SLF001
        budget = solver.lp_budget
        res = self._relax(lb, ub, budget)
        work = WORK_PER_ADMM_ITER * res.iterations
        if res.status == "infeasible":
            return RelaxationResult(RelaxationStatus.INFEASIBLE, math.inf, None, work)
        if res.status == "time_limit":
            # deadline expired mid-ADMM: no penalty retry, no LP fallback —
            # the node is handed back unbounded so the solve can stop
            return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, work)
        if res.status == "optimal" and res.y is not None:
            bound = -res.safe_upper_bound + solver.model.obj_offset
            return RelaxationResult(RelaxationStatus.OPTIMAL, bound, res.y, work)
        # ADMM stalled — typically a Slater-condition violation after
        # branching. The penalty formulation (min r with C - A(y) + rI >= 0)
        # decides feasibility; bounding falls back to eigenvector-cut LPs.
        pres = solve_sdp_relaxation(
            self.misdp, lb, ub, max_iter=self.max_iter, tol=self.tol, penalty=True, budget=budget
        )
        work += WORK_PER_ADMM_ITER * pres.iterations
        if pres.status == "infeasible":
            return RelaxationResult(RelaxationStatus.INFEASIBLE, math.inf, None, work)
        if pres.status == "time_limit":
            return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, work)
        return self._lp_fallback(solver, lb, ub, work)

    def _lp_fallback(
        self, solver: CIPSolver, lb: np.ndarray, ub: np.ndarray, work: float
    ) -> RelaxationResult:
        misdp = self.misdp
        m = misdp.num_vars
        big = 1e6
        # one loaded LP per call; each round appends its eigenvector cuts
        # (cuts of earlier calls are valid for the cone, so they start in)
        lp = HighsLP(
            -misdp.b,
            np.where(np.isfinite(lb), lb, -big),
            np.where(np.isfinite(ub), ub, big),
        )
        lp.add_rows(misdp.linear_rows)
        lp.add_rows(self._fallback_cuts)
        for _round in range(40):
            sol = solve_with_scipy(lp, budget=solver.lp_budget)
            work += WORK_PER_LP_FALLBACK
            if sol.status is LPStatus.INFEASIBLE:
                return RelaxationResult(RelaxationStatus.INFEASIBLE, math.inf, None, work)
            if sol.status is not LPStatus.OPTIMAL:
                return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, work)
            y = sol.x[:m]
            if solver.budget.time_exceeded():
                # every LP optimum of the outer approximation is a valid
                # bound: stop tightening, keep what is proved
                bound = sol.objective + solver.model.obj_offset
                return RelaxationResult(RelaxationStatus.OPTIMAL, bound, y, work)
            new_cuts: list[Cut] = []
            for block in misdp.blocks:
                Z = block.evaluate(y)
                scale = max(1.0, float(np.abs(Z).max()))
                for lam, v in eig_pairs_below(Z, -1e-7 * scale)[:3]:
                    coefs: dict[int, float] = {}
                    for i, A in block.coefs.items():
                        c = float(v @ A @ v)
                        if abs(c) > 1e-12:
                            coefs[i] = c
                    if coefs:
                        new_cuts.append(Cut.from_dict(coefs, rhs=float(v @ block.C @ v)))
            if not new_cuts:
                bound = sol.objective + solver.model.obj_offset
                return RelaxationResult(RelaxationStatus.OPTIMAL, bound, y, work)
            self._fallback_cuts += new_cuts
            lp.add_rows(new_cuts)
        # outer approximation not yet PSD-tight: the LP value is still a
        # valid bound; return the last iterate for branching
        bound = sol.objective + solver.model.obj_offset
        return RelaxationResult(RelaxationStatus.OPTIMAL, bound, y, work)
