"""SCIP-SDP analogue: the customized MISDP CIP solver.

``approach="sdp"`` installs the ADMM relaxator (nonlinear B&B);
``approach="lp"`` drops the relaxator and lets eigenvector cuts + the LP
carry the bounding (the cutting-plane approach). Everything else —
eigcut constraint handler (feasibility), dual fixing, randomized
rounding, integer branching — is shared between the approaches, exactly
as in SCIP-SDP.

UG integration: a subproblem travels as plain variable-bound changes
(``{"bounds": [[i, lb, ub], ...]}``), applied to the root model on
arrival; the CIP presolve layer re-presolves under the received bounds
(layered presolving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cip.branching import MostFractionalBranching
from repro.cip.model import Model, VarType
from repro.cip.node import Node
from repro.cip.params import ParamSet
from repro.cip.propagation import IntegralityPropagator, LinearActivityPropagator
from repro.cip.result import SolveResult, SolveStatus
from repro.cip.solver import CIPSolver
from repro.exceptions import ModelError
from repro.sdp.branching import SpatialBranching
from repro.sdp.eigcuts import EigenvectorCutHandler, initial_diagonal_cuts
from repro.sdp.heuristics import RandomizedRoundingHeuristic
from repro.sdp.model import MISDP
from repro.sdp.propagators import DualFixingPropagator
from repro.sdp.relaxator import SDPRelaxator

BoundChange = tuple[int, float, float]


@dataclass
class MISDPSolution:
    """Final outcome in the original (sup) sense."""

    status: SolveStatus
    objective: float  # b'y of the best solution (-inf if none)
    y: np.ndarray | None
    dual_bound: float  # upper bound on b'y
    nodes_processed: int
    stats: Any = None


class MISDPSolver:
    """High-level MISDP solver supporting both solution approaches."""

    def __init__(
        self,
        misdp: MISDP,
        params: ParamSet | None = None,
        approach: str | None = None,
        seed: int = 0,
    ) -> None:
        if approach is None:
            approach = "sdp"
        if approach not in ("sdp", "lp"):
            raise ModelError(f"unknown approach {approach!r}; use 'sdp' or 'lp'")
        self.misdp = misdp
        self.params = params or ParamSet()
        if self.params.gap_limit <= 0.0:
            # a first-order SDP oracle cannot certify 1e-9 gaps; SCIP-SDP's
            # default relative gap with interior-point backends is similar
            self.params = self.params.with_changes(gap_limit=1e-4)
        # the racing settings encode the approach in the extras
        self.approach = str(self.params.get_extra("misdp/approach", approach))
        self.seed = seed
        self.cip: CIPSolver | None = None

    def prepare(self, bound_changes: tuple[BoundChange, ...] = (), cutoff_value: float | None = None) -> None:
        """Build the CIP for a (sub)problem given UG bound changes."""
        misdp = self.misdp
        model = Model(misdp.name, data=misdp)
        model.obj_sense = -1  # original problem is a maximisation
        lb = misdp.lb.copy()
        ub = misdp.ub.copy()
        for i, lo, hi in bound_changes:
            lb[i] = max(lb[i], lo)
            ub[i] = min(ub[i], hi)
        for i in range(misdp.num_vars):
            vtype = VarType.INTEGER if i in set(misdp.integers) else VarType.CONTINUOUS
            model.add_variable(f"y{i}", vtype, lb=lb[i], ub=ub[i], obj=-float(misdp.b[i]))
        for row in misdp.linear_rows:
            model.add_constraint(dict(row.coefs), row.lhs, row.rhs, row.name)
        int_set = set(misdp.integers)
        model.objective_integral = all(
            (i in int_set and float(misdp.b[i]).is_integer()) or misdp.b[i] == 0.0
            for i in range(misdp.num_vars)
        )

        params = self.params.with_changes(permutation_seed=self.params.permutation_seed + self.seed)
        cip = CIPSolver(model, params)
        cip.include_constraint_handler(EigenvectorCutHandler(misdp))
        cip.include_propagator(IntegralityPropagator())
        cip.include_propagator(LinearActivityPropagator())
        cip.include_propagator(DualFixingPropagator(misdp))
        cip.include_heuristic(RandomizedRoundingHeuristic(misdp))
        cip.include_branching_rule(MostFractionalBranching())
        cip.include_branching_rule(SpatialBranching(misdp))
        if self.approach == "sdp":
            cip.set_relaxator(SDPRelaxator(misdp))
        else:
            for cut in initial_diagonal_cuts(misdp):
                cip.cutpool.add(cut)
        cip.setup()
        if cutoff_value is not None:
            cip.set_cutoff_value(cutoff_value)
        self.cip = cip

    def solve(self, node_limit: int | None = None, time_limit: float | None = None) -> MISDPSolution:
        if self.cip is None:
            self.prepare()
        assert self.cip is not None
        result = self.cip.solve(node_limit=node_limit, time_limit=time_limit)
        return self._to_solution(result)

    def _to_solution(self, result: SolveResult) -> MISDPSolution:
        y = None
        obj = -math.inf
        if result.best_solution is not None:
            if result.best_solution.x is not None:
                y = np.asarray(result.best_solution.x[: self.misdp.num_vars], dtype=float)
            elif result.best_solution.data is not None:
                y = np.asarray(result.best_solution.data, dtype=float)
            obj = -result.best_solution.value  # back to sup sense
        return MISDPSolution(
            result.status,
            obj,
            y,
            -result.dual_bound if math.isfinite(result.dual_bound) else math.inf,
            result.nodes_processed,
            result.stats,
        )

    # -- UG-facing helper ---------------------------------------------------------

    def node_to_subproblem(self, node: Node) -> tuple[BoundChange, ...]:
        """Serialize an extracted CIP node as plain bound changes."""
        return tuple(
            (int(j), float(lo), float(hi)) for j, (lo, hi) in sorted(node.bound_changes.items())
        )
