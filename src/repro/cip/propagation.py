"""Generic propagators and presolvers for linear rows."""

from __future__ import annotations

import math

from repro.cip.node import Node
from repro.cip.plugins import (
    Presolver,
    PropagationResult,
    PropagationStatus,
    Propagator,
)
from repro.cip.solver import CIPSolver


class IntegralityPropagator(Propagator):
    """Snap integer-variable bounds to integral values at every node."""

    name = "integrality"
    priority = 100

    def propagate(self, solver: CIPSolver, node: Node) -> PropagationResult:
        tightened = 0
        for j in solver.model.integer_indices:
            lo, hi = solver.local_bounds(j)
            new_lo, new_hi = math.ceil(lo - solver.tol.integrality), math.floor(hi + solver.tol.integrality)
            if new_lo > lo + solver.tol.eps and solver.tighten_lb(j, float(new_lo)):
                tightened += 1
            if new_hi < hi - solver.tol.eps and solver.tighten_ub(j, float(new_hi)):
                tightened += 1
            lo, hi = solver.local_bounds(j)
            if lo > hi + solver.tol.feas:
                return PropagationResult(PropagationStatus.INFEASIBLE)
        status = PropagationStatus.REDUCED if tightened else PropagationStatus.UNCHANGED
        return PropagationResult(status, tightened)


class LinearActivityPropagator(Propagator):
    """Activity-based bound tightening over the explicit linear rows.

    The classical MIP domain-propagation scheme: for each row, minimum and
    maximum activities imply bounds on each participating variable.
    """

    name = "linear_activity"
    priority = 50

    def propagate(self, solver: CIPSolver, node: Node) -> PropagationResult:
        tightened = 0
        for cons in solver.model.constraints:
            items = list(cons.coefs.items())
            min_act = 0.0
            max_act = 0.0
            for j, a in items:
                lo, hi = solver.local_bounds(j)
                if a >= 0:
                    min_act += a * lo
                    max_act += a * hi
                else:
                    min_act += a * hi
                    max_act += a * lo
            if min_act > cons.rhs + solver.tol.feas or max_act < cons.lhs - solver.tol.feas:
                return PropagationResult(PropagationStatus.INFEASIBLE)
            for j, a in items:
                if abs(a) < solver.tol.eps:
                    continue
                lo, hi = solver.local_bounds(j)
                contrib_min = a * lo if a >= 0 else a * hi
                contrib_max = a * hi if a >= 0 else a * lo
                resid_min = min_act - contrib_min
                resid_max = max_act - contrib_max
                if not math.isinf(cons.rhs) and not math.isinf(resid_min):
                    limit = (cons.rhs - resid_min) / a
                    if a > 0 and solver.tighten_ub(j, limit):
                        tightened += 1
                    elif a < 0 and solver.tighten_lb(j, limit):
                        tightened += 1
                if not math.isinf(cons.lhs) and not math.isinf(resid_max):
                    limit = (cons.lhs - resid_max) / a
                    if a > 0 and solver.tighten_lb(j, limit):
                        tightened += 1
                    elif a < 0 and solver.tighten_ub(j, limit):
                        tightened += 1
        status = PropagationStatus.REDUCED if tightened else PropagationStatus.UNCHANGED
        return PropagationResult(status, tightened)


class TrivialPresolver(Presolver):
    """Global bound tightening and empty-row removal before the search."""

    name = "trivial"
    priority = 100

    def presolve(self, solver: CIPSolver) -> int:
        model = solver.model
        reductions = 0
        # integral bound snapping on the global model
        for v in model.variables:
            if v.is_integral:
                new_lb = float(math.ceil(v.lb - solver.tol.integrality))
                new_ub = float(math.floor(v.ub + solver.tol.integrality))
                if new_lb > v.lb or new_ub < v.ub:
                    v.lb, v.ub = new_lb, new_ub
                    reductions += 1
        # drop rows that can never be binding
        kept = []
        for cons in model.constraints:
            min_act = 0.0
            max_act = 0.0
            for j, a in cons.coefs.items():
                v = model.variables[j]
                if a >= 0:
                    min_act += a * v.lb
                    max_act += a * v.ub
                else:
                    min_act += a * v.ub
                    max_act += a * v.lb
            if min_act >= cons.lhs - solver.tol.feas and max_act <= cons.rhs + solver.tol.feas:
                reductions += 1
                continue
            kept.append(cons)
        if len(kept) != len(model.constraints):
            model.constraints = kept
        return reductions
