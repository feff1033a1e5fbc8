"""Convenience assembly of a plain MIP solver from the generic plugins.

This is the "SCIP as a MIP solver" configuration: the same plugin slots
the customized applications fill, loaded with the generic defaults.
"""

from __future__ import annotations

from repro.cip.branching import MostFractionalBranching
from repro.cip.heuristics import DivingHeuristic, RoundingHeuristic
from repro.cip.model import Model
from repro.cip.params import ParamSet
from repro.cip.propagation import (
    IntegralityPropagator,
    LinearActivityPropagator,
    TrivialPresolver,
)
from repro.cip.solver import CIPSolver
from repro.utils import DEFAULT_TOL, Tolerances


def make_mip_solver(
    model: Model,
    params: ParamSet | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CIPSolver:
    """Build a :class:`CIPSolver` with the standard MIP plugin stack."""
    solver = CIPSolver(model, params, tol)
    solver.include_presolver(TrivialPresolver())
    solver.include_propagator(IntegralityPropagator())
    solver.include_propagator(LinearActivityPropagator())
    solver.include_heuristic(RoundingHeuristic())
    solver.include_heuristic(DivingHeuristic())
    solver.include_branching_rule(MostFractionalBranching())
    return solver
