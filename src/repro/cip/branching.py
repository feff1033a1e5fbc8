"""Generic branching rules for integer variables.

Problem-specific rules (Steiner vertex branching, SDP branching) live in
their applications; most-fractional branching covers plain MIP solving
and serves as the fallback for integral-variable problems.
"""

from __future__ import annotations

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import BranchingRule, ChildSpec
from repro.cip.solver import CIPSolver


def _fractional(solver: CIPSolver, x: np.ndarray) -> list[int]:
    return [j for j in solver.model.integer_indices if not solver.tol.is_integral(float(x[j]))]


def _split(solver: CIPSolver, j: int, value: float) -> list[ChildSpec]:
    lo, hi = solver.local_bounds(j)
    floor_v = float(np.floor(value))
    ceil_v = float(np.ceil(value))
    down = ChildSpec(bound_changes={j: (lo, floor_v)})
    up = ChildSpec(bound_changes={j: (ceil_v, hi)})
    return [down, up]


class MostFractionalBranching(BranchingRule):
    """Branch on the integer variable closest to .5 fractionality.

    Ties are broken by the solver's permutation order, which is how the
    permutation seed of racing ramp-up diversifies search trees.
    """

    name = "mostfractional"
    priority = 10

    def branch(self, solver: CIPSolver, node: Node, x: np.ndarray | None) -> list[ChildSpec]:
        if x is None:
            return self._branch_without_lp(solver)
        frac = _fractional(solver, x)
        if not frac:
            return []
        perm = {j: r for r, j in enumerate(solver.rng.permutation(solver.model.num_variables))}

        def score(j: int) -> tuple[float, int]:
            f = float(x[j]) - float(np.floor(float(x[j])))
            return (min(f, 1 - f), -perm[j])

        best = max(frac, key=score)
        return _split(solver, best, float(x[best]))

    def _branch_without_lp(self, solver: CIPSolver) -> list[ChildSpec]:
        for j in solver.model.integer_indices:
            lo, hi = solver.local_bounds(j)
            if hi - lo > solver.tol.integrality:
                mid = float(np.floor((lo + hi) / 2.0))
                return _split(solver, j, mid + 0.5)
        return []
