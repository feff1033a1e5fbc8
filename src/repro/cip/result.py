"""Solve outcome types."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    GAP_LIMIT = "gap_limit"
    INTERRUPTED = "interrupted"
    # an essential plugin (relaxator, last branching rule) failed beyond
    # recovery: the solve stopped early but its dual bound is still valid
    NUMERICAL_ERROR = "numerical_error"
    UNKNOWN = "unknown"


@dataclass
class Solution:
    """A primal solution.

    ``value`` is in *internal* (minimisation) units; ``data`` is the
    solver-independent payload UG ships between ranks — for pure
    MIPs the variable vector, for Steiner problems the original-graph
    edge set.
    """

    value: float
    x: np.ndarray | None = None
    data: Any = None


@dataclass
class SolveResult:
    """Everything a solve returns."""

    status: SolveStatus
    best_solution: Solution | None
    dual_bound: float
    nodes_processed: int
    stats: "Any" = None

    @property
    def objective(self) -> float:
        if self.best_solution is None:
            return math.inf
        return self.best_solution.value

    @property
    def gap(self) -> float:
        if self.best_solution is None:
            return math.inf
        p, d = self.best_solution.value, self.dual_bound
        if math.isinf(d):
            return math.inf
        if p * d < 0:
            # SCIP convention (same as UGStatistics): bounds on opposite
            # sides of zero give an infinite gap — the relative formula
            # would report a bogus finite value
            return math.inf
        return abs(p - d) / max(abs(p), abs(d), 1.0)


@dataclass
class SolveStats:
    """Counters accumulated during a solve; consumed by UG and benchmarks."""

    nodes_processed: int = 0
    nodes_created: int = 0
    nodes_pruned: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0
    cuts_added: int = 0
    sepa_rounds: int = 0
    propagation_tightenings: int = 0
    heuristic_solutions: int = 0
    presolve_reductions: int = 0
    root_work: float = 0.0
    total_work: float = 0.0
    root_bound: float = -math.inf
    extra: dict[str, float] = field(default_factory=dict)

    def bump(self, key: str, amount: float = 1.0) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount
