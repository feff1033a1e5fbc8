"""The UserPlugins interface — the ScipUserPlugins analogue.

This is the *only* thing an application author writes to parallelize a
customized CIP solver: how to presolve the instance once at the
LoadCoordinator, how to build the CIP kernel for a received subproblem
(performing the second presolving layer), two encoders that serialize
an extracted tree node and a new solution, and (optionally) the racing
parameter sets. The generic :class:`CIPHandle` drives the kernel. The
shipped glue files in :mod:`repro.apps` each do this in well under 200
lines, reproducing the paper's headline claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.cip.params import ParamSet
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution

if TYPE_CHECKING:
    from repro.cip.node import Node
    from repro.cip.result import Solution
    from repro.cip.solver import CIPSolver


@dataclass
class HandleStep:
    """Result of one base-solver step inside a ParaSolver.

    ``work`` is the deterministic work-unit cost of the step (virtual
    seconds under the SimEngine; informational under threads).
    """

    finished: bool
    work: float
    dual_bound: float
    n_open: int
    solutions: list[ParaSolution] = field(default_factory=list)
    nodes_processed: int = 0
    # base-solver termination status (a SolveStatus value string, e.g.
    # "optimal" or "numerical_error"); empty for legacy handles.  UG uses
    # it to distinguish a contained numerical failure from a clean finish.
    status: str = ""


class SolverHandle:
    """A running base-solver instance working on one subproblem.

    The four methods :class:`~repro.ug.para_solver.ParaSolver` calls;
    :class:`CIPHandle` implements them for every CIP application.
    """

    def step(self) -> HandleStep:
        """Process one B&B node; must be reentrant between messages."""
        raise NotImplementedError

    def attach_telemetry(self, tracer: Any, rank: int = 0) -> None:
        """Point the wrapped kernel at the run's shared tracer so
        quarantine/failover/budget events land in the UG trace.
        Default: no-op (handles without a CIP kernel)."""
        return None

    def extract_para_node(self) -> ParaNode | None:
        """Remove one heavy open node in solver-independent form, or None."""
        raise NotImplementedError

    def inject_incumbent_value(self, value: float) -> None:
        """Install an externally found primal bound."""
        raise NotImplementedError


class CIPHandle(SolverHandle):
    """Drives a :class:`~repro.cip.solver.CIPSolver` on one UG subproblem.

    The ScipParaSolver analogue: the application builds the kernel and
    passes two encoders, ``encode_node`` (extracted open node → ParaNode
    payload) and ``encode_solution`` (new incumbent → solution payload).
    ``cip=None`` is a subproblem the second presolve layer settled: the
    first step finishes and reports ``settled``, if given.
    """

    def __init__(
        self,
        cip: CIPSolver | None,
        encode_node: Callable[[Node], dict[str, Any]] | None = None,
        encode_solution: Callable[[Solution], Any] | None = None,
        settled: ParaSolution | None = None,
    ) -> None:
        self.cip = cip
        self.encode_node = encode_node
        self.encode_solution = encode_solution
        self._settled = [] if settled is None else [settled]

    def step(self) -> HandleStep:
        cip = self.cip
        if cip is None:
            sols, self._settled = self._settled, []
            return HandleStep(True, 1e-4, math.inf, 0, sols, 1, status="optimal")
        out = cip.step()
        sols = []
        if out.new_solution is not None:
            payload = self.encode_solution(out.new_solution)
            sols = [ParaSolution(out.new_solution.value, payload)]
        return HandleStep(
            out.finished, out.work, cip.dual_bound(), cip.n_open(), sols, 1, status=out.status.value
        )

    def attach_telemetry(self, tracer: Any, rank: int = 0) -> None:
        if self.cip is not None:
            self.cip.tracer = tracer
            self.cip.trace_rank = rank

    def extract_para_node(self) -> ParaNode | None:
        node = None if self.cip is None else self.cip.extract_open_node()
        if node is None:
            return None
        return ParaNode(payload=self.encode_node(node), dual_bound=node.lower_bound, depth=node.depth)

    def inject_incumbent_value(self, value: float) -> None:
        if self.cip is not None:
            self.cip.set_cutoff_value(value)


class UserPlugins:
    """Application glue: build handles, serialize nodes, racing settings."""

    #: human-readable base-solver name, used for ug[<name>, <lib>] naming
    base_solver_name: str = "CIP"

    def presolve_instance(self, instance: Any, params: ParamSet, seed: int) -> Any:
        """LoadCoordinator-level presolve (first layer); default: identity."""
        return instance

    def root_para_node(self, instance: Any) -> ParaNode:
        """The root subproblem (empty payload by default)."""
        return ParaNode(payload={})

    def create_handle(
        self,
        instance: Any,
        node: ParaNode,
        params: ParamSet,
        seed: int,
        incumbent: ParaSolution | None,
    ) -> SolverHandle:
        """Build a base solver for ``node`` (second presolving layer here)."""
        raise NotImplementedError

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        """Parameter sets for racing ramp-up (customized racing hook).

        The default diversifies only the permutation seed, the minimal
        diversification the paper describes for FiberSCIP.
        """
        return [base.with_changes(permutation_seed=k) for k in range(n)]
