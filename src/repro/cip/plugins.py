"""Plugin interfaces — the analogue of SCIP's plugin architecture.

Applications implement subsets of these classes and register them on a
:class:`~repro.cip.solver.CIPSolver`. All hooks receive the solver so
they can inspect the model, incumbent, tolerances and parameters; they
must not keep references across solves.

Return-value contracts are deliberately small: hooks communicate through
the typed result dataclasses below, never by mutating solver internals
(the only sanctioned mutations are ``solver.add_solution`` and the
bound-tightening API passed to propagators).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cip.node import Node
    from repro.cip.solver import CIPSolver


@dataclass(frozen=True)
class Cut:
    """A globally valid linear inequality ``lhs <= coefs . x <= rhs``."""

    coefs: tuple[tuple[int, float], ...]
    lhs: float
    rhs: float
    name: str = ""

    @staticmethod
    def from_dict(coefs: dict[int, float], lhs: float = -np.inf, rhs: float = np.inf, name: str = "") -> "Cut":
        return Cut(tuple(sorted(coefs.items())), float(lhs), float(rhs), name)

    def violation(self, x: np.ndarray) -> float:
        """Positive amount by which ``x`` violates the cut (0 if satisfied)."""
        act = sum(c * float(x[j]) for j, c in self.coefs)
        return max(self.lhs - act, act - self.rhs, 0.0)


class PropagationStatus(enum.Enum):
    UNCHANGED = "unchanged"
    REDUCED = "reduced"
    INFEASIBLE = "infeasible"


@dataclass
class PropagationResult:
    """Outcome of one propagation call (status + bound tightenings)."""

    status: PropagationStatus = PropagationStatus.UNCHANGED
    tightenings: int = 0


class RelaxationStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


@dataclass
class RelaxationResult:
    """Outcome of solving a node relaxation (LP or plugin relaxator)."""

    status: RelaxationStatus
    bound: float = float("inf")
    x: np.ndarray | None = None
    work: float = 0.0  # deterministic work units spent (feeds virtual time)


@dataclass
class ChildSpec:
    """Description of one branching child.

    ``bound_changes`` maps variable index to new (lb, ub); ``local_update``
    merges into the node's problem-specific decision record (e.g. the
    Steiner vertex decisions communicated to ParaSolvers, cf. the
    constraint-branching support added in ug-0.8.6).
    """

    bound_changes: dict[int, tuple[float, float]] = field(default_factory=dict)
    local_update: dict[str, Any] = field(default_factory=dict)
    estimate: float | None = None
    local_rows: list[Cut] = field(default_factory=list)


class Plugin:
    """Common base: plugins have a name and a priority (higher runs first).

    Every subclass that declares a ``name`` class attribute is recorded
    in the plugin-name catalog at class-definition time, which is what
    lets :class:`~repro.cip.params.ParamSet` validate whitelists against
    real names instead of silently disabling everything on a typo.
    """

    name: str = "plugin"
    priority: int = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            from repro.cip.registry import note_plugin_name

            note_plugin_name(cls.__dict__["name"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} prio={self.priority}>"


class Presolver(Plugin):
    """Reduces the model before the tree search (and again per subproblem
    inside ParaSolvers — the paper's *layered presolving*)."""

    def presolve(self, solver: "CIPSolver") -> int:
        """Apply reductions in place; return the number of reductions."""
        raise NotImplementedError


class Propagator(Plugin):
    """Tightens local variable bounds at a node."""

    def propagate(self, solver: "CIPSolver", node: "Node") -> PropagationResult:
        raise NotImplementedError


class Separator(Plugin):
    """Produces violated valid inequalities for a relaxation solution."""

    def separate(self, solver: "CIPSolver", node: "Node", x: np.ndarray) -> list[Cut]:
        raise NotImplementedError


class Heuristic(Plugin):
    """Searches for primal solutions; reports them via ``solver.add_solution``."""

    def run(self, solver: "CIPSolver", node: "Node", x: np.ndarray | None) -> None:
        raise NotImplementedError


class BranchingRule(Plugin):
    """Splits a node into children."""

    def branch(self, solver: "CIPSolver", node: "Node", x: np.ndarray | None) -> list[ChildSpec]:
        raise NotImplementedError


class ConstraintHandler(Plugin):
    """Owns a non-linear constraint class (Steiner cuts, SDP blocks).

    ``check`` decides final feasibility of candidate solutions; ``separate``
    cuts off relaxation solutions; ``propagate`` may tighten bounds; if an
    integral relaxation solution fails ``check`` and ``separate`` yields
    nothing, the solver falls back to branching.
    """

    def check(self, solver: "CIPSolver", x: np.ndarray) -> bool:
        raise NotImplementedError

    def separate(self, solver: "CIPSolver", node: "Node", x: np.ndarray) -> list[Cut]:
        return []

    def propagate(self, solver: "CIPSolver", node: "Node") -> PropagationResult:
        return PropagationResult()


class Relaxator(Plugin):
    """Replaces the LP as the node bounding oracle (e.g. the SDP relaxation
    of SCIP-SDP's nonlinear branch-and-bound approach)."""

    def solve(self, solver: "CIPSolver", node: "Node") -> RelaxationResult:
        raise NotImplementedError


class EventHandler(Plugin):
    """Observes solver events (used by UG to harvest solutions/bounds)."""

    def on_new_incumbent(self, solver: "CIPSolver", value: float, data: Any) -> None:
        pass

    def on_node_solved(self, solver: "CIPSolver", node: "Node", bound: float) -> None:
        pass
