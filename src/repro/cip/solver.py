"""The CIP branch-cut-and-propagate solver.

The solver is a plugin host (cf. :mod:`repro.cip.plugins`) around a
classical LP/relaxator-based branch-and-bound loop. Two entry styles:

* :meth:`CIPSolver.solve` — run to completion (sequential use), and
* the step API (:meth:`setup` + :meth:`step`) — process one node at a
  time, which is what lets :mod:`repro.ug` drive many solver instances
  from its LoadCoordinator event loop: a ParaSolver interleaves ``step``
  calls with message handling exactly as Algorithm 2 of the paper
  interleaves solving with communication.

Deterministic *work units* (an abstract cost measured from LP/relaxator
iteration counts) are accumulated per step; the UG virtual-time backend
turns them into simulated wall-clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cip.cutpool import CutPool
from repro.cip.model import Model
from repro.cip.node import Node
from repro.cip.params import ParamSet
from repro.cip.plugins import (
    BranchingRule,
    ConstraintHandler,
    EventHandler,
    Heuristic,
    Plugin,
    PropagationResult,
    PropagationStatus,
    Presolver,
    Propagator,
    RelaxationResult,
    RelaxationStatus,
    Relaxator,
    Separator,
)
from repro.cip.quarantine import EssentialPluginFailure, PluginQuarantine
from repro.cip.registry import PluginRegistry
from repro.cip.result import SolveResult, SolveStats, SolveStatus, Solution
from repro.cip.tree import NodeTree
from repro.exceptions import PluginError
from repro.lp import HighsLP, LinearProgram, LPSolution, LPStatus, RobustLPSolver
# re-exported: the perf ledger's span recorder wraps ``solve_lp`` here by name
from repro.lp import solve_lp  # noqa: F401
from repro.lp.scipy_backend import solve_with_scipy
from repro.obs.trace import NULL_TRACER
from repro.utils import Budget, DEFAULT_TOL, Stopwatch, Tolerances, make_rng

# deterministic work-unit model (abstract seconds)
WORK_PER_NODE = 1e-3
WORK_PER_LP_ITER = 2e-4
WORK_PER_CUT = 5e-5

# tailing off: stop re-solving the cut loop once a round improves the
# bound by less than this (relative) amount
MIN_BOUND_IMPROVE = 1e-6


@dataclass
class StepOutcome:
    """Result of processing one node via the step API."""

    finished: bool
    status: SolveStatus
    work: float
    new_solution: Solution | None = None


class CIPSolver:
    """Branch-cut-and-propagate solver over a :class:`~repro.cip.model.Model`."""

    def __init__(
        self,
        model: Model,
        params: ParamSet | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ) -> None:
        self.model = model
        self.params = params or ParamSet()
        self.tol = tol

        # ordered plugin registry: the one plugin surface (include_* below
        # and registry.* for direct mutation)
        self.registry = PluginRegistry()
        # the one counter store: stats.extra via stats.bump
        self.stats = SolveStats()
        self.cutpool = CutPool()
        self.incumbent: Solution | None = None
        self.rng = make_rng(self.params.permutation_seed)

        # robustness layer: quarantine ledger, LP failover chain, budget,
        # trace endpoint (UG attaches its shared tracer here)
        self.tracer = NULL_TRACER
        self.trace_rank = 0
        self.budget = Budget(soft_memory_limit_mb=self.params.soft_memory_limit_mb)
        self.quarantine = PluginQuarantine(max_failures=self.params.plugin_max_failures)
        self._robust_lp = RobustLPSolver(self.params.lp_backend)
        # the relaxation kept loaded in HiGHS (lp_backend="highs") and the
        # row objects loaded into it, in order; created at the first solve,
        # kept across setup() calls, dropped when a solve fails
        self._node_lp: HighsLP | None = None
        self._node_lp_rows: list[Any] = []
        self._degraded: str | None = None  # reason, once an essential plugin failed
        self._lost_bound = math.inf  # min lower bound over dropped (unresolved) nodes
        self._heur_throttle = 1  # heuristic frequency multiplier under memory pressure
        # how the node being processed was resolved: (outcome, children, value)
        # — consumed by step() to emit the bb_node audit event
        self._node_outcome: tuple[str, int, float | None] = ("branched", 0, None)

        self._tree: NodeTree | None = None
        self._node_counter = 0
        self._presolved = False
        self._clock = Stopwatch()
        self._current_node: Node | None = None
        self._local_lb: np.ndarray | None = None
        self._local_ub: np.ndarray | None = None
        self._root_processed = False

    # -- plugin registration ------------------------------------------------

    def include_presolver(self, p: Presolver) -> None:
        self.registry.register("presolver", p)

    def include_propagator(self, p: Propagator) -> None:
        self.registry.register("propagator", p)

    def include_separator(self, p: Separator) -> None:
        self.registry.register("separator", p)

    def include_heuristic(self, p: Heuristic) -> None:
        self.registry.register("heuristic", p)

    def include_branching_rule(self, p: BranchingRule) -> None:
        self.registry.register("branching", p)

    def include_constraint_handler(self, p: ConstraintHandler) -> None:
        self.registry.register("conshdlr", p)

    def include_event_handler(self, p: EventHandler) -> None:
        self.registry.register("event", p)

    def set_relaxator(self, r: Relaxator) -> None:
        self.registry.register("relaxator", r)

    @property
    def relaxator(self) -> Relaxator | None:
        return self.registry.relaxator

    def _active(self, kind: str) -> list[Plugin]:
        """Plugins of a kind surviving the ParamSet whitelist, in order.

        Quarantine is *not* filtered here: call sites keep their own
        containment semantics (``_guarded`` skips, branching counts
        quarantined rules as failed for essential-failure detection).
        """
        return self.registry.active(kind, whitelist=self.params.whitelist_for(kind))

    # -- robustness layer ---------------------------------------------------

    def _emit(self, kind: str, **data: Any) -> None:
        """Trace a kernel event at the deterministic work clock."""
        if self.tracer.enabled:
            self.tracer.emit(self.stats.total_work, kind, self.trace_rank, **data)

    def _emit_bb_node(
        self,
        node: Node,
        bound_in: float,
        outcome: str,
        children: int,
        value: float | None,
        cutoff: float,
        processed: bool,
    ) -> None:
        """Trace how one popped node was resolved (the tree-audit record).

        ``processed=False`` marks nodes pruned at selection time, before
        :meth:`_process_node` ran (they do not count into
        ``stats.nodes_processed``).
        """
        if not self.tracer.enabled:
            return
        data: dict[str, Any] = {
            "node": node.node_id,
            "parent": node.parent_id,
            "depth": node.depth,
            "bound_in": bound_in,
            "bound": node.lower_bound,
            "outcome": outcome,
            "children": children,
            "cutoff": cutoff,
            "processed": processed,
        }
        if value is not None:
            data["value"] = value
        self.tracer.emit(self.stats.total_work, "bb_node", self.trace_rank, **data)

    def _record_plugin_failure(self, plugin: Plugin, kind: str, exc: BaseException) -> bool:
        """Ledger one failed callback; returns True when it trips quarantine."""
        tripped, count = self.quarantine.record_failure(plugin.name, exc)
        self.stats.bump("plugin_failures")
        self._emit(
            "plugin_failure",
            plugin=plugin.name,
            callback=kind,
            error=f"{type(exc).__name__}: {exc}",
            failures=count,
        )
        if tripped:
            self.stats.bump("plugins_quarantined")
            self._emit("plugin_quarantined", plugin=plugin.name, callback=kind, failures=count)
        return tripped

    def _guarded(self, plugin: Plugin, kind: str, default: Any, call: Callable[[], Any]) -> Any:
        """Containment shim for non-essential plugin callbacks.

        A quarantined plugin is skipped outright; an exception is recorded
        (quarantining the plugin after ``params.plugin_max_failures``) and
        replaced by ``default`` — the solve continues without the plugin's
        contribution, which is always sound for optional callbacks.
        """
        if self.quarantine.is_quarantined(plugin.name):
            return default
        try:
            return call()
        except Exception as exc:
            self._record_plugin_failure(plugin, kind, exc)
            return default

    def _degrade(self, reason: str, node: Node | None = None) -> None:
        """Mark the solve degraded by an essential-plugin failure.

        The search stops at the next :meth:`step` with
        ``SolveStatus.NUMERICAL_ERROR``; dropping ``node`` caps the
        reported dual bound so it stays valid for the unexplored part.
        """
        if node is not None:
            self._lost_bound = min(self._lost_bound, node.lower_bound)
        if self._degraded is None:
            self._degraded = reason
            self.stats.bump("numerical_degradations")
            self._emit("solver_degraded", reason=reason)

    def _count(self, key: str, amount: int = 1) -> None:
        if amount:
            self.stats.bump(key, amount)

    def _note_budget_stop(self, scope: str) -> None:
        self.stats.bump("budget_stops")
        self._emit("budget_exhausted", scope=scope)

    def _relieve_memory_pressure(self) -> None:
        """Graceful degradation above the soft-memory ceiling: shed the
        cut pool (cuts are regenerable) and halve heuristic frequency."""
        evicted = self.cutpool.shrink(0.5)
        self._heur_throttle = min(self._heur_throttle * 2, 64)
        self.stats.bump("memory_pressure_events")
        self._emit("memory_pressure", cuts_evicted=evicted, heur_throttle=self._heur_throttle)

    @property
    def lp_budget(self) -> Budget | None:
        """The solve budget as LP backends take it: None when unlimited."""
        return self.budget if self.budget.limited else None

    def solve_lp_robust(self, lp: LinearProgram, **kwargs: Any) -> LPSolution:
        """Solve an LP through the failover chain (plain → scaled →
        perturbed → switched backend), honoring the solve budget.

        Public: plugin relaxators and heuristics should route their
        auxiliary LPs here instead of calling ``solve_lp`` directly, so
        they inherit failover and deadline enforcement.
        """
        self._robust_lp.budget = self.lp_budget
        sol = self._robust_lp.solve(lp, **kwargs)
        if len(sol.attempts) > 1:
            self.stats.bump("lp_failovers")
            self._emit(
                "lp_failover",
                path=[f"{a.backend}/{a.strategy}:{a.status.value}" for a in sol.attempts],
                status=sol.status.value,
            )
        return sol

    # -- presolve ------------------------------------------------------------

    def presolve(self) -> int:
        """Run presolver plugins to a fixpoint; returns total reductions.

        Called once before the tree search — and called *again* inside
        every ParaSolver on each received subproblem (layered presolving).
        """
        if not self.params.presolve:
            self._presolved = True
            return 0
        total = 0
        for _round in range(20):
            round_reductions = 0
            for pre in self._active("presolver"):
                round_reductions += self._guarded(pre, "presolve", 0, lambda p=pre: p.presolve(self))
            total += round_reductions
            if round_reductions == 0:
                break
        self.stats.presolve_reductions += total
        self._presolved = True
        return total

    # -- incumbent management --------------------------------------------

    @property
    def cutoff_bound(self) -> float:
        """Nodes with lower bound >= this value are pruned."""
        if self.incumbent is None:
            return math.inf
        val = self.incumbent.value
        if getattr(self.model, "objective_integral", False):
            return val - 1.0 + self.tol.feas
        return val - self.tol.optimality * max(1.0, abs(val))

    def add_solution(
        self,
        value: float,
        x: np.ndarray | None = None,
        data: Any = None,
        check: bool = True,
    ) -> bool:
        """Offer a primal solution; keeps it if it improves the incumbent.

        With ``check=True`` and an available ``x``, linear rows and
        constraint handlers validate the point first.
        """
        if self.incumbent is not None and value >= self.incumbent.value - self.tol.eps:
            return False
        if check and x is not None:
            if not self.model.check_linear(x, self.tol.feas):
                return False
            if not self._check_candidate(x):
                return False
        self.incumbent = Solution(value, None if x is None else np.asarray(x, dtype=float).copy(), data)
        self._emit("bb_incumbent", value=value, source="solution")
        if self._tree is not None:
            self.stats.nodes_pruned += self._tree.prune_worse_than(self.cutoff_bound)
        for ev in self._active("event"):
            self._guarded(ev, "on_new_incumbent", None, lambda e=ev: e.on_new_incumbent(self, value, data))
        return True

    def set_cutoff_value(self, value: float) -> None:
        """Install an externally known primal bound (UG incumbent sharing)."""
        if self.incumbent is None or value < self.incumbent.value:
            self.incumbent = Solution(value, None, None)
            self._emit("bb_incumbent", value=value, source="external")
            if self._tree is not None:
                self.stats.nodes_pruned += self._tree.prune_worse_than(self.cutoff_bound)

    # -- bounds at the current node ----------------------------------------

    def local_bounds(self, j: int) -> tuple[float, float]:
        assert self._local_lb is not None and self._local_ub is not None
        return float(self._local_lb[j]), float(self._local_ub[j])

    def tighten_lb(self, j: int, value: float) -> bool:
        """Raise the local lower bound of variable ``j``; True if changed."""
        assert self._local_lb is not None
        if value > self._local_lb[j] + self.tol.eps:
            self._local_lb[j] = value
            self.stats.propagation_tightenings += 1
            return True
        return False

    def tighten_ub(self, j: int, value: float) -> bool:
        """Lower the local upper bound of variable ``j``; True if changed."""
        assert self._local_ub is not None
        if value < self._local_ub[j] - self.tol.eps:
            self._local_ub[j] = value
            self.stats.propagation_tightenings += 1
            return True
        return False

    @property
    def current_node(self) -> Node | None:
        return self._current_node

    # -- tree state -----------------------------------------------------------

    def setup(
        self,
        root_bounds: dict[int, tuple[float, float]] | None = None,
        root_local_data: dict[str, Any] | None = None,
        root_estimate: float = -math.inf,
    ) -> None:
        """Initialise the tree with a single root node.

        ``root_bounds``/``root_local_data`` seed the root with a received
        subproblem (UG ParaSolver use); plain solves pass nothing.
        """
        if not self._presolved:
            self.presolve()
        self._tree = NodeTree(self.params.node_selection)
        root = Node(0, -1, 0, root_estimate, dict(root_bounds or {}), dict(root_local_data or {}))
        self._node_counter = 1
        self._tree.push(root)
        self.stats.nodes_created += 1  # the root, counted once per tree
        self._root_processed = False
        if self.tracer.enabled:
            self._emit("plugin_spec", spec=self.registry.spec())

    def n_open(self) -> int:
        return 0 if self._tree is None else len(self._tree)

    def dual_bound(self) -> float:
        """Global dual (lower) bound of the current search state.

        Dropped (unresolved) subtrees cap the bound: whatever proof the
        explored tree carries, the lost part may still hide solutions down
        to ``_lost_bound``.  The bound never exceeds the incumbent value.
        """
        if self._tree is None:
            return -math.inf
        bounds = [self._tree.best_bound(), self._lost_bound]
        if self._current_node is not None:
            bounds.append(self._current_node.lower_bound)
        bound = min(bounds)
        if math.isinf(bound) and bound > 0:  # tree empty, nothing lost: proven
            return self.incumbent.value if self.incumbent is not None else math.inf
        if self.incumbent is not None:
            bound = min(bound, self.incumbent.value)
        return bound

    def _final_status(self) -> SolveStatus:
        """Status once the tree is exhausted, honoring completeness holes.

        With unresolved nodes dropped below the incumbent value, neither
        OPTIMAL nor INFEASIBLE can be claimed (the lost subtree may hide a
        better solution) — same contract as UG's abandoned racing subtrees.
        """
        if self.incumbent is None:
            return SolveStatus.UNKNOWN if math.isfinite(self._lost_bound) else SolveStatus.INFEASIBLE
        if math.isfinite(self._lost_bound) and self.incumbent.value > self._lost_bound + self.tol.eps:
            return SolveStatus.UNKNOWN
        return SolveStatus.OPTIMAL

    def extract_open_node(self) -> Node | None:
        """Remove the heaviest open node (UG load balancing)."""
        if self._tree is None:
            return None
        return self._tree.extract_heaviest()

    # -- the step API -----------------------------------------------------------

    def step(self) -> StepOutcome:
        """Process one branch-and-bound node; returns what happened."""
        if self._tree is None:
            raise PluginError("setup() must be called before step()")
        if self._degraded is not None:
            return StepOutcome(True, SolveStatus.NUMERICAL_ERROR, 0.0)
        if self.budget.memory_pressure():
            self._relieve_memory_pressure()
        work = 0.0
        new_solution: Solution | None = None
        cutoff = self.cutoff_bound

        while self._tree:
            node = self._tree.pop()
            if node.lower_bound >= cutoff:
                self.stats.nodes_pruned += 1
                self._emit_bb_node(node, node.lower_bound, "pruned_bound", 0, None, cutoff, False)
                continue
            break
        else:
            return StepOutcome(True, self._final_status(), 0.0)

        self._current_node = node
        is_root = not self._root_processed
        incumbent_before = self.incumbent
        bound_in = node.lower_bound
        self._node_outcome = ("branched", 0, None)
        work += WORK_PER_NODE
        try:
            work += self._process_node(node, is_root)
        finally:
            self._current_node = None
            self._root_processed = True
        self.stats.nodes_processed += 1
        self.stats.total_work += work
        outcome, n_children, sol_value = self._node_outcome
        # cutoff re-read after processing: mid-node incumbents tighten it,
        # and the last prune decision inside the node used the live value
        self._emit_bb_node(node, bound_in, outcome, n_children, sol_value, self.cutoff_bound, True)
        if is_root:
            self.stats.root_work = work
            self.stats.root_bound = self.dual_bound()
        if self.incumbent is not incumbent_before:
            new_solution = self.incumbent

        if self._degraded is not None:
            # essential-plugin failure during this node: stop with a valid
            # dual bound instead of propagating the crash
            return StepOutcome(True, SolveStatus.NUMERICAL_ERROR, work, new_solution)
        if not self._tree:
            return StepOutcome(True, self._final_status(), work, new_solution)
        if self.incumbent is not None:
            gap = self.tol.rel_gap(self.incumbent.value, self.dual_bound())
            if gap <= self.params.gap_limit:
                return StepOutcome(True, SolveStatus.GAP_LIMIT, work, new_solution)
        return StepOutcome(False, SolveStatus.UNKNOWN, work, new_solution)

    # -- node processing internals -----------------------------------------

    def _install_local_bounds(self, node: Node) -> bool:
        n = self.model.num_variables
        self._local_lb = np.array([v.lb for v in self.model.variables], dtype=float)
        self._local_ub = np.array([v.ub for v in self.model.variables], dtype=float)
        for j, (lo, hi) in node.bound_changes.items():
            if j >= n:
                continue
            self._local_lb[j] = max(self._local_lb[j], lo)
            self._local_ub[j] = min(self._local_ub[j], hi)
        return not np.any(self._local_lb > self._local_ub + self.tol.feas)

    def _propagate(self, node: Node) -> PropagationStatus:
        overall = PropagationStatus.UNCHANGED
        for _round in range(5):
            changed = False
            for prop in self._active("propagator"):
                res = self._guarded(
                    prop, "propagate", PropagationResult(), lambda p=prop: p.propagate(self, node)
                )
                if res.status is PropagationStatus.INFEASIBLE:
                    return PropagationStatus.INFEASIBLE
                if res.status is PropagationStatus.REDUCED:
                    changed = True
            for h in self.registry.plugins("conshdlr"):
                res = self._guarded(
                    h, "propagate", PropagationResult(), lambda p=h: p.propagate(self, node)
                )
                if res.status is PropagationStatus.INFEASIBLE:
                    return PropagationStatus.INFEASIBLE
                if res.status is PropagationStatus.REDUCED:
                    changed = True
            if changed:
                overall = PropagationStatus.REDUCED
            else:
                break
            assert self._local_lb is not None and self._local_ub is not None
            if np.any(self._local_lb > self._local_ub + self.tol.feas):
                return PropagationStatus.INFEASIBLE
        return overall

    def _node_rows(self) -> list[Any]:
        """The rows of the current node's relaxation, in LP order:
        model constraints, the global cut pool, the node's local rows."""
        rows = [*self.model.constraints, *self.cutpool]
        if self._current_node is not None:
            rows += self._current_node.local_rows
        return rows

    def _build_lp(self) -> LinearProgram:
        """The current node's relaxation materialised from scratch: what
        ``lp_backend="simplex"`` solves, what a failed warm solve falls
        back to, and the reference the warm path is tested against."""
        assert self._local_lb is not None and self._local_ub is not None
        lp = LinearProgram()
        for v in self.model.variables:
            lp.add_variable(self._local_lb[v.index], self._local_ub[v.index], v.obj, v.name)
        for row in self._node_rows():
            lp.add_row(dict(row.coefs), row.lhs, row.rhs, row.name)
        return lp

    def _sync_node_lp(self) -> HighsLP:
        """Bring the loaded LP to the current node's relaxation.

        Changed column bounds are pushed as a diff.  Rows are
        ``[model constraints | cut pool | node.local_rows]``: the longest
        prefix already loaded (same objects, same order) stays, the rest
        of what is loaded is truncated and what is missing is appended —
        new cuts, a switch of node and pool eviction are all this one
        case.
        """
        assert self._local_lb is not None and self._local_ub is not None
        variables = self.model.variables
        lp = self._node_lp
        if lp is None or lp.num_cols != len(variables):
            lp = self._node_lp = HighsLP([v.obj for v in variables], self._local_lb, self._local_ub)
            self._node_lp_rows = []
        else:
            self._count("lp_bound_changes", lp.set_col_bounds(self._local_lb, self._local_ub))
        want = self._node_rows()
        keep = 0
        for loaded, wanted in zip(self._node_lp_rows, want):
            if loaded is not wanted:
                break
            keep += 1
        self._count("lp_rows_dropped", lp.truncate_rows(keep))
        lp.add_rows(want[keep:])
        self._count("lp_rows_added", len(want) - keep)
        self._node_lp_rows = want
        return lp

    def _solve_node_lp(self) -> LPSolution:
        """Solve the current node's LP relaxation.

        With HiGHS the loaded model is synced and re-solved from the
        basis it kept; a solve that fails numerically drops the handle
        and runs the cold failover chain on a fresh :meth:`_build_lp`.
        """
        if self.params.lp_backend != "highs":
            return self.solve_lp_robust(self._build_lp())
        sol = solve_with_scipy(self._sync_node_lp(), budget=self.lp_budget)
        self._count("lp_warm_solves")
        if sol.status not in (LPStatus.ERROR, LPStatus.ITERATION_LIMIT):
            return sol
        self._node_lp = None
        self._count("lp_cold_fallbacks")
        self._emit(
            "lp_cold_fallback",
            status=sol.status.value,
            **{k: v for k, v in self.stats.extra.items() if k.startswith("lp_")},
        )
        cold = self.solve_lp_robust(self._build_lp())
        cold.iterations += sol.iterations
        return cold

    def _solve_relaxation(self, node: Node, is_root: bool) -> RelaxationResult:
        if self.relaxator is not None:
            # the relaxator is essential: its exceptions are contained, but
            # tripping quarantine degrades the whole solve (there is no
            # substitute bounding oracle to fall back on)
            try:
                res = self.relaxator.solve(self, node)
            except Exception as exc:
                if self._record_plugin_failure(self.relaxator, "relax", exc):
                    self._degrade("relaxator")
                self.stats.lp_solves += 1
                return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, WORK_PER_NODE)
            self.stats.lp_solves += 1
            return res
        sol = self._solve_node_lp()
        self.stats.lp_solves += 1
        self.stats.lp_iterations += sol.iterations
        work = WORK_PER_LP_ITER * max(sol.iterations, 1)
        if sol.status is LPStatus.INFEASIBLE:
            return RelaxationResult(RelaxationStatus.INFEASIBLE, math.inf, None, work)
        if sol.status is LPStatus.UNBOUNDED:
            return RelaxationResult(RelaxationStatus.UNBOUNDED, -math.inf, None, work)
        if sol.status is LPStatus.TIME_LIMIT:
            self._note_budget_stop("relaxation")
            return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, work)
        if sol.status is not LPStatus.OPTIMAL:
            # the whole failover chain surrendered: relaxation unavailable,
            # the node is still resolved by branching on the raw problem
            return RelaxationResult(RelaxationStatus.FAILED, -math.inf, None, work)
        bound = sol.objective + self.model.obj_offset
        return RelaxationResult(RelaxationStatus.OPTIMAL, bound, sol.x, work)

    def _separate(self, node: Node, x: np.ndarray, is_root: bool) -> tuple[int, float]:
        """One separation round; returns (#cuts added, work)."""
        added = 0
        work = 0.0
        budget = self.params.max_cuts_per_round
        for plugin in self.registry.plugins("conshdlr") + self._active("separator"):
            if added >= budget:
                break
            sep = getattr(plugin, "separate", None)
            if sep is None:
                continue
            cuts = self._guarded(plugin, "separate", (), lambda s=sep: s(self, node, x))
            for cut in cuts:
                if added >= budget:
                    break
                if cut.violation(x) <= self.tol.feas:
                    continue
                if self.cutpool.add(cut):
                    added += 1
                    work += WORK_PER_CUT
        self.stats.cuts_added += added
        self.stats.sepa_rounds += 1
        return added, work

    def _fractional_candidates(self, x: np.ndarray) -> list[int]:
        frac = [
            j
            for j in self.model.integer_indices
            if not self.tol.is_integral(float(x[j]))
        ]
        return frac

    def _check_candidate(self, x: np.ndarray) -> bool:
        # check() is the feasibility gate: it is never skipped by
        # quarantine, and a crashing check conservatively rejects the
        # candidate (accepting an unverified point could corrupt the
        # incumbent, rejecting only costs a solution)
        for h in self.registry.plugins("conshdlr"):
            try:
                ok = h.check(self, x)
            except Exception as exc:
                self._record_plugin_failure(h, "check", exc)
                return False
            if not ok:
                return False
        return True

    def _run_heuristics(self, node: Node, x: np.ndarray | None, is_root: bool) -> None:
        freq = self.params.heur_frequency * self._heur_throttle
        if freq <= 0:
            return
        if not is_root and self.stats.nodes_processed % freq != 0:
            return
        if self.budget.time_exceeded():
            self._note_budget_stop("heuristics")
            return
        for heur in self._active("heuristic"):
            self._guarded(heur, "run", None, lambda h=heur: h.run(self, node, x))

    def _branch(self, node: Node, x: np.ndarray | None) -> int:
        rules = self._active("branching")
        failed = 0
        for rule in rules:
            if self.quarantine.is_quarantined(rule.name):
                failed += 1
                continue
            try:
                children = rule.branch(self, node, x)
            except Exception as exc:
                failed += 1
                self._record_plugin_failure(rule, "branch", exc)
                continue
            if children:
                assert self._tree is not None
                n_pushed = 0
                for spec in children:
                    est = spec.estimate if spec.estimate is not None else node.lower_bound
                    child = node.child(
                        self._node_counter,
                        spec.bound_changes,
                        spec.local_update,
                        est,
                        tuple(spec.local_rows),
                    )
                    self._node_counter += 1
                    if child.lower_bound < self.cutoff_bound:
                        self._tree.push(child)
                        n_pushed += 1
                    else:
                        self.stats.nodes_pruned += 1
                self.stats.nodes_created += n_pushed
                return n_pushed
        if rules and failed == len(rules):
            # branching is essential: when the *last* usable rule fails by
            # exception/quarantine the node cannot be split at all
            raise EssentialPluginFailure("every branching rule failed; cannot split the node")
        raise PluginError("no branching rule produced children for an unresolved node")

    def _process_node(self, node: Node, is_root: bool) -> float:
        work = 0.0
        if not self._install_local_bounds(node):
            self.stats.nodes_pruned += 1
            self._node_outcome = ("infeasible", 0, None)
            return work
        if self._propagate(node) is PropagationStatus.INFEASIBLE:
            self.stats.nodes_pruned += 1
            self._node_outcome = ("infeasible", 0, None)
            return work

        max_rounds = self.params.max_sepa_rounds_root if is_root else self.params.max_sepa_rounds
        x: np.ndarray | None = None
        bound = node.lower_bound
        rounds = 0
        while True:
            rel = self._solve_relaxation(node, is_root)
            work += rel.work
            if rel.status is RelaxationStatus.INFEASIBLE:
                self.stats.nodes_pruned += 1
                self._node_outcome = ("infeasible", 0, None)
                return work
            if rel.status in (RelaxationStatus.UNBOUNDED, RelaxationStatus.FAILED):
                # cannot bound: resolve by branching on the raw node
                x = None
                break
            x = rel.x
            prev_bound = bound
            bound = max(bound, rel.bound)
            node.lower_bound = bound
            if bound >= self.cutoff_bound:
                self.stats.nodes_pruned += 1
                self._node_outcome = ("pruned_bound", 0, None)
                return work
            assert x is not None
            if rounds >= max_rounds:
                break
            if self.budget.time_exceeded():
                # deadline hit mid-cut-loop: keep the bound proved so far
                self._note_budget_stop("cut_loop")
                break
            n_cuts, sep_work = self._separate(node, x, is_root)
            work += sep_work
            rounds += 1
            if n_cuts == 0:
                break
            if rounds > 1 and bound - prev_bound < MIN_BOUND_IMPROVE * max(1.0, abs(bound)):
                # tailing off: keep the cuts but stop re-solving
                break

        for ev in self._active("event"):
            self._guarded(ev, "on_node_solved", None, lambda e=ev: e.on_node_solved(self, node, bound))

        if x is not None:
            # lazy-constraint loop: an integral relaxation point rejected by
            # a constraint handler must be cut off (possibly by a pool cut
            # the tailing-off shortcut never re-solved against) until it is
            # either feasible, fractional, or the node is pruned.
            for _attempt in range(100):
                frac = self._fractional_candidates(x)
                if frac:
                    break
                if self._check_candidate(x):
                    value = self.model.objective_value(x)
                    self.add_solution(value, x, check=False)
                    self._node_outcome = ("solution", 0, value)
                    return work
                n_cuts, sep_work = self._separate(node, x, is_root)
                work += sep_work
                stale = n_cuts == 0 and (
                    any(cut.violation(x) > self.tol.feas for cut in self.cutpool)
                    or any(row.violation(x) > self.tol.feas for row in node.local_rows)
                )
                if n_cuts == 0 and not stale:
                    break  # nothing cuts it off: fall through to branching
                rel = self._solve_relaxation(node, is_root)
                work += rel.work
                if rel.status is RelaxationStatus.INFEASIBLE:
                    self.stats.nodes_pruned += 1
                    self._node_outcome = ("infeasible", 0, None)
                    return work
                if rel.status is not RelaxationStatus.OPTIMAL:
                    x = None
                    break
                x = rel.x
                node.lower_bound = max(node.lower_bound, rel.bound)
                if node.lower_bound >= self.cutoff_bound:
                    self.stats.nodes_pruned += 1
                    self._node_outcome = ("pruned_bound", 0, None)
                    return work
                assert x is not None

        self._run_heuristics(node, x, is_root)
        if node.lower_bound >= self.cutoff_bound:
            self.stats.nodes_pruned += 1
            self._node_outcome = ("pruned_bound", 0, None)
            return work
        try:
            self._node_outcome = ("branched", self._branch(node, x), None)
        except EssentialPluginFailure:
            # the last usable branching rule failed by exception: the solve
            # degrades to NUMERICAL_ERROR; the dropped node caps the bound
            self._drop_node(node)
            self._degrade("branching_rule", node)
        except PluginError:
            # No rule can split this node (relaxation failed with nothing
            # to branch on, or a constraint handler rejected an integral
            # point that no cut and no spatial split can resolve). Dropping
            # it risks losing solutions in this subtree — record it loudly,
            # cap the reported dual bound by the dropped subtree's bound,
            # and forfeit any optimality claim rather than crash or lie.
            self._drop_node(node)
        return work

    def _drop_node(self, node: Node) -> None:
        """Account for a node pruned without proof (unresolved)."""
        self._node_outcome = ("unresolved", 0, None)
        self._lost_bound = min(self._lost_bound, node.lower_bound)
        self.stats.bump("unresolved_nodes")
        self.stats.nodes_pruned += 1
        self._emit("node_unresolved", node=node.node_id, bound=node.lower_bound)

    # -- convenience driver -----------------------------------------------------

    def solve(
        self,
        node_limit: int | None = None,
        time_limit: float | None = None,
        callback: Callable[["CIPSolver"], bool] | None = None,
        budget: Budget | None = None,
    ) -> SolveResult:
        """Run to completion (or to a limit) and return the result.

        ``callback`` is invoked after every node; returning False
        interrupts the solve (UG termination, racing deadline...).
        ``budget`` overrides the internally constructed one (custom
        clock/RSS probes for tests, shared budgets for UG); either way it
        is threaded into the LP/relaxation inner loops, so a deadline is
        honored mid-relaxation, not only between nodes.
        """
        node_limit = node_limit if node_limit is not None else self.params.node_limit
        time_limit = time_limit if time_limit is not None else self.params.time_limit
        if budget is None:
            budget = Budget(
                time_limit=time_limit,
                node_limit=node_limit,
                soft_memory_limit_mb=self.params.soft_memory_limit_mb,
            )
        if not budget.started:
            budget.start()
        self.budget = budget
        self._clock.reset()
        self._clock.start()
        if self._tree is None:
            self.setup()
        status = SolveStatus.UNKNOWN
        while True:
            outcome = self.step()
            if outcome.finished:
                status = outcome.status
                break
            if self.stats.nodes_processed >= node_limit or self.budget.nodes_exceeded(
                self.stats.nodes_processed
            ):
                status = SolveStatus.NODE_LIMIT
                break
            if self._clock.elapsed >= time_limit or self.budget.time_exceeded():
                status = SolveStatus.TIME_LIMIT
                break
            if callback is not None and not callback(self):
                status = SolveStatus.INTERRUPTED
                break
        self._clock.stop()
        dual = self.dual_bound()
        if status is SolveStatus.OPTIMAL and self.incumbent is not None:
            dual = self.incumbent.value
        return SolveResult(status, self.incumbent, dual, self.stats.nodes_processed, self.stats)
