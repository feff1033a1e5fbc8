"""Conflict analysis: learn no-good constraints from infeasible nodes.

SCIP-style conflict analysis adapted to this kernel's node model.  Every
node carries *cumulative branching decisions* (``node.bound_changes``);
propagation tightenings live only in the solver's local bound arrays and
are recorded on a per-node **trail** together with their *reasons* (the
variable indices whose bounds implied the tightening).  When a node is
proven infeasible the analyzer resolves the seed conflict backwards
through the trail to the **decision frontier** — the subset of branching
decisions that caused the infeasibility — and learns a no-good clause
over those decisions: at least one of them must be taken differently in
any feasible assignment.

The resolution scheme is decision learning (the all-decision instance of
FUIP cuts): every reasoned tightening is replaced by its reason set
until only decisions remain.  A tightening recorded without a reason is
*opaque*; a conflict that needs an opaque antecedent is abandoned rather
than learned unsoundly (dropping the literal would *strengthen* the
clause, keeping it is equally unsound — abandonment is the only safe
move, and the ``conflicts_abandoned`` counter makes the rate visible).

Learned clauses are globally valid under two structural conditions the
solver enforces per node (see ``CIPSolver``):

* the node has no ``local_rows`` and no ``local_data`` — everything the
  infeasibility proof used (model rows, pool cuts, bound propagation) is
  globally valid or implied by the recorded decisions;
* LP infeasibility is only trusted when the node bound comes from the
  exact LP path, never from a plugin relaxator (whose INFEASIBLE answer
  may be heuristic).

Clauses live in a bounded :class:`ConflictPool` (lowest-activity
eviction) consulted by :class:`ConflictPropagator`, which performs unit
propagation: a fully falsified clause proves the node infeasible, a unit
clause forces its last literal — with the other literals as the recorded
reason, so conflicts can resolve through earlier conflicts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cip.plugins import PropagationResult, PropagationStatus, Propagator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cip.model import Model
    from repro.cip.node import Node
    from repro.cip.solver import CIPSolver

#: trail entry kinds
DECISION = "decision"
REASONED = "reasoned"
OPAQUE = "opaque"

POOL_SIZE = 256  # learned clauses kept (lowest-activity eviction)
MAX_LITERALS = 32  # longer conflicts are discarded as weak


@dataclass
class TrailEntry:
    """One local bound change at the current node."""

    index: int  # position on the trail (resolution order)
    var: int
    which: str  # "lb" or "ub"
    value: float
    kind: str  # DECISION / REASONED / OPAQUE
    reason: tuple[int, ...] = ()


@dataclass
class Clause:
    """A no-good over binary decisions: not all ``var == phase`` hold.

    Equivalently the linear row ``sum_{phase=0} x_j + sum_{phase=1}
    (1 - x_j) >= 1``.  ``lits`` is sorted for deduplication.
    """

    lits: tuple[tuple[int, int], ...]  # (var index, decided phase 0/1)
    activity: float = 0.0
    hits: int = 0

    def key(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.lits)


class ConflictPool:
    """Bounded clause store with lowest-activity eviction."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self.clauses: list[Clause] = []
        self._keys: set[frozenset[tuple[int, int]]] = set()
        self._age = 0

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def add(self, clause: Clause) -> bool:
        """Insert (deduplicated); True when the pool changed."""
        key = clause.key()
        if key in self._keys:
            return False
        if len(self.clauses) >= self.capacity:
            # evict the least useful clause: lowest (activity, recency)
            worst = min(range(len(self.clauses)), key=lambda i: (self.clauses[i].activity, i))
            self._keys.discard(self.clauses[worst].key())
            del self.clauses[worst]
        self._age += 1
        clause.activity = float(self._age)  # fresh clauses start live
        self.clauses.append(clause)
        self._keys.add(key)
        return True

    def bump(self, clause: Clause) -> None:
        self._age += 1
        clause.activity = float(self._age)
        clause.hits += 1


class ConflictAnalyzer:
    """Per-node trail recording + resolution to the decision frontier."""

    def __init__(self, model: "Model", pool_size: int = POOL_SIZE, max_literals: int = MAX_LITERALS) -> None:
        self.model = model
        self.pool = ConflictPool(pool_size)
        self.max_literals = max(1, int(max_literals))
        self._trail: list[TrailEntry] = []
        self._entries_of: dict[int, list[int]] = {}  # var -> trail indices (ascending)
        self._decisions: dict[int, tuple[float, float]] = {}
        self._enabled = False
        self._binary: list[bool] = [
            v.is_integral and v.lb >= -1e-9 and v.ub <= 1.0 + 1e-9 for v in model.variables
        ]

    # -- trail management ---------------------------------------------------

    def begin_node(self, node: "Node", enabled: bool) -> None:
        """Reset the trail; decisions are the node's cumulative changes.

        ``enabled=False`` (node carries local rows/data, or analysis is
        off) keeps the trail empty and makes every hook a no-op.
        """
        self._trail = []
        self._entries_of = {}
        self._decisions = dict(node.bound_changes)
        self._enabled = enabled
        if not enabled:
            return
        for j, (lo, hi) in node.bound_changes.items():
            if j >= len(self._binary):
                continue
            var = self.model.variables[j]
            if lo > var.lb + 1e-12:
                self._push(TrailEntry(len(self._trail), j, "lb", lo, DECISION))
            if hi < var.ub - 1e-12:
                self._push(TrailEntry(len(self._trail), j, "ub", hi, DECISION))

    def _push(self, entry: TrailEntry) -> None:
        self._trail.append(entry)
        self._entries_of.setdefault(entry.var, []).append(entry.index)

    def note_tightening(
        self, j: int, which: str, value: float, reason: Sequence[int] | None
    ) -> None:
        """Record a propagation tightening (reason=None marks it opaque)."""
        if not self._enabled:
            return
        kind = OPAQUE if reason is None else REASONED
        self._push(
            TrailEntry(len(self._trail), j, which, value, kind, tuple(reason or ()))
        )

    # -- resolution ---------------------------------------------------------

    def _entries_before(self, var: int, before: int) -> list[int]:
        return [idx for idx in self._entries_of.get(var, ()) if idx < before]

    def _frontier(self, seed_vars: Iterable[int]) -> set[int] | None:
        """Resolve seed variables back to decisions; None = abandoned.

        Conservatively resolves through *every* trail entry of an
        involved variable (a conflict may hinge on either bound side,
        and the seed does not say which): the closure can only add
        antecedents, which weakens the learned clause but never makes it
        invalid — and guarantees an opaque antecedent is never skipped.
        """
        heap: list[int] = []
        queued: set[int] = set()

        def enqueue(indices: Iterable[int]) -> None:
            for idx in indices:
                if idx not in queued:
                    queued.add(idx)
                    heapq.heappush(heap, -idx)

        for v in seed_vars:
            enqueue(self._entries_of.get(int(v), ()))
        frontier: set[int] = set()
        steps = 0
        while heap:
            steps += 1
            if steps > 10000:  # pathological trail: give up, stay sound
                return None
            entry = self._trail[-heapq.heappop(heap)]
            if entry.kind == DECISION:
                frontier.add(entry.var)
            elif entry.kind == OPAQUE:
                return None
            else:
                for r in entry.reason:
                    enqueue(self._entries_before(int(r), entry.index))
        return frontier

    def _clause_from_frontier(self, frontier: set[int]) -> Clause | None:
        """Build the no-good over the frontier's binary decisions."""
        if not frontier or len(frontier) > self.max_literals:
            return None
        lits = []
        for j in sorted(frontier):
            if j >= len(self._binary) or not self._binary[j]:
                return None  # non-binary decision (e.g. spatial split)
            lo, hi = self._decisions.get(j, (0.0, 1.0))
            if lo >= 0.5 and hi >= 0.5:
                lits.append((j, 1))
            elif hi <= 0.5 and lo <= 0.5:
                lits.append((j, 0))
            else:
                return None  # decision did not fix the binary variable
        return Clause(tuple(lits))

    def analyze(self, seed_vars: Iterable[int]) -> Clause | None:
        """Learn from an infeasibility witnessed by ``seed_vars``' bounds."""
        if not self._enabled:
            return None
        frontier = self._frontier(seed_vars)
        if frontier is None:
            return None
        clause = self._clause_from_frontier(frontier)
        if clause is None or not self.pool.add(clause):
            return None
        return clause

    def analyze_all_decisions(self) -> Clause | None:
        """Learn the full-decision no-good (exact-LP infeasibility: the
        responsible subset is unknown, but the decision set as a whole is
        jointly infeasible).  Reasoned tightenings are implied by the
        decisions plus globally valid constraints, so they preserve the
        clause's validity — but an opaque tightening (e.g. orbital
        fixing, whose justification is group-theoretic rather than
        logical) may itself have caused the LP infeasibility, so any
        opaque entry on the trail abandons the learning."""
        if not self._enabled:
            return None
        if any(e.kind == OPAQUE for e in self._trail):
            return None
        frontier = {e.var for e in self._trail if e.kind == DECISION}
        clause = self._clause_from_frontier(frontier)
        if clause is None or not self.pool.add(clause):
            return None
        return clause


class ConflictPropagator(Propagator):
    """Unit propagation over the learned-conflict pool.

    Registered at the *front* of the propagator order so learned clauses
    prune before the generic propagators spend work re-deriving the same
    infeasibility arithmetically.
    """

    name = "conflict"
    priority = 95

    def __init__(self, analyzer: ConflictAnalyzer) -> None:
        self.analyzer = analyzer

    def propagate(self, solver: "CIPSolver", node: "Node") -> PropagationResult:
        pool = self.analyzer.pool
        tightened = 0
        for clause in list(pool):
            unassigned: list[tuple[int, int]] = []
            satisfied = False
            for j, phase in clause.lits:
                lo, hi = solver.local_bounds(j)
                if phase == 1:
                    # literal means x_j != 1
                    if hi <= 0.5:
                        satisfied = True
                        break
                    if lo < 0.5:
                        unassigned.append((j, phase))
                else:
                    # literal means x_j != 0
                    if lo >= 0.5:
                        satisfied = True
                        break
                    if hi > 0.5:
                        unassigned.append((j, phase))
            if satisfied:
                continue
            others = tuple(j for j, _ in clause.lits)
            if not unassigned:
                # every decision of the no-good holds here: infeasible
                pool.bump(clause)
                solver.stats.bump("conflicts_applied")
                return PropagationResult(
                    PropagationStatus.INFEASIBLE, conflict=others
                )
            if len(unassigned) == 1:
                j, phase = unassigned[0]
                reason = tuple(v for v in others if v != j)
                changed = (
                    solver.tighten_ub(j, 0.0, reason=reason)
                    if phase == 1
                    else solver.tighten_lb(j, 1.0, reason=reason)
                )
                if changed:
                    pool.bump(clause)
                    solver.stats.bump("conflicts_applied")
                    tightened += 1
        status = PropagationStatus.REDUCED if tightened else PropagationStatus.UNCHANGED
        return PropagationResult(status, tightened)
