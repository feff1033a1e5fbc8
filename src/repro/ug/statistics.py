"""Run statistics — the quantities reported in the paper's tables.

The dataclass is the run's only counter store: shared counts go through
:meth:`~repro.obs.metrics.Counters.bump` / ``peak`` (locked, so the
threads engine's rank-side channels may count too), single-writer values
are plain assignments, and the object stays live for mid-run readers
(checkpoints serialize it).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.obs.metrics import Counters


@dataclass
class UGStatistics(Counters):
    """Everything Tables 1-3 report for a ug[...] run.

    Times are virtual seconds under the virtual-clock engines (sim,
    loopback) and wall-clock seconds under the wall-clock ones (threads,
    process).
    """

    n_solvers: int = 0
    computing_time: float = 0.0
    racing_time: float | None = None
    root_time: float = 0.0  # time spent at the root of the B&B tree
    idle_ratio: float = 0.0  # fraction of solver-time spent without a subproblem
    transferred_nodes: int = 0  # subproblems sent to ParaSolvers
    nodes_generated: int = 0  # B&B nodes processed across all solvers
    open_nodes_final: int = 0
    primal_initial: float = math.inf
    primal_final: float = math.inf
    dual_initial: float = -math.inf
    dual_final: float = -math.inf
    max_active_solvers: int = 0
    first_max_active_time: float = 0.0
    racing_winner: int | None = None  # settings index of the racing winner
    solved_in_racing: bool = False
    checkpoints_written: int = 0
    solver_busy: dict[int, float] = field(default_factory=dict)

    # fault tolerance (the restart-series campaigns of Tables 2-3)
    solver_failures: int = 0  # ranks declared dead by heartbeat timeout
    step_failures: int = 0  # base-solver step errors contained by a ParaSolver
    numerical_failures: int = 0  # kernel NUMERICAL_ERROR degradations contained
    nodes_reclaimed: int = 0  # active ParaNodes recovered from failed solvers
    checkpoints_recovered: int = 0  # restarts served from a .bak fallback
    messages_dropped: int = 0  # injected message losses observed
    messages_delayed: int = 0  # injected message delays observed
    send_retries: int = 0  # transient CommErrors absorbed by the retry wrapper
    faults_injected: int = 0  # total FaultPlan events that fired

    # elastic membership (repro.ug.cluster): runtime joins/drains/restarts
    ranks_joined: int = 0  # ranks admitted after launch
    drains_requested: int = 0  # DRAIN messages sent to ranks
    ranks_drained: int = 0  # ranks that left gracefully (DRAINED received)
    drain_timeouts: int = 0  # drains escalated onto the death path
    ranks_restarted: int = 0  # watchdog replacements for dead ranks
    nodes_returned: int = 0  # in-flight nodes handed back by graceful drains
    peak_ranks: int = 0  # most ranks simultaneously alive
    final_ranks: int = 0  # live ranks when the run ended
    shape_restarts: int = 0  # restarts onto a different rank count than saved

    # wire traffic (every engine but the SimEngine, which has no wire);
    # the in-process engines count both ends of every channel, the
    # process engines only the coordinator's end
    net_frames_sent: int = 0
    net_frames_received: int = 0
    net_bytes_sent: int = 0
    net_bytes_received: int = 0
    net_decode_errors: int = 0  # malformed frames rejected by the codec
    # observability: events evicted by the trace ring buffer during the
    # run (Tracer.dropped at the end of the run).  Non-zero voids the
    # trace-replay audits — repro.verify refuses to certify from a
    # partial stream — and flags that trace_capacity was too small
    trace_events_dropped: int = 0
    net_batches_sent: int = 0  # coalesced BATCH frames shipped
    net_msgs_coalesced: int = 0  # messages that rode inside BATCH frames
    incumbent_broadcasts_deferred: int = 0  # improvements held by the debounce
    warm_pool_reuses: int = 0  # ranks served by a pooled worker instead of a spawn

    @property
    def surviving_solvers(self) -> int:
        """Solvers still alive at the end of the run (graceful degradation)."""
        return max(self.n_solvers - self.solver_failures, 0)

    @property
    def gap_initial(self) -> float:
        return _gap(self.primal_initial, self.dual_initial)

    @property
    def gap_final(self) -> float:
        return _gap(self.primal_final, self.dual_final)

    def as_dict(self) -> dict:
        """JSON-ready snapshot including the derived quantities."""
        d = asdict(self)
        d["solver_busy"] = {str(k): v for k, v in self.solver_busy.items()}
        d["gap_initial"] = self.gap_initial
        d["gap_final"] = self.gap_final
        d["surviving_solvers"] = self.surviving_solvers
        return d


def _gap(primal: float, dual: float) -> float:
    if math.isinf(primal) or math.isinf(dual):
        return math.inf
    if primal * dual < 0:
        # SCIP convention: bounds on opposite sides of zero give an
        # infinite gap — |p - d| / max(|p|, |d|) would report a bogus
        # finite value (e.g. primal +5 / dual -5 -> "100%")
        return math.inf
    return abs(primal - dual) / max(abs(primal), abs(dual), 1.0)
