"""UG run configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses messages only)
    from repro.ug.cluster import ClusterPlan
    from repro.ug.faults import FaultPlan


@dataclass
class UGConfig:
    """Knobs of a ug[...] run.

    Times are in virtual seconds under the virtual-clock engines
    (``comm="sim"``, ``"loopback"``) and wall-clock seconds under the
    wall-clock engines (``"threads"``, ``"process"``).
    """

    ramp_up: str = "normal"  # "normal" | "racing"

    # racing ramp-up: winner is declared at the deadline, or earlier when
    # some racer accumulates this many open nodes
    racing_deadline: float = 0.5
    racing_open_node_threshold: int = 50

    # bound pruning: a node with dual_bound >= incumbent - objective_epsilon
    # is discarded; set to 1 - 1e-6 for integral-objective instances
    objective_epsilon: float = 1e-9

    # worker status cadence, in work units
    status_interval_work: float = 0.05

    # checkpointing
    checkpoint_path: str | None = None
    checkpoint_interval: float = 5.0

    # limits
    time_limit: float = float("inf")
    node_limit: int = 10**12

    # message latency under the virtual-clock engines (virtual seconds)
    latency: float = 1e-4

    # distributed-memory engine (repro.ug.net) -----------------------------
    # frame carrier for the ProcessEngine: "pipe" (multiprocessing.Pipe,
    # default) or "tcp" (sockets + rank/token hello handshake)
    net_transport: str = "pipe"
    # wire-path coalescing: a collecting ParaSolver sheds up to this many
    # open nodes per step into ONE NODE_TRANSFER (1 = classic single-node
    # shedding, bit-identical to the pre-batching protocol)
    net_batch_nodes: int = 1
    # incumbent broadcast debounce, seconds (engine time): improvements
    # inside the window are held and only the best value is flushed on the
    # next tick; 0 broadcasts every improvement immediately.  Safe for the
    # tree audits — a delayed incumbent only delays pruning, the trace's
    # incumbent events (emitted at acceptance) stay monotone either way
    net_incumbent_debounce: float = 0.0

    # observability (repro.obs): structured event tracing; disabled by
    # default so untraced runs pay one branch per instrumentation point.
    # Under the SimEngine a trace replays bit-identically for the same
    # seed + fault_plan; the ring buffer caps memory at trace_capacity
    # events (oldest dropped, counted in Tracer.dropped)
    trace_enabled: bool = False
    trace_capacity: int = 1 << 16

    # fault tolerance -----------------------------------------------------
    # an *active* solver silent for this long is declared dead, its node
    # reclaimed and the run continues with the survivors; inf disables
    # detection (safe default: a long sequential root solve sends no
    # heartbeats and must not be declared dead)
    heartbeat_timeout: float = float("inf")
    # a reclaimed node is retried at most this many times before the run
    # gives up on it (and stops claiming a proven optimum)
    max_node_retries: int = 3
    # deterministic failure schedule executed by the engines (tests/chaos runs)
    fault_plan: FaultPlan | None = None

    # elastic cluster runtime (repro.ug.cluster) ---------------------------
    # scripted membership changes (rank joins/drains) executed by the
    # elastic engines; a plan with a RestartPolicy also arms the watchdog
    cluster_plan: ClusterPlan | None = None
    # a rank asked to DRAIN that stays silent this long is escalated onto
    # the death/reclaim path (the drain courtesy has an expiry date)
    drain_grace: float = 5.0

    def __post_init__(self) -> None:
        # reject degenerate timing/membership knobs at construction: a
        # non-positive timeout silently livelocks (or spins) downstream,
        # which is far harder to diagnose than a ValueError here
        for name in (
            "racing_deadline",
            "status_interval_work",
            "checkpoint_interval",
            "time_limit",
            "latency",
            "heartbeat_timeout",
            "drain_grace",
        ):
            value = getattr(self, name)
            if not value > 0:  # also catches NaN
                raise ValueError(f"UGConfig.{name} must be positive, got {value!r}")
        for name in (
            "racing_open_node_threshold",
            "node_limit",
            "net_batch_nodes",
            "trace_capacity",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"UGConfig.{name} must be at least 1, got {value!r}")
        for name in ("net_incumbent_debounce", "max_node_retries"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"UGConfig.{name} must be non-negative, got {value!r}")
        # a NaN epsilon makes every ``value < best - eps`` false, so no
        # solution is ever reported; an infinite one prunes everything
        if not 0 <= self.objective_epsilon < math.inf:
            raise ValueError(
                f"UGConfig.objective_epsilon must be finite and non-negative, "
                f"got {self.objective_epsilon!r}"
            )
        if self.net_transport not in ("pipe", "tcp"):
            raise ValueError(
                f"UGConfig.net_transport must be 'pipe' or 'tcp', got {self.net_transport!r}"
            )
