"""Elastic cluster runtime: membership as a *runtime* property.

The paper's ug[*, MPI] campaigns launch with a fixed rank count and keep
it until the job dies.  This module makes the fleet elastic on top of
the distributed-memory engine (``repro.ug.net``):

* :class:`ClusterPlan` / :class:`ClusterEvent` — a deterministic schedule
  of membership changes (rank joins and voluntary drains) executed by
  every engine's membership tick (:class:`~repro.ug.engine_core.EngineCore`),
  exactly like a :class:`~repro.ug.faults.FaultPlan` but for growth and
  graceful scale-down.  Times are on the engine's clock.
* :class:`RestartPolicy` / :class:`RankWatchdog` — per-rank supervision:
  a dead rank is replaced by a *fresh* rank id after a capped, jittered
  exponential backoff (deterministic under an injected clock), up to
  ``max_restarts`` per rank lineage.  A restart composes the existing
  death path (reclaim via ``note_rank_death``) with the join path, so
  transient worker deaths heal instead of just shrinking the fleet.
* :class:`ClusterSupervisor` — a :class:`ProcessEngine` whose TCP
  listener stays open for the whole run: late joiners spawn, dial back
  with the same rank+token hello (compared timing-safely), and are
  admitted mid-solve with the presolved instance, current incumbent and
  ParamSet shipped in the JOIN welcome packet.  DRAIN asks a rank to hand
  back its in-flight :class:`~repro.ug.para_node.ParaNode` and leave —
  graceful scale-down never burns the ``max_node_retries`` budget.
"""

from __future__ import annotations

import heapq
import queue
import threading
from dataclasses import dataclass
from typing import Any

from repro.obs.trace import Tracer
from repro.ug.config import UGConfig
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.net.process_engine import ProcessEngine
from repro.ug.net.transport import DEFAULT_BACKOFF_CAP, backoff_delay
from repro.ug.para_solver import ParaSolver

# -- watchdog policy --------------------------------------------------------------


@dataclass(frozen=True)
class RestartPolicy:
    """How hard the watchdog tries to replace a dead rank.

    ``max_restarts`` counts per rank *lineage*: a replacement inherits the
    budget of the rank it replaced, so one flapping worker cannot respawn
    forever by being renamed.  Delays come from the shared
    :func:`~repro.ug.net.transport.backoff_delay` (capped exponential with
    deterministic seeded jitter), so virtual-time engines replay
    bit-identically.
    """

    max_restarts: int = 2
    backoff: float = 0.05
    backoff_cap: float = DEFAULT_BACKOFF_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(f"RestartPolicy.max_restarts must be >= 0, got {self.max_restarts!r}")
        if not self.backoff > 0:
            raise ValueError(f"RestartPolicy.backoff must be positive, got {self.backoff!r}")
        if self.backoff_cap < self.backoff:
            raise ValueError(
                f"RestartPolicy.backoff_cap ({self.backoff_cap!r}) must be >= backoff ({self.backoff!r})"
            )


class RankWatchdog:
    """Per-rank restart scheduler, deterministic under an injected clock.

    ``note_death(rank)`` books a replacement join at ``now + backoff``;
    the engine polls :meth:`due` each tick and spawns a fresh-id rank for
    every fired entry, then calls :meth:`bind` so the replacement inherits
    the dead rank's lineage (and with it the remaining restart budget).
    """

    def __init__(self, policy: RestartPolicy, clock: Any) -> None:
        self.policy = policy
        self.clock = clock
        self._root_of: dict[int, int] = {}  # replacement rank -> lineage root
        self._attempts: dict[int, int] = {}  # lineage root -> restarts used
        self._pending: list[tuple[float, int]] = []  # (due time, lineage root)
        self.gave_up: set[int] = set()  # lineages past max_restarts

    def lineage_of(self, rank: int) -> int:
        return self._root_of.get(rank, rank)

    def restarts_used(self, rank: int) -> int:
        return self._attempts.get(self.lineage_of(rank), 0)

    def note_death(self, rank: int, now: float | None = None) -> float | None:
        """Schedule a replacement; returns its due time, or None when the
        lineage exhausted its restart budget."""
        now = self.clock() if now is None else now
        root = self.lineage_of(rank)
        attempt = self._attempts.get(root, 0) + 1
        if attempt > self.policy.max_restarts:
            self.gave_up.add(root)
            return None
        self._attempts[root] = attempt
        due = now + backoff_delay(
            self.policy.backoff,
            attempt,
            cap=self.policy.backoff_cap,
            seed=self.policy.seed * 1_000_003 + root,
        )
        heapq.heappush(self._pending, (due, root))
        return due

    def due(self, now: float | None = None) -> list[int]:
        """Lineage roots whose replacement join is due."""
        now = self.clock() if now is None else now
        fired: list[int] = []
        while self._pending and self._pending[0][0] <= now:
            fired.append(heapq.heappop(self._pending)[1])
        return fired

    def bind(self, replacement_rank: int, root: int) -> None:
        self._root_of[replacement_rank] = root


# -- scripted membership ----------------------------------------------------------


@dataclass(frozen=True)
class ClusterEvent:
    """One scheduled membership change.

    ``action`` is ``"join"`` (admit a fresh rank; ``rank`` may pin the id,
    None lets the LoadCoordinator assign the next fresh one) or
    ``"drain"`` (gracefully remove ``rank``; None picks the highest live
    rank — "scale down from the top").
    """

    at_time: float
    action: str
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ("join", "drain"):
            raise ValueError(f"ClusterEvent.action must be 'join' or 'drain', got {self.action!r}")
        if not self.at_time >= 0:
            raise ValueError(f"ClusterEvent.at_time must be >= 0, got {self.at_time!r}")


@dataclass(frozen=True)
class ClusterPlan:
    """Deterministic membership schedule + optional watchdog policy."""

    events: tuple[ClusterEvent, ...] = ()
    restart_policy: RestartPolicy | None = None

    def sorted_events(self) -> list[ClusterEvent]:
        return sorted(self.events, key=lambda e: e.at_time)

    def make_watchdog(self, clock: Any) -> RankWatchdog | None:
        """The plan's watchdog on the engine's clock, if it has a policy."""
        return RankWatchdog(self.restart_policy, clock) if self.restart_policy is not None else None


# -- the elastic process engine ---------------------------------------------------

class ClusterSupervisor(ProcessEngine):
    """The ProcessEngine ``comm="process"`` runs under a ``cluster_plan``:
    it only adds the late TCP accept (see the module docstring).
    Everything that mutates channels runs on the main thread — the accept
    thread only authenticates sockets and queues them.
    """

    def __init__(
        self,
        lc: LoadCoordinator,
        solvers: dict[int, ParaSolver],
        config: UGConfig,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(lc, solvers, config, tracer)
        # TCP joiners: spawned ranks whose dial-in we still await, and the
        # authenticated sockets the accept thread hands to the main loop
        self._expected_joiners: set[int] = set()
        self._admitted: queue.Queue[tuple[int, Any]] = queue.Queue()
        self._accept_thread: threading.Thread | None = None
        self._stop_accept = threading.Event()

    def _close_listener(self) -> None:
        # keep the listener open: late joiners dial the same address with
        # the same run token; a persistent accept thread admits them
        if self._listener is None:
            return
        self._accept_thread = threading.Thread(
            target=self._accept_joiners, daemon=True, name="ClusterSupervisor-accept"
        )
        self._accept_thread.start()

    def _accept_joiners(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stop_accept.is_set():
            hit = self._accept_hello(self._expected_joiners)
            if hit is not None:
                self._expected_joiners.discard(hit[0])
                self._admitted.put(hit)

    def _start_rank(self, rank: int) -> bool:
        if self._accept_thread is not None:
            # a late TCP joiner: membership completes at dial-in admission
            self._expected_joiners.add(rank)
        return super()._start_rank(rank)

    def _membership_tick(self, now: float) -> None:
        # admit authenticated TCP joiners (channel wiring on this thread)
        while not self.lc.finished:
            try:
                rank, sock = self._admitted.get_nowait()
            except queue.Empty:
                break
            self._wire_tcp(rank, sock)
            self.lc.note_rank_join(self._send, now, rank=rank)
        super()._membership_tick(now)

    def _shutdown(self) -> None:
        self._stop_accept.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        super()._shutdown()
