"""Deterministic fault injection for the UG runtime.

The paper's headline campaigns (Tables 2-3) ran as checkpoint/restart
series across 24-hour job kills and node losses; surviving failures is a
core duty of the Supervisor, not an optional extra.  This module provides
the testing side of that story: a :class:`FaultPlan` describes *exactly*
which solver crashes, which messages are dropped or delayed, which
checkpoint writes are corrupted and which sends fail transiently — and a
:class:`FaultInjector` executes the plan at run time.

Because a plan is pure data and the SimEngine is a deterministic
discrete-event simulator, replaying the same plan yields bit-identical
runs: the same failure counters, the same reclaimed nodes, the same final
statistics.  Every engine routes its sends through the same
:class:`~repro.ug.engine_core.MessageRouter` and the same injector, so
the same scenarios exercise the real-thread and real-process paths
(without the bit-identical guarantee).
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import CommError
from repro.ug.messages import Message, MessageTag


@dataclass(frozen=True)
class SolverCrash:
    """Kill ParaSolver ``rank`` once its clock or node count reaches a limit.

    A crashed solver simply stops responding — it never sends TERMINATED,
    exactly like a lost MPI rank.  Detection is the LoadCoordinator's job
    (heartbeat timeout).
    """

    rank: int
    at_time: float | None = None  # virtual (Sim) / wall (Thread) seconds
    at_nodes: int | None = None  # nodes_processed_total threshold

    def triggered(self, now: float, nodes: int) -> bool:
        if self.at_time is not None and now >= self.at_time:
            return True
        if self.at_nodes is not None and nodes >= self.at_nodes:
            return True
        return False


@dataclass(frozen=True)
class MessageFault:
    """Drop or delay up to ``count`` messages matching (tag, src, dst)."""

    tag: MessageTag | None = None  # None matches any tag
    src: int | None = None
    dst: int | None = None
    action: str = "drop"  # "drop" | "delay"
    delay: float = 0.0  # extra latency for action == "delay"
    count: int = 1

    def matches(self, msg: Message) -> bool:
        return (
            (self.tag is None or msg.tag is self.tag)
            and (self.src is None or msg.src == self.src)
            and (self.dst is None or msg.dst == self.dst)
        )


@dataclass(frozen=True)
class CheckpointFault:
    """Corrupt the ``nth_write``-th checkpoint file (1-based) after writing.

    ``mode == "truncate"`` cuts the file in half; ``mode == "corrupt"``
    overwrites a span of bytes in place (still bytes on disk, no longer a
    valid checkpoint — the CRC/parse check catches it).
    """

    nth_write: int
    mode: str = "corrupt"  # "corrupt" | "truncate"


@dataclass(frozen=True)
class FrameFault:
    """Damage up to ``count`` wire frames flowing ``src`` -> ``dst``.

    This is the transport seam of the net stack: ``drop`` loses the frame,
    ``corrupt`` flips a byte (the receiver's CRC check turns it into a
    typed decode error and the message is lost), ``truncate`` cuts the
    frame in half (same outcome via the length check).  ``None`` matches
    any rank.  Every engine with a wire (loopback, threads, process)
    consults frame faults; the SimEngine has no wire to damage.
    """

    src: int | None = None
    dst: int | None = None
    action: str = "corrupt"  # "drop" | "corrupt" | "truncate"
    count: int = 1

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (self.dst is None or self.dst == dst)


@dataclass(frozen=True)
class SendFault:
    """Raise a transient CommError on sends from ``src``.

    Fails the ``nth_send``-th .. ``nth_send + count - 1``-th send attempts
    originating at rank ``src`` (1-based, counted per rank, retries
    included) — exercising the bounded retry/backoff wrapper.
    """

    src: int
    nth_send: int
    count: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of failures for one run."""

    crashes: tuple[SolverCrash, ...] = ()
    message_faults: tuple[MessageFault, ...] = ()
    checkpoint_faults: tuple[CheckpointFault, ...] = ()
    send_faults: tuple[SendFault, ...] = ()
    frame_faults: tuple[FrameFault, ...] = ()

    @staticmethod
    def random_plan(
        seed: int,
        n_solvers: int,
        n_crashes: int = 1,
        n_message_drops: int = 0,
        crash_time_range: tuple[float, float] = (0.01, 0.5),
    ) -> "FaultPlan":
        """Generate a seeded random plan — same seed, same plan, same run."""
        rng = random.Random(seed)
        ranks = rng.sample(range(1, n_solvers + 1), min(n_crashes, n_solvers))
        lo, hi = crash_time_range
        crashes = tuple(
            SolverCrash(rank=r, at_time=round(rng.uniform(lo, hi), 6)) for r in sorted(ranks)
        )
        drops = tuple(
            MessageFault(tag=MessageTag.STATUS, src=rng.randint(1, n_solvers), count=1)
            for _ in range(n_message_drops)
        )
        return FaultPlan(crashes=crashes, message_faults=drops)


class FaultInjector:
    """Mutable run-time executor of a :class:`FaultPlan`.

    One injector serves one engine run; all decisions are functions of the
    plan plus the deterministic order in which the engine consults it.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        # one injector is shared by every ThreadEngine solver thread; the
        # budget/attempt read-modify-writes below must not interleave
        self._lock = threading.Lock()
        self.crashed: set[int] = set()
        self._message_budget = [f.count for f in self.plan.message_faults]
        self._frame_budget = [f.count for f in self.plan.frame_faults]
        self._send_attempts: dict[int, int] = {}
        self._checkpoint_writes = 0
        # counters mirrored into UGStatistics at the end of a run
        self.crashes_triggered = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.checkpoints_corrupted = 0
        self.send_failures_injected = 0
        self.send_retries = 0
        self.frame_faults_injected = 0

    @property
    def active(self) -> bool:
        return self.plan != FaultPlan()

    # -- solver crashes -------------------------------------------------------

    def is_crashed(self, rank: int) -> bool:
        return rank in self.crashed

    def maybe_crash(self, rank: int, now: float, nodes: int) -> bool:
        """True once ``rank`` is (or just became) dead; engines black-hole it."""
        with self._lock:
            if rank in self.crashed:
                return True
            for crash in self.plan.crashes:
                if crash.rank == rank and crash.triggered(now, nodes):
                    self.crashed.add(rank)
                    self.crashes_triggered += 1
                    return True
            return False

    # -- message faults -------------------------------------------------------

    def message_action(self, msg: Message) -> tuple[str, float]:
        """Returns ("deliver"|"drop"|"delay", extra_delay) for this message."""
        with self._lock:
            for i, fault in enumerate(self.plan.message_faults):
                if self._message_budget[i] > 0 and fault.matches(msg):
                    self._message_budget[i] -= 1
                    if fault.action == "drop":
                        self.messages_dropped += 1
                        return "drop", 0.0
                    self.messages_delayed += 1
                    return "delay", fault.delay
            return "deliver", 0.0

    # -- frame faults (transport seam) -----------------------------------------

    def frame_action(self, src: int, dst: int) -> str | None:
        """The plan's verdict for one wire frame: None (deliver intact),
        "drop", "corrupt" or "truncate"; budgets deplete deterministically
        in plan order."""
        if not self.plan.frame_faults:
            return None
        with self._lock:
            for i, fault in enumerate(self.plan.frame_faults):
                if self._frame_budget[i] > 0 and fault.matches(src, dst):
                    self._frame_budget[i] -= 1
                    self.frame_faults_injected += 1
                    return fault.action
            return None

    # -- transient send failures ----------------------------------------------

    def check_send(self, src: int) -> None:
        """Raise a transient CommError when the plan says this send fails."""
        with self._lock:
            attempt = self._send_attempts.get(src, 0) + 1
            self._send_attempts[src] = attempt
            for fault in self.plan.send_faults:
                if fault.src == src and fault.nth_send <= attempt < fault.nth_send + fault.count:
                    self.send_failures_injected += 1
                    raise CommError(
                        f"injected transient send failure at rank {src} (send #{attempt})"
                    )

    def note_retry(self) -> None:
        """Record one retried send (called by :class:`RetryingSend`)."""
        with self._lock:
            self.send_retries += 1

    # -- checkpoint corruption ------------------------------------------------

    def after_checkpoint_write(self, path: str | os.PathLike) -> None:
        """Called by the LoadCoordinator after every checkpoint write."""
        with self._lock:
            self._checkpoint_writes += 1
            for fault in self.plan.checkpoint_faults:
                if fault.nth_write == self._checkpoint_writes:
                    _damage_file(path, fault.mode)
                    self.checkpoints_corrupted += 1

    # -- statistics -----------------------------------------------------------

    def export_stats(self, stats: Any) -> None:
        """Copy injection counters onto a :class:`UGStatistics`."""
        stats.messages_dropped = self.messages_dropped
        stats.messages_delayed = self.messages_delayed
        stats.send_retries = self.send_retries
        stats.faults_injected = (
            self.crashes_triggered
            + self.messages_dropped
            + self.messages_delayed
            + self.checkpoints_corrupted
            + self.send_failures_injected
            + self.frame_faults_injected
        )


def _damage_file(path: str | os.PathLike, mode: str) -> None:
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if mode == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(max(size // 2, 1))
    else:  # corrupt: stomp a span of bytes in the middle
        with open(path, "r+b") as fh:
            fh.seek(max(size // 3, 0))
            fh.write(b"\x00CORRUPTED\x00" * 4)


@dataclass
class RetryingSend:
    """Bounded retry/backoff wrapper around a raw send function.

    Transient :class:`CommError`\\ s (lost packet, busy channel, an injected
    :class:`SendFault`) are retried up to ``retries`` times with
    exponential backoff; a persistent failure re-raises so real protocol
    bugs (unknown rank) still surface.  ``sleep`` is ``time.sleep`` under
    the wall-clock engines and ``None`` under the virtual-clock ones
    (retry immediately, determinism preserved).
    """

    send: Callable[[int, MessageTag, Any], None]
    retries: int = 3
    backoff: float = 0.0
    sleep: Callable[[float], None] | None = None
    injector: FaultInjector | None = None
    total_retries: int = field(default=0, init=False)

    def __call__(self, dst: int, tag: MessageTag, payload: Any) -> None:
        attempt = 0
        while True:
            try:
                self.send(dst, tag, payload)
                return
            except CommError:
                attempt += 1
                if attempt > self.retries:
                    raise
                self.total_retries += 1
                if self.injector is not None:
                    self.injector.note_retry()
                if self.sleep is not None and self.backoff > 0:
                    self.sleep(self.backoff * (2 ** (attempt - 1)))
