"""The two in-process engines that need no worker processes: the
virtual-clock :class:`SimEngine` and the wall-clock :class:`ThreadEngine`
(DESIGN.md §5e has the engine table).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

from repro.exceptions import CommError
from repro.obs.trace import Tracer
from repro.ug.config import UGConfig
from repro.ug.engine_core import EngineCore, WallClockEngine, rank_loop
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.messages import LOAD_COORDINATOR_RANK, Message
from repro.ug.net.transport import TransportClosedError
from repro.ug.para_solver import ParaSolver, SendFn

#: events a virtual-clock run may process before it is declared livelocked
MAX_EVENTS = 5_000_000


class SimEngine(EngineCore):
    """Deterministic virtual-time engine.

    Each ParaSolver advances by its base solver's reported work units;
    messages take ``config.latency`` virtual seconds.  This is the
    substitute for MPI runs on supercomputers (DESIGN.md §4): speedups,
    idle ratios and ramp-up dynamics are properties of the coordination
    algorithm, which the simulation reproduces bit-identically at any
    simulated scale — the whole failure scenario of a ``FaultPlan``
    included.  A message in flight is an object on the event heap; the
    ``_post`` / ``_collect`` / ``_end_burst`` seams let a subclass make it
    a frame in a wire channel instead
    (:class:`~repro.ug.net.loopback_engine.LoopbackNetEngine`).
    """

    def __init__(
        self,
        lc: LoadCoordinator,
        solvers: dict[int, ParaSolver],
        config: UGConfig,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(lc, solvers, config, tracer)
        # (time, tie-break, kind, the worker rank at the far end, message)
        self._events: list[tuple[float, int, str, int, Message | None]] = []
        self._seq = itertools.count()
        self._clock: dict[int, float] = {}
        self._inbox: dict[int, list[Message]] = {}
        self._sends: dict[int, SendFn] = {}
        self._wake_scheduled: set[int] = set()
        self.now = 0.0  # virtual seconds; event times never decrease
        # running total of processed B&B nodes across all solvers, kept
        # current by _run_solver — the node-limit check runs on every
        # event and must not re-sum every solver each time
        self._nodes_total = 0
        self._send = self.router.sender(
            LOAD_COORDINATOR_RANK, self._msg_seq, self._now, self._post, real_time=False
        )
        for rank in solvers:
            self._start_rank(rank)

    def _now(self) -> float:
        return self.now

    # -- delivery seams -----------------------------------------------------------

    def _post(self, msg: Message, now: float, extra_delay: float) -> None:
        """Put a routed message in flight."""
        self._arrival(msg, now + self.config.latency + extra_delay, msg)

    def _collect(self, rank: int, msg: Message | None, to_lc: bool) -> list[Message]:
        """The messages an arrival event hands to its receiver."""
        assert msg is not None
        return [msg]

    def _end_burst(self, rank: int) -> None:
        """``rank`` finished a handling or work burst (a flush seam)."""

    # -- event plumbing -----------------------------------------------------------

    def _push(self, t: float, kind: str, rank: int, msg: Message | None = None) -> None:
        heapq.heappush(self._events, (t, next(self._seq), kind, rank, msg))

    def _arrival(self, msg: Message, t: float, carried: Message | None) -> None:
        """Schedule the event that makes ``msg`` arrive at ``t``."""
        if msg.dst == LOAD_COORDINATOR_RANK:
            self._push(t, "lcmsg", msg.src, carried)
        elif msg.dst in self.solvers:
            self._push(t, "smsg", msg.dst, carried)
        else:
            raise CommError(f"unknown rank {msg.dst}")

    def _start_rank(self, rank: int) -> bool:
        self._begin_alive(rank, self.now)
        self._clock[rank] = self.now
        self._inbox[rank] = []
        self._sends[rank] = self.router.sender(
            rank, self._msg_seq, lambda: self._clock[rank], self._post, real_time=False
        )
        return True

    def _schedule_heartbeat_tick(self, now: float) -> None:
        timeout = self.config.heartbeat_timeout
        if timeout == float("inf"):
            return
        step = max(timeout / 2.0, 1e-6)
        self._push(min(now + step, self.config.time_limit + step), "tick", LOAD_COORDINATOR_RANK)

    def _schedule_wake(self, rank: int) -> None:
        if rank not in self._wake_scheduled:
            self._wake_scheduled.add(rank)
            self._push(self._clock[rank], "wake", rank)

    def _wake_at(self, when: float) -> None:
        self._push(when, "member", LOAD_COORDINATOR_RANK)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> None:
        lc, tracer, lc_send = self.lc, self.tracer, self._send
        # the membership tick is a no-op without a plan: keep it off the
        # per-event path of every ordinary run
        elastic = self.config.cluster_plan is not None
        self._wall_start = time.perf_counter()
        lc.start(lc_send, 0.0)
        self._schedule_heartbeat_tick(0.0)
        for ev in self._plan_events:
            self._wake_at(ev.at_time)
        events_done = 0
        interrupted = False
        while self._events:
            t, _, kind, rank, msg = heapq.heappop(self._events)
            self.now = t
            events_done += 1
            if events_done > MAX_EVENTS:
                raise CommError(f"{type(self).__name__} exceeded MAX_EVENTS — protocol livelock?")

            if not interrupted and not lc.finished and self._limit_reached(t, self._nodes_total):
                interrupted = True
                lc.interrupt(lc_send, t)
            if elastic and not lc.finished:
                self._membership_tick(t)

            if kind == "lcmsg":
                for m in self._collect(rank, msg, to_lc=True):
                    if tracer.enabled:
                        tracer.emit(t, "deliver", LOAD_COORDINATOR_RANK, src=m.src, tag=m.tag.value)
                    if not lc.finished:
                        lc.handle_message(m, lc_send, t)
                        lc.on_tick(lc_send, t)
            elif kind == "tick":
                # periodic Supervisor self-tick: lets heartbeat timeouts fire
                # even when no worker message arrives (e.g. everyone crashed)
                if not lc.finished and not interrupted:
                    lc.on_tick(lc_send, t)
                    self._schedule_heartbeat_tick(t)
            elif kind == "smsg":
                if self.injector.is_crashed(rank):
                    continue
                arrived = self._collect(rank, msg, to_lc=False)
                if not arrived:
                    continue  # the wire ate it
                for m in arrived:
                    if tracer.enabled:
                        tracer.emit(t, "deliver", rank, src=m.src, tag=m.tag.value)
                    self._inbox[rank].append(m)
                self._clock[rank] = max(self._clock[rank], t)
                self._schedule_wake(rank)
            elif kind == "wake":
                self._wake_scheduled.discard(rank)
                if tracer.enabled:
                    tracer.emit(t, "wake", rank)
                self._run_solver(rank)
        if not lc.finished:
            lc.interrupt(lc_send, self.now)
        # drain termination messages so surviving solver states are final
        while self._events:
            _, _, kind, rank, msg = heapq.heappop(self._events)
            if kind == "smsg" and not self.injector.is_crashed(rank):
                for m in self._collect(rank, msg, to_lc=False):
                    self.solvers[rank].handle_message(m, lambda *a, **k: None)
        self._finish_accounting(self.now)

    def _run_solver(self, rank: int) -> None:
        solver = self.solvers[rank]
        clock = self._clock[rank]
        inbox = self._inbox[rank]
        if self.injector.maybe_crash(rank, clock, solver.nodes_processed_total):
            self.tracer.emit(clock, "crash", rank, nodes=solver.nodes_processed_total)
            inbox.clear()
            return
        send = self._sends[rank]
        if inbox:
            for msg in inbox:
                solver.handle_message(msg, send)
            inbox.clear()
            self._end_burst(rank)
        if solver.state == "terminated":
            return
        nodes_before = solver.nodes_processed_total
        work = solver.do_work(send)
        self._nodes_total += solver.nodes_processed_total - nodes_before
        if work is not None:
            self._end_burst(rank)
            self._clock[rank] = clock + work
            self._busy[rank] += work
            if self.tracer.enabled:
                self.tracer.emit(clock, "work", rank, work=work)
            self._schedule_wake(rank)
        # idle solvers sleep until the next message arrives


class ThreadEngine(WallClockEngine):
    """Real-thread engine (Pthreads/C++11 analogue): every rank's
    :func:`~repro.ug.engine_core.rank_loop` in a thread over an in-memory
    loopback transport.  Every delivery still crosses the binary codec,
    exactly like a process run: the receiver gets a *fresh* decoded message
    (mutating a delivered payload can never alias the sender's objects) and
    frame faults from the plan damage real bytes that the CRC check rejects.
    """

    def _start_rank(self, rank: int) -> bool:
        self._wire_loopback(rank).mail = self._mail
        thread = threading.Thread(
            target=self._rank_main, args=(rank,), daemon=True, name=f"ParaSolver-{rank}"
        )
        self.workers[rank] = thread
        thread.start()
        self._begin_alive(rank, self._now())
        return True

    def _rank_main(self, rank: int) -> None:
        channel = self.rank_channels[rank]
        try:
            rank_loop(self.solvers[rank], channel, self.router, self._now)
        except TransportClosedError:
            pass  # the run was torn down under us
        finally:
            # however the rank ended, its endpoint goes away — an injected
            # crash then looks to the coordinator like a killed process
            channel.close()

    def _reap(self, deadline: float) -> None:
        for thread in self.workers.values():
            thread.join(timeout=max(deadline - time.monotonic(), 0.1))
        alive = [thread.name for thread in self.workers.values() if thread.is_alive()]
        if alive:  # pragma: no cover - liveness failure
            raise CommError(f"ParaSolver threads did not terminate: {alive}")
        for rank in sorted(self.channels):
            self._pump_rank(rank)  # late end-of-run frames
