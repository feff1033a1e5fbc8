"""The shared engine core: one router, one rank loop, two clocks.

Every engine drives the same LoadCoordinator/ParaSolver state machines;
they differ only in *when* things happen and *how* a message travels
(DESIGN.md §5e: the engine table and which piece lives where).  What
they share exists once, here, together with the wall-clock scheduler;
the virtual-clock one is :class:`~repro.ug.engines.SimEngine`.
"""

from __future__ import annotations

import math
import multiprocessing.connection
import threading
import time
from typing import Any, Callable

from repro.cip.params import ParamSet
from repro.exceptions import CommError
from repro.obs.trace import Tracer
from repro.ug.config import UGConfig
from repro.ug.faults import FaultInjector, RetryingSend
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.messages import LOAD_COORDINATOR_RANK, Message, MessageTag, SeqStamper
from repro.ug.net.channel import MessageChannel
from repro.ug.net.transport import LoopbackTransport, Transport, TransportClosedError
from repro.ug.para_solver import ParaSolver, SendFn
from repro.ug.user_plugins import UserPlugins

#: hands a routed message to the transport: (message, send time, extra delay)
DeliverFn = Callable[[Message, float, float], None]

#: receive-poll granularity of the wall-clock loops, seconds of real time
POLL_INTERVAL = 0.02
#: how long the coordinator waits for ranks to honor TERMINATION before
#: reaping them forcefully
SHUTDOWN_GRACE = 10.0
#: bounded retry of transient CommErrors on sends; the backoff (seconds,
#: doubled per retry) sleeps only under a wall clock
SEND_RETRIES = 3
SEND_BACKOFF = 0.01


def build_para_solver(
    rank: int,
    instance: Any,
    user_plugins: UserPlugins,
    params: ParamSet,
    seed: int,
    config: UGConfig,
) -> ParaSolver:
    """The ParaSolver for ``rank`` under ``config`` — launch ranks, late
    joiners and spawned workers are all built here."""
    return ParaSolver(
        rank,
        instance,
        user_plugins,
        params,
        seed,
        status_interval_work=config.status_interval_work,
        objective_epsilon=config.objective_epsilon,
        transfer_batch=config.net_batch_nodes,
    )


class MessageRouter:
    """The message-level fault seam between a sender and its transport.

    A crashed rank is a black hole (its messages are swallowed, it never
    speaks again — exactly a lost MPI process), injected message faults
    drop or delay deliveries, and transient send failures are absorbed by
    the bounded retry wrapper.  What survives goes to the transport's
    ``deliver`` callback with its send time and injected extra delay.
    """

    def __init__(self, injector: FaultInjector, tracer: Tracer) -> None:
        self.injector = injector
        self.tracer = tracer

    def sender(
        self,
        src: int,
        stamper: SeqStamper,
        clock: Callable[[], float],
        deliver: DeliverFn,
        *,
        real_time: bool,
    ) -> SendFn:
        """The ``send(dst, tag, payload)`` function of rank ``src``."""
        injector, tracer = self.injector, self.tracer

        def send(dst: int, tag: MessageTag, payload: Any) -> None:
            injector.check_send(src)  # may raise a transient CommError
            msg = Message(tag=tag, src=src, dst=dst, payload=payload, seq=stamper())
            action, extra_delay = injector.message_action(msg)
            now = clock()
            if action != "drop" and dst != LOAD_COORDINATOR_RANK and injector.is_crashed(dst):
                action = "blackhole"  # a dead rank swallows everything
            if action in ("drop", "blackhole"):
                if tracer.enabled:
                    tracer.emit(now, "send", src, dst=dst, tag=tag.value, action=action)
                return
            if tracer.enabled:
                tracer.emit(now, "send", src, dst=dst, tag=tag.value, action=action, delay=extra_delay)
            deliver(msg, now, extra_delay)

        # virtual time retries immediately: determinism preserved
        return RetryingSend(
            send,
            retries=SEND_RETRIES,
            backoff=SEND_BACKOFF if real_time else 0.0,
            sleep=time.sleep if real_time else None,
            injector=injector,
        )


class LateShipper:
    """Wall-clock ``delay`` faults: ship a routed message on a timer.

    Timers are tracked so shutdown can cancel whatever has not fired yet —
    a late firing must never race a closing channel (``send_message``
    itself black-holes a closed transport; the guard skips the common
    case).
    """

    def __init__(self) -> None:
        self._timers: list[threading.Timer] = []

    def ship(self, delay: float, channel: MessageChannel, msg: Message) -> None:
        def fire() -> None:
            if not channel.closed:
                channel.send_message(msg)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        self._timers.append(timer)
        timer.start()

    def cancel(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()


def rank_loop(
    solver: ParaSolver,
    channel: MessageChannel,
    router: MessageRouter,
    clock: Callable[[], float],
) -> bool:
    """One ParaSolver's lifetime on the far end of a wire channel.

    Busy: poll the channel without blocking, then advance the tree by one
    step.  Idle: block on the channel (bounded, so crash checks stay
    alive).  Everything a handling/work burst sends rides one BATCH frame,
    flushed at the seams below.  True after a graceful end (goodbye
    flushed), False when an injected crash fired — the caller must then
    vanish like a killed worker, not leave.  Raises
    :class:`TransportClosedError` when the coordinator is gone.
    """
    injector, tracer = router.injector, router.tracer
    rank = solver.rank
    busy_wall = 0.0
    late = LateShipper()

    def deliver(msg: Message, now: float, extra_delay: float) -> None:
        if extra_delay > 0:
            late.ship(extra_delay, channel, msg)
        else:
            channel.queue_message(msg)

    route = router.sender(rank, channel.stamper, clock, deliver, real_time=True)

    def send(dst: int, tag: MessageTag, payload: Any) -> None:
        # ride the wall-clock busy total along on status/termination
        # reports so the coordinator can fill UGStatistics.solver_busy
        # without a second accounting channel
        if isinstance(payload, dict) and tag in (MessageTag.STATUS, MessageTag.TERMINATED):
            payload = dict(payload, busy_wall=busy_wall)
        route(dst, tag, payload)

    def flush() -> None:
        # False with the channel still open is an injected frame drop:
        # a lost message, not a lost coordinator
        if not channel.flush() and channel.closed:
            raise TransportClosedError("coordinator is gone")

    try:
        while solver.state != "terminated":
            if injector.maybe_crash(rank, clock(), solver.nodes_processed_total):
                tracer.emit(clock(), "crash", rank, nodes=solver.nodes_processed_total)
                return False  # die abruptly, exactly like a kill
            msg = channel.recv(0.0 if solver.is_busy else POLL_INTERVAL)
            if msg is None and not solver.is_busy:
                continue  # still waiting for work
            # busy wall-clock covers the whole working burst — message
            # handling, the solver step and the encode/flush — so
            # idle_ratio counts only genuine waiting-for-work time
            t_burst = time.perf_counter()
            while msg is not None:
                if tracer.enabled:
                    tracer.emit(clock(), "deliver", rank, src=msg.src, tag=msg.tag.value)
                solver.handle_message(msg, send)
                msg = None if solver.state == "terminated" else channel.recv(0.0)
            flush()
            if solver.is_busy:
                start = clock()
                solver.do_work(send)
                if tracer.enabled:
                    tracer.emit(start, "work", rank, work=clock() - start)
                flush()
            busy_wall += time.perf_counter() - t_burst
        return True
    finally:
        late.cancel()


class EngineCore:
    """What every engine owns: the run's injector, tracer and router, the
    limit check, the membership tick and the end-of-run accounting.

    A scheduler adds its clock ``_now()``, the coordinator's ``_send``
    and ``_start_rank(rank)``, which brings a rank already in ``solvers``
    to life and is True when its wire is up (it can be spoken to at once).
    """

    #: real-time budget of the run (``UGSolver.wall_clock_limit``); the
    #: run is interrupted — incumbent and bound survive — once it is spent
    wall_clock_limit = math.inf

    def __init__(
        self,
        lc: LoadCoordinator,
        solvers: dict[int, ParaSolver],
        config: UGConfig,
        tracer: Tracer | None = None,
    ) -> None:
        self.lc = lc
        self.solvers = solvers
        self.config = config
        self.injector = FaultInjector(config.fault_plan)
        lc.fault_injector = self.injector
        # one tracer per engine run, shared by every protocol component
        if tracer is None:
            tracer = Tracer(enabled=config.trace_enabled, capacity=config.trace_capacity)
        self.tracer = lc.tracer = tracer
        for solver in solvers.values():
            solver.tracer = tracer
        self.router = MessageRouter(self.injector, tracer)
        # per-run message sequence numbers of everything this process
        # sends: (src, seq) identifies a message within the run
        self._msg_seq = SeqStamper()
        # wire endpoints (engines with a wire): coordinator side by rank,
        # and the rank side where the ranks live in this process
        self.channels: dict[int, MessageChannel] = {}
        self.rank_channels: dict[int, MessageChannel] = {}
        self._busy: dict[int, float] = {}
        # when each rank came and went: idle_ratio charges a rank only for
        # the time it existed (a late joiner or an early-drained rank must
        # not be billed for the full run span); a rank in ``_gone`` is no
        # longer read
        self._born: dict[int, float] = {}
        self._gone: dict[int, float] = {}
        self._wall_start = 0.0
        # elastic membership: scripted joins/drains ride engine time, and
        # the watchdog (if any) books replacement joins for dead ranks
        plan = config.cluster_plan
        self._plan_events = plan.sorted_events() if plan is not None else []
        self.watchdog = plan.make_watchdog(self._now) if plan is not None else None
        self._death_seen: set[int] = set()

    def _begin_alive(self, rank: int, now: float) -> None:
        self._busy.setdefault(rank, 0.0)
        self._born[rank] = now

    def _channel(self, transport: Transport, local_rank: int, remote_rank: int) -> MessageChannel:
        """A wire endpoint in this process, on the run's injector, counters,
        tracer and clock."""
        return MessageChannel(
            transport,
            local_rank=local_rank,
            remote_rank=remote_rank,
            stamper=self._msg_seq,
            injector=self.injector,
            stats=self.lc.stats,
            tracer=self.tracer,
            clock=self._now,
        )

    def _wire_loopback(self, rank: int) -> LoopbackTransport:
        """Both endpoints of an in-process rank over a loopback pair;
        returns the coordinator's transport end."""
        lc_end, rank_end = LoopbackTransport.pair()
        self.channels[rank] = self._channel(lc_end, LOAD_COORDINATOR_RANK, rank)
        self.rank_channels[rank] = self._channel(rank_end, rank, LOAD_COORDINATOR_RANK)
        return lc_end

    # -- limits -----------------------------------------------------------------

    def _limit_reached(self, now: float, nodes: int) -> bool:
        """Time (engine clock), node and real-time limits, checked in one
        place.  Under a wall clock the first and the last coincide, so
        the tighter of ``time_limit`` and ``wall_clock_limit`` binds."""
        return (
            now >= self.config.time_limit
            or nodes >= self.config.node_limit
            or time.perf_counter() - self._wall_start >= self.wall_clock_limit
        )

    # -- elastic membership -------------------------------------------------------

    def _join_rank(self, now: float, rank: int | None) -> int | None:
        """Admit a fresh rank mid-solve: a new ParaSolver built from the
        run identity (presolved instance, base params, seed), started by
        the engine and — once its wire is up — welcomed by the
        LoadCoordinator.  None when it cannot be started."""
        lc = self.lc
        if rank is None:
            # joins may be in flight (started, wire not up yet): every rank
            # ever started is in ``solvers``, the LC only knows the admitted
            rank = max(max(self.solvers, default=0) + 1, lc.next_rank_id())
        if lc.finished or rank in self.solvers:
            return None
        solver = build_para_solver(rank, lc.instance, lc.user_plugins, lc.params, lc.seed, self.config)
        solver.tracer = self.tracer  # the constructor only saw launch-time solvers
        self.solvers[rank] = solver
        if self._start_rank(rank):
            lc.note_rank_join(self._send, now, rank=rank)
        return rank

    def _wake_at(self, when: float) -> None:
        """The membership tick wants to run again at ``when`` (a no-op
        where the loop ticks on its own)."""

    def _membership_tick(self, now: float) -> None:
        """Fire due scripted joins/drains and watchdog replacements."""
        if not self._plan_events and self.watchdog is None:
            return
        lc, send = self.lc, self._send
        # feed every newly observed death (engine- or heartbeat-detected)
        # to the watchdog so a replacement join gets booked
        for rank in sorted(lc.dead - self._death_seen):
            self._death_seen.add(rank)
            if self.watchdog is not None:
                due = self.watchdog.note_death(rank, now)
                if due is not None:
                    self._wake_at(due)
        while self._plan_events and self._plan_events[0].at_time <= now:
            ev = self._plan_events.pop(0)
            if lc.finished:
                return
            if ev.action == "join":
                self._join_rank(now, ev.rank)
            else:
                target = ev.rank
                if target is None:
                    candidates = lc.live_solvers() - lc.draining
                    target = max(candidates) if candidates else None
                if target is not None:
                    lc.request_drain(target, send, now)
        if self.watchdog is not None:
            for root in self.watchdog.due(now):
                if lc.finished:
                    return
                rank = self._join_rank(now, None)
                if rank is not None:
                    lc.stats.bump("ranks_restarted")
                    self.watchdog.bind(rank, root)
                    self.tracer.emit(now, "rank_restart", rank, root=root)

    # -- end of run ---------------------------------------------------------------

    def _finish_accounting(self, now: float) -> None:
        """``solver_busy``, fault counters and the idle ratio.

        Idle is measured over *alive intervals*: each rank is charged only
        for the part of the run span it existed in — ``span × nranks`` when
        nobody joined or left, and no artificial idleness when somebody
        did.
        """
        lc = self.lc
        lc.stats.solver_busy = dict(self._busy)
        self.injector.export_stats(lc.stats)
        span = lc.stats.computing_time or now
        alive = {
            rank: max(min(self._gone.get(rank, span), span) - born, 0.0)
            for rank, born in self._born.items()
        }
        # fsum: n equal spans must add up to exactly span * n
        total = math.fsum(alive.values())
        busy = sum(min(b, alive.get(r, span)) for r, b in self._busy.items())
        lc.stats.idle_ratio = max(0.0, 1.0 - busy / total) if total > 0 else 0.0


class WallClockEngine(EngineCore):
    """Real-time scheduler: the LoadCoordinator polls one wire channel per
    rank while the ranks run :func:`rank_loop` somewhere else — threads
    over loopback transports, processes over pipes or TCP.  A subclass
    says how a rank is started (``_start_rank``, filling ``workers`` with
    objects that have ``is_alive()``) and how the workers get until a
    ``deadline`` to honor TERMINATION (``_reap(deadline)``).

    Failure story: a worker that dies (killed, crashed, injected
    ``SolverCrash``) is observed here — dead worker, closed channel, or
    heartbeat silence — and funneled into
    :meth:`LoadCoordinator.note_rank_death`, the same reclaim/continue
    path heartbeat timeouts take.  The run degrades gracefully and never
    claims a proven optimum over a lost subtree.
    """

    def __init__(
        self,
        lc: LoadCoordinator,
        solvers: dict[int, ParaSolver],
        config: UGConfig,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(lc, solvers, config, tracer)
        #: rank -> the thread/process running it
        self.workers: dict[int, Any] = {}
        self._late = LateShipper()
        # set by any frame arriving over an in-memory transport
        self._mail = threading.Event()
        # the LoadCoordinator's send function
        self._send = self.router.sender(
            LOAD_COORDINATOR_RANK, self._msg_seq, self._now, self._deliver, real_time=True
        )

    def _now(self) -> float:
        return time.perf_counter() - self._wall_start

    def _on_reset(self, rank: int) -> None:
        """``rank`` marked the end of its run with a RESET frame."""

    def _launch(self) -> None:
        for rank in sorted(self.solvers):
            self._start_rank(rank)

    # -- coordinator-side plumbing ------------------------------------------------

    def _deliver(self, msg: Message, now: float, extra_delay: float) -> None:
        channel = self.channels.get(msg.dst)
        if channel is None:
            if msg.dst in self._gone:
                return  # retired rank: black hole, like a closed channel
            raise CommError(f"unknown rank {msg.dst}")
        if extra_delay > 0:
            self._late.ship(extra_delay, channel, msg)
        else:
            channel.send_message(msg)  # False (dead peer) = black hole

    def _wait_readable(self, timeout: float) -> None:
        """Sleep until some rank has probably sent something."""
        waitable = []
        for rank, channel in self.channels.items():
            if rank in self._gone or channel.closed:
                continue
            transport = channel.transport
            obj = getattr(transport, "conn", None) or getattr(transport, "sock", None)
            if obj is not None:
                waitable.append(obj)
        if waitable:
            multiprocessing.connection.wait(waitable, timeout)
        else:
            self._mail.wait(timeout)
            self._mail.clear()

    def _pump_rank(self, rank: int) -> bool:
        """Deliver everything ``rank``'s channel holds right now; True if
        anything arrived.  Once the coordinator is finished, late
        end-of-run frames only feed the busy accounting."""
        channel = self.channels.get(rank)
        if channel is None or rank in self._gone:
            return False
        lc, progressed = self.lc, False
        while True:
            try:
                msg = channel.recv(0.0)
            except TransportClosedError:
                self._note_death(rank, reason="connection closed")
                break
            if msg is None:
                break
            progressed = True
            if msg.tag is MessageTag.RESET:
                self._on_reset(rank)  # the run-boundary marker: stop reading this rank
                break
            if isinstance(msg.payload, dict) and "busy_wall" in msg.payload:
                self._busy[msg.src] = float(msg.payload["busy_wall"])
            if lc.finished:
                continue
            now = self._now()
            if self.tracer.enabled:
                self.tracer.emit(now, "deliver", LOAD_COORDINATOR_RANK, src=msg.src, tag=msg.tag.value)
            lc.handle_message(msg, self._send, now)
            lc.on_tick(self._send, now)
        return progressed

    def _retire(self, rank: int) -> None:
        """``rank`` is gone for good: stop reading it, close its wire."""
        self._gone.setdefault(rank, self._now())
        channel = self.channels.get(rank)
        if channel is not None and not channel.closed:
            channel.close()

    def _note_death(self, rank: int, reason: str) -> None:
        if rank not in self._gone:
            self._retire(rank)
            self.lc.note_rank_death(rank, self._send, self._now(), reason=reason)

    def _poll_deaths(self) -> None:
        lc = self.lc
        for rank, worker in list(self.workers.items()):
            if rank in self._gone or worker.is_alive():
                continue
            if lc.finished:
                return
            # whatever the exited rank left buffered (the DRAINED goodbye of
            # a graceful exit, say) is delivered before the exit is classified
            self._pump_rank(rank)
            if rank in lc.departed:
                self._retire(rank)  # drain completed: no death note
            else:
                self._note_death(rank, reason=f"worker exited (code {getattr(worker, 'exitcode', None)})")

    # -- main loop ----------------------------------------------------------------

    def run(self) -> None:
        lc, send = self.lc, self._send
        self._wall_start = time.perf_counter()
        self._launch()
        lc.start(send, 0.0)
        last_death_poll = 0.0
        while not lc.finished:
            now = self._now()
            if self._limit_reached(now, lc.nodes_processed_total()):
                lc.interrupt(send, now)
                break
            self._membership_tick(now)
            progressed = False
            for rank in sorted(self.channels):
                if lc.finished:
                    break
                progressed = self._pump_rank(rank) or progressed
            if lc.finished:
                break
            # death checks cost a waitpid per rank — poll-interval cadence
            # is plenty (a dead rank's channel also trips TransportClosedError)
            now = self._now()
            if now - last_death_poll >= POLL_INTERVAL or not progressed:
                self._poll_deaths()
                last_death_poll = now
            lc.on_tick(send, self._now())
            if not progressed:
                self._wait_readable(POLL_INTERVAL)
        self._shutdown()
        self._finish_accounting(self._now())

    def _shutdown(self) -> None:
        """Cancel pending delay timers, reap the workers inside the grace
        period, then close every channel."""
        self._late.cancel()
        self._reap(time.monotonic() + SHUTDOWN_GRACE)
        for channel in self.channels.values():
            if not channel.closed:
                channel.close()
