"""True-parallel engine: one OS process per ParaSolver rank.

The :class:`ProcessEngine` is the wall-clock poll loop of
:class:`~repro.ug.engine_core.WallClockEngine` (DESIGN.md §5e) with every
rank's :func:`~repro.ug.engine_core.rank_loop` in its own
``multiprocessing.Process`` (spawn context — no inherited state, same
start semantics on every platform; an injected ``SolverCrash`` is a hard
``os._exit``) over a pluggable transport: ``multiprocessing.Pipe`` by
default, TCP sockets with a rank/token hello handshake when
``config.net_transport == "tcp"``.  Gracefully finished pipe workers are
parked in a warm pool and re-armed by the next run.

The worker entry point lives at module top level so the spawn context can
import it; everything shipped to a child is plain picklable data (no
sockets, no handles — TCP children dial back and authenticate).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.cip.params import ParamSet
from repro.exceptions import CommError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.ug.config import UGConfig
from repro.ug.engine_core import MessageRouter, WallClockEngine, build_para_solver, rank_loop
from repro.ug.faults import FaultInjector
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.messages import LOAD_COORDINATOR_RANK, MessageTag
from repro.ug.net.channel import MessageChannel
from repro.ug.net.transport import (
    CONNECT_TIMEOUT,
    PipeTransport,
    TcpTransport,
    Transport,
    TransportClosedError,
    make_hello_token,
    recv_hello,
    send_hello,
    hello_token_matches,
    tcp_listener,
)
from repro.ug.para_solver import ParaSolver
from repro.ug.user_plugins import UserPlugins

#: child exit codes the parent maps onto death reasons
EXIT_OK = 0
EXIT_COMM_LOST = 13  # parent vanished mid-run
EXIT_INJECTED_CRASH = 42  # FaultPlan SolverCrash fired inside the child


@dataclass
class _SolverSpec:
    """Everything a spawned worker needs, as plain picklable data."""

    rank: int
    instance: Any
    user_plugins: UserPlugins
    params: ParamSet
    seed: int
    config: UGConfig
    # TCP mode only: dial-back coordinates; None means a Pipe rides along
    tcp_addr: tuple[str, int] | None = None
    tcp_token: bytes = b""


def _child_transport(spec: _SolverSpec, conn: Any) -> Transport:
    if spec.tcp_addr is None:
        return PipeTransport(conn)
    transport = TcpTransport.connect(spec.tcp_addr[0], spec.tcp_addr[1], jitter_seed=spec.rank)
    # authenticate before any protocol frame: the listener drops dialers
    # that don't present the run's token with the right rank
    send_hello(transport.sock, spec.rank, spec.tcp_token)
    return transport


def _worker_main(conn: Any, spec: _SolverSpec | None = None) -> None:
    """Process entry point of a worker.

    With a ``spec``: one spawn-per-run ParaSolver rank.  Without: a
    *reusable* (warm-pool) worker, pipe mode only, armed by a pickled
    :class:`_SolverSpec` arriving on the Connection — the same trust
    boundary as spawn args, NOT the wire codec, which stays pickle-free.
    It runs one full ParaSolver lifetime, marks the run boundary with a
    RESET frame, and loops back for the next spec; ``None`` retires it.
    Any abnormal run exit (injected crash, lost coordinator) kills the
    process either way, so a tainted worker can never re-enter the pool.
    """
    try:
        if spec is not None:
            code = _worker_loop(spec, conn)
        else:
            code = EXIT_OK
            # conn.recv(): parent-controlled pickle, like spawn args
            while code == EXIT_OK and (spec := conn.recv()) is not None:
                code = _worker_loop(spec, conn, reusable=True)
    except (TransportClosedError, EOFError, OSError, KeyboardInterrupt):
        code = EXIT_COMM_LOST
    # _exit: skip atexit/teardown races in a dying worker — the parent
    # only cares about the code
    os._exit(code)


def _worker_loop(spec: _SolverSpec, conn: Any, reusable: bool = False) -> int:
    """One full ParaSolver lifetime in this process: build the rank from
    its spec and run the shared :func:`~repro.ug.engine_core.rank_loop`."""
    config = spec.config
    solver = build_para_solver(
        spec.rank, spec.instance, spec.user_plugins, spec.params, spec.seed, config
    )
    injector = FaultInjector(config.fault_plan)
    channel = MessageChannel(
        _child_transport(spec, conn),
        local_rank=spec.rank,
        remote_rank=LOAD_COORDINATOR_RANK,
        injector=injector,
    )
    t0 = time.perf_counter()
    router = MessageRouter(injector, NULL_TRACER)
    if not rank_loop(solver, channel, router, lambda: time.perf_counter() - t0):
        return EXIT_INJECTED_CRASH  # no goodbye: it must look like a kill, not a leave
    # Graceful run end.  Pooled: mark the run boundary with RESET and keep
    # the pipe open for the next spec.  Spawn-per-run: close (a TCP
    # worker's goodbye frames sit in the sender queue; ``close()`` drains
    # them).
    if reusable:
        if not channel.send(LOAD_COORDINATOR_RANK, MessageTag.RESET, {"rank": spec.rank}):
            return EXIT_COMM_LOST
        return EXIT_OK
    channel.close()
    return EXIT_OK


# -- warm worker pool --------------------------------------------------------------


def _start_pipe_worker(ctx: Any, name: str, spec: _SolverSpec | None = None) -> tuple[Any, Any]:
    """Spawn a worker on a fresh duplex pipe (pooled when ``spec`` is
    None); returns the process and the parent's Connection."""
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_worker_main, args=(child_conn, spec), name=name, daemon=True)
    proc.start()
    child_conn.close()
    return proc, parent_conn


class _WarmWorkerPool:
    """Process-local pool of idle reusable workers (pipe transport).

    Spawning a worker costs a full interpreter start plus the numpy/scipy
    import cascade — over a second on small machines, which dwarfs many
    whole solves.  The pool keeps gracefully finished workers parked in
    ``conn.recv()`` so the next run re-arms them with a fresh spec
    instead of paying spawn-per-run.  Only workers that completed the
    RESET handshake are ever released back; crashed, drained-then-dead or
    fault-injected workers take the spawn path and die with their run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[tuple[Any, Any]] = []  # (process, parent Connection)

    def acquire(self) -> tuple[Any, Any] | None:
        with self._lock:
            while self._idle:
                proc, conn = self._idle.pop()
                if proc.is_alive():
                    return proc, conn
                conn.close()  # died while parked; discard
        return None

    def release(self, proc: Any, conn: Any) -> None:
        with self._lock:
            if proc.is_alive():
                self._idle.append((proc, conn))
                return
        conn.close()

    def warm(self, n: int) -> int:
        """Pre-spawn workers until ``n`` sit idle; returns how many were
        actually spawned.  Call before timing-sensitive runs (benchmarks,
        serving) so no measured run pays interpreter start-up."""
        ctx = multiprocessing.get_context("spawn")
        with self._lock:
            missing = max(0, n - len(self._idle))
        fresh = [_start_pipe_worker(ctx, "ParaSolver-pooled") for _ in range(missing)]
        with self._lock:
            self._idle.extend(fresh)
        return len(fresh)

    def size(self) -> int:
        with self._lock:
            return len(self._idle)

    def shutdown(self) -> None:
        """Retire every parked worker (None sentinel, then reap)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for _proc, conn in idle:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in idle:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=2.0)
            conn.close()


#: the module-level pool shared by every ProcessEngine in this process
WORKER_POOL = _WarmWorkerPool()


def warm_pool(n: int) -> int:
    """Pre-spawn ``n`` idle pooled workers; returns how many were spawned."""
    return WORKER_POOL.warm(n)


class ProcessEngine(WallClockEngine):
    """Distributed-memory engine over spawned worker processes.

    The parent's solver objects are templates only: each child rebuilds
    its ParaSolver from the spec, so no state is shared.
    """

    def __init__(
        self,
        lc: LoadCoordinator,
        solvers: dict[int, ParaSolver],
        config: UGConfig,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(lc, solvers, config, tracer)
        # the pool is pipe-only (a pooled worker keeps its Connection
        # across runs; TCP workers dial per run) and never mixes with
        # fault plans: an injected crash must kill a process for real,
        # and replay determinism assumes spawn-fresh workers
        self._use_pool = config.net_transport == "pipe" and config.fault_plan is None
        self._ctx = multiprocessing.get_context("spawn")
        # TCP mode only: the dial-back address and the run's shared secret
        self._listener: Any = None
        self._tcp_addr: tuple[str, int] | None = None
        self._token = b""

    # -- launch ------------------------------------------------------------------

    def _spec_for(self, rank: int) -> _SolverSpec:
        template = self.solvers[rank]
        return _SolverSpec(
            rank=rank,
            instance=template.instance,
            user_plugins=template.user_plugins,
            params=template.base_params,
            seed=template.seed,
            config=self.config,
            tcp_addr=self._tcp_addr,
            tcp_token=self._token,
        )

    def _launch(self) -> None:
        if self.config.net_transport == "tcp":
            self._listener = tcp_listener()
            self._tcp_addr = self._listener.getsockname()
            self._token = make_hello_token()
        super()._launch()
        if self._listener is not None:
            try:
                self._accept_tcp()
            finally:
                self._close_listener()

    def _start_rank(self, rank: int) -> bool:
        """Fork one worker process; pipe mode wires its channel immediately,
        TCP mode waits for the dial-back.  With the warm pool on, pipe mode
        re-arms a parked worker (or spawns a reusable one) instead."""
        spec = self._spec_for(rank)
        name = f"ParaSolver-{rank}"
        if self._tcp_addr is not None:
            proc = self._ctx.Process(target=_worker_main, args=(None, spec), name=name, daemon=True)
            proc.start()
        else:
            if self._use_pool:
                proc, conn = self._arm_pooled(spec, name)
            else:
                proc, conn = _start_pipe_worker(self._ctx, name, spec)
            self.channels[rank] = self._channel(PipeTransport(conn), LOAD_COORDINATOR_RANK, rank)
        self.workers[rank] = proc
        self._begin_alive(rank, self._now())
        return rank in self.channels

    def _arm_pooled(self, spec: _SolverSpec, name: str) -> tuple[Any, Any]:
        """Hand a spec to a pooled worker, reusing a parked one if any."""
        while (acquired := WORKER_POOL.acquire()) is not None:
            proc, conn = acquired
            try:
                conn.send(spec)
            except (BrokenPipeError, OSError):
                conn.close()  # died between park and reuse
                continue
            self.lc.stats.bump("warm_pool_reuses")
            return proc, conn
        proc, conn = _start_pipe_worker(self._ctx, name)
        conn.send(spec)
        return proc, conn

    def _close_listener(self) -> None:
        """Initial accepts done; the static engine needs no more dial-ins.
        (The ClusterSupervisor overrides this to keep admitting joiners.)"""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _accept_tcp(self) -> None:
        """Block until every launch rank has dialed in."""
        deadline = time.monotonic() + CONNECT_TIMEOUT * max(len(self.solvers), 1)
        self._listener.settimeout(1.0)
        missing = set(self.solvers)
        while missing:
            if time.monotonic() > deadline:
                raise CommError(f"ranks {sorted(missing)} never dialed in")
            hit = self._accept_hello(missing)
            if hit is not None:
                missing.discard(hit[0])
                self._wire_tcp(*hit)

    def _accept_hello(self, expected: set[int]) -> tuple[int, Any] | None:
        """One authenticated dial-in from an expected rank, or None (nobody
        dialed within the listener timeout, or a stranger was dropped)."""
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return None
        hello = recv_hello(sock, CONNECT_TIMEOUT)
        if hello is None or not hello_token_matches(hello[1], self._token) or hello[0] not in expected:
            sock.close()  # stranger, replay, duplicate or unexpected rank
            return None
        return hello[0], sock

    def _wire_tcp(self, rank: int, sock: Any) -> None:
        """An authenticated dial-in becomes ``rank``'s channel."""
        sock.settimeout(None)
        transport = TcpTransport(sock)
        self.channels[rank] = self._channel(transport, LOAD_COORDINATOR_RANK, rank)

    # -- teardown ----------------------------------------------------------------

    def _on_reset(self, rank: int) -> None:
        """A pooled worker finished its run gracefully: return it to the
        pool and retire the rank without closing the Connection."""
        if self._use_pool:
            channel = self.channels.pop(rank)
            self._retire(rank)  # its channel is out of reach: nothing gets closed
            if not channel.closed:
                WORKER_POOL.release(self.workers.pop(rank), channel.transport.conn)

    def _reap(self, deadline: float) -> None:
        """Healthy pooled workers are read to their RESET marker, which
        parks them for reuse; everybody else (and a pooled rank wedged
        mid-step past the grace period) is joined, then killed."""

        def unparked() -> list[int]:
            return [
                rank
                for rank in sorted(self.channels)
                if self._use_pool and rank not in self._gone and self.workers[rank].is_alive()
            ]

        while unparked() and time.monotonic() < deadline:
            self._wait_readable(0.02)
            for rank in unparked():
                self._pump_rank(rank)
        for proc in self.workers.values():
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        for proc in self.workers.values():
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5.0)
