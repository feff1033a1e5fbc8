"""The asyncio job daemon: accept, schedule, solve, certify, survive.

One :class:`ServeDaemon` multiplexes many concurrent STP/MISDP solves
over a bounded fleet of worker slots.  The control plane (admission,
fair-share scheduling, journaling, streaming) lives on the event loop;
each granted job runs its blocking ``ug[...]`` solve on a worker thread
(``asyncio.to_thread``), so with ``engine="process"`` the actual solving
is true-parallel across OS processes — and with the warm worker pool of
DESIGN.md §5g the spawned ranks persist *across jobs*, which is what
makes the fleet shared rather than per-job.

Crash safety is write-ahead: every state transition is journaled
(CRC32 + fsync, :mod:`repro.serve.journal`) *before* the daemon acts on
it.  A restarted daemon replays the journal, keeps every terminal job's
outcome (never re-runs completed work), and requeues accepted jobs that
were queued or in flight when the process died — each accepted job
reaches a terminal state exactly once.

Wire protocol: JSON lines over TCP.  One request object per line; one
response object per line (``stream`` responds with many lines, ending
in a ``stream_end`` object).  See :mod:`repro.serve.client`.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.metrics import Counters, Timer
from repro.obs.trace import Tracer
from repro.serve import runner
from repro.serve.cache import VerifiedResultCache
from repro.serve.jobs import (
    AdmissionError,
    InvalidJobError,
    JobOutcome,
    JobRecord,
    JobRequest,
    JobState,
    ServeError,
    UnknownJobError,
)
from repro.serve.journal import (
    EV_CANCELLED,
    EV_COMPLETED,
    EV_STARTED,
    EV_SUBMITTED,
    JobJournal,
    reduce_journal,
    replay_journal,
)
from repro.serve.scheduler import FairShareScheduler, TenantQuota
from repro.utils.budget import Budget

#: hard cap on any request's deadline, seconds (bounds client input)
MAX_DEADLINE = 600.0
#: how often a progress stream polls its job's tracer, seconds
STREAM_POLL = 0.05


@dataclass
class ServeStatistics(Counters):
    """Counters and peaks of one daemon life."""

    jobs_submitted: int = 0
    jobs_accepted: int = 0
    jobs_rejected_queue_full: int = 0
    jobs_rejected_quota: int = 0
    jobs_rejected_invalid: int = 0
    jobs_succeeded: int = 0
    jobs_degraded: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_requeued: int = 0  # accepted-but-unfinished jobs recovered on restart
    cache_hits: int = 0
    cache_misses: int = 0
    cache_inserts: int = 0
    cache_insert_rejected: int = 0
    cache_evictions: int = 0
    cache_translation_failed: int = 0  # canonical entry unmappable onto the query
    verify_refusals: int = 0  # answers refused by the certificate check
    journal_torn_bytes: int = 0  # torn-tail bytes dropped during recovery
    stream_events_sent: int = 0
    peak_queue_depth: int = 0
    peak_running_slots: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ServeConfig:
    """Knobs of one daemon (times are wall-clock seconds)."""

    journal_path: str
    engine: str = "sim"  # comm handed to ug(): sim | threads | process | loopback
    slots: int = 4  # total worker slots shared by all running jobs
    max_queue_depth: int = 64
    default_deadline: float = 30.0  # granted when a request names none
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is daemon.port after start()
    clock: Callable[[], float] = time.monotonic  # injectable (Budget seam)
    journal_fsync: bool = True

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if not self.default_deadline > 0:
            raise ValueError("ServeConfig.default_deadline must be positive")
        if self.engine not in ("sim", "threads", "process", "loopback"):
            raise ValueError(f"unknown engine {self.engine!r}")


class ServeDaemon:
    """Crash-safe solver-as-a-service daemon (one per journal file)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.stats = ServeStatistics()
        self.job_seconds = Timer()  # start-to-finish wall time of every finished job
        self.scheduler = FairShareScheduler(
            max_queue_depth=config.max_queue_depth,
            default_quota=config.default_quota,
            quotas=config.quotas,
            clock=config.clock,
        )
        self.cache = VerifiedResultCache(stats=self.stats)
        self.jobs: dict[str, JobRecord] = {}
        self._instances: dict[str, Any] = {}
        self._slots_used = 0
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._kick: asyncio.Event | None = None
        self._stopping = False
        self._stopped: asyncio.Event | None = None
        self.port: int | None = None
        # -- crash recovery: replay the journal before accepting anything
        replay = replay_journal(config.journal_path)
        if replay.torn_bytes:
            self.stats.journal_torn_bytes = replay.torn_bytes
        self._recovered = reduce_journal(replay.records)
        self.journal = JobJournal(config.journal_path, fsync=config.journal_fsync)
        self._requeue_recovered()

    # -- recovery ---------------------------------------------------------------

    def _requeue_recovered(self) -> None:
        """Rebuild records from the journal; requeue unfinished work."""
        for job_id, replayed in self._recovered.items():
            if replayed.request_json is None:
                continue  # submitted record lost to the torn tail
            try:
                request = JobRequest.from_json(replayed.request_json)
            except InvalidJobError:
                continue
            record = JobRecord(
                job_id=job_id,
                request=request,
                state=replayed.state,
                outcome=replayed.outcome(),
                attempts=replayed.attempts,
                submitted_at=self.config.clock(),
            )
            if replayed.terminal:
                self.jobs[job_id] = record
                continue
            # queued or mid-flight at the crash: run it (again); the
            # journal shows no terminal record, so this is not a re-run
            record.state = JobState.QUEUED
            self.jobs[job_id] = record
            # accepted work is never re-admitted — a shrunken queue bound
            # on the restarted daemon must not strand journaled jobs
            self.scheduler.force_enqueue(record)
            self.stats.bump("jobs_requeued")

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP endpoint and start the scheduler loop."""
        self._kick = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.config.engine == "process":
            from repro.ug.net.process_engine import warm_pool

            await asyncio.to_thread(warm_pool, self.config.slots)
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._spawn(self._scheduler_loop(), name="scheduler")
        self._kick.set()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting; cancel the control plane; close the journal.

        Running solves are *not* awaited — their journal has ``started``
        but no terminal record, so a later daemon on the same journal
        requeues them (the crash path, exercised deliberately).
        """
        if self._stopping:
            # a second caller (e.g. the CLI awaiting the shutdown op's
            # spawned stop) just waits for the first to finish
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        # drain until quiescent: a task cancelled mid-dispatch can spawn
        # one more job task after the first snapshot was taken; stop()
        # itself may be one of the tracked tasks (the shutdown op spawns
        # it), so never cancel/await the current task — that is a
        # self-cancellation cycle
        current = asyncio.current_task()
        while True:
            pending = [t for t in self._tasks if t is not current]
            if not pending:
                break
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        self.journal.close()
        if self._stopped is not None:
            self._stopped.set()

    def _spawn(self, coro: Any, name: str = "") -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- submission -------------------------------------------------------------

    def submit(self, request_json: dict[str, Any]) -> dict[str, Any]:
        """Admit one job (or serve it from cache).  Raises typed errors."""
        self.stats.bump("jobs_submitted")
        try:
            request = JobRequest.from_json(request_json)
            instance = runner.build_instance(request)
        except InvalidJobError:
            self.stats.bump("jobs_rejected_invalid")
            raise
        cache_key = runner.instance_cache_key(request.kind, instance)
        fingerprint, labeling = cache_key
        job_id = uuid.uuid4().hex[:12]
        cached = self.cache.lookup(fingerprint)
        if cached is not None:
            cached.solution = runner.KINDS[request.kind].from_cache(
                instance, labeling, cached.solution
            )
            if cached.solution is None:
                self.stats.bump("cache_translation_failed")
                cached = None
        if cached is not None:
            cached.detail = f"served from cache ({cached.detail})"
            record = JobRecord(
                job_id=job_id,
                request=request,
                state=cached.state,
                outcome=cached,
                attempts=0,
                submitted_at=self.config.clock(),
                finished_at=self.config.clock(),
            )
            self.jobs[job_id] = record
            self.journal.append(EV_SUBMITTED, job_id, {"request": request.to_json()})
            self.journal.append(EV_COMPLETED, job_id, {"outcome": cached.to_json()})
            self._count_terminal(cached.state)
            return record.public_view()
        record = JobRecord(
            job_id=job_id, request=request, submitted_at=self.config.clock(), cache_key=cache_key
        )
        try:
            self.scheduler.submit(record, slots=self.config.slots)
        except AdmissionError as exc:
            code = getattr(exc, "code", "admission_rejected")
            self.stats.bump(
                "jobs_rejected_queue_full" if code == "queue_full" else "jobs_rejected_quota"
            )
            raise
        # write-ahead: the journal knows about the job before the client does
        self.journal.append(EV_SUBMITTED, job_id, {"request": request.to_json()})
        self.jobs[job_id] = record
        self._instances[job_id] = instance
        self.stats.bump("jobs_accepted")
        self.stats.peak("peak_queue_depth", self.scheduler.depth)
        if self._kick is not None:
            self._kick.set()
        return record.public_view()

    # -- scheduling + execution -------------------------------------------------

    async def _scheduler_loop(self) -> None:
        assert self._kick is not None
        while not self._stopping:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._kick.wait(), timeout=0.1)
            self._kick.clear()
            while not self._stopping:
                free = self.config.slots - self._slots_used
                job = self.scheduler.next_job(free)
                if job is None:
                    break
                self._slots_used += job.cost
                self.stats.peak("peak_running_slots", self._slots_used)
                self._spawn(self._run_job(job), name=f"job-{job.job_id}")

    def _effective_deadline(self, request: JobRequest) -> float:
        deadline = request.deadline if request.deadline is not None else self.config.default_deadline
        return min(deadline, MAX_DEADLINE)

    def _solve(self, record: JobRecord, budget: Budget) -> Any:
        """Blocking solve on a worker thread (monkeypatchable test seam)."""
        instance = self._instances.get(record.job_id)
        if instance is None:  # recovered from the journal
            instance = runner.build_instance(record.request)
            record.cache_key = runner.instance_cache_key(record.request.kind, instance)
            self._instances[record.job_id] = instance
        return runner.solve_job(
            record.request,
            instance,
            engine=self.config.engine,
            deadline=budget.remaining_time(),
            tracer=record.tracer,
        )

    async def _run_job(self, record: JobRecord) -> None:
        record.state = JobState.RUNNING
        record.attempts += 1
        record.started_at = self.config.clock()
        record.tracer = Tracer(enabled=True, capacity=runner.TRACE_CAPACITY)
        self.journal.append(EV_STARTED, record.job_id, {"attempt": record.attempts})
        budget = Budget(
            time_limit=self._effective_deadline(record.request), clock=self.config.clock
        ).start()
        outcome: JobOutcome
        try:
            result = await asyncio.to_thread(self._solve, record, budget)
        except asyncio.CancelledError:
            # daemon stopping: leave no terminal record; a restart requeues
            raise
        except Exception as exc:  # noqa: BLE001 - a crashed solve must terminate the job
            result = None
            outcome = JobOutcome(
                state=JobState.FAILED, detail=f"solver crashed: {exc!r}", attempts=record.attempts
            )
        if result is not None:
            if record.cancel_requested:
                outcome = JobOutcome(
                    state=JobState.CANCELLED,
                    detail="cancelled while running; result discarded",
                    attempts=record.attempts,
                )
            else:
                instance = self._instances.get(record.job_id)
                outcome, report = runner.outcome_from_result(record.request, instance, result)
                outcome.attempts = record.attempts
                if report is not None and not report.ok:
                    self.stats.bump("verify_refusals")
        self._finish(record, outcome)

    def _finish(self, record: JobRecord, outcome: JobOutcome) -> None:
        event = EV_CANCELLED if outcome.state == JobState.CANCELLED else EV_COMPLETED
        self.journal.append(event, record.job_id, {"outcome": outcome.to_json()})
        record.outcome = outcome
        record.state = outcome.state
        record.finished_at = self.config.clock()
        duration = (record.finished_at or 0.0) - (record.started_at or 0.0)
        self.job_seconds.observe(max(0.0, duration))
        self._count_terminal(outcome.state)
        instance = self._instances.pop(record.job_id, None)
        if outcome.certified and outcome.solution is not None and record.cache_key is not None:
            fingerprint, labeling = record.cache_key
            to_cache = runner.KINDS[record.request.kind].to_cache
            self.cache.insert(
                fingerprint,
                dataclasses.replace(
                    outcome, solution=to_cache(instance, labeling, outcome.solution)
                ),
                lambda: runner.verify_certificate(
                    record.request.kind,
                    instance,
                    outcome.solution,
                    outcome.objective,
                    outcome.bound,
                    solved=outcome.solved,
                    gap_slack=record.request.objective_epsilon or 0.0,
                ),
            )
        self.scheduler.release(record.request.tenant, duration)
        self._slots_used -= record.cost
        if self._kick is not None:
            self._kick.set()

    def _count_terminal(self, state: str) -> None:
        name = {
            JobState.SUCCEEDED: "jobs_succeeded",
            JobState.DEGRADED: "jobs_degraded",
            JobState.FAILED: "jobs_failed",
            JobState.CANCELLED: "jobs_cancelled",
        }.get(state)
        if name:
            self.stats.bump(name)

    # -- queries ----------------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"no job {job_id!r} on this daemon")
        return record

    def status(self, job_id: str) -> dict[str, Any]:
        return self._record(job_id).public_view()

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job.  Cancelling finished work is a successful no-op."""
        record = self._record(job_id)
        if record.terminal:
            view = record.public_view()
            view["noop"] = True
            view["detail"] = f"already {record.state}; cancel is a no-op"
            return view
        if record.state == JobState.QUEUED:
            removed = self.scheduler.cancel(job_id)
            if removed is not None:
                outcome = JobOutcome(
                    state=JobState.CANCELLED,
                    detail="cancelled while queued",
                    attempts=record.attempts,
                )
                self.journal.append(EV_CANCELLED, job_id, {"outcome": outcome.to_json()})
                record.outcome = outcome
                record.state = JobState.CANCELLED
                record.finished_at = self.config.clock()
                self._count_terminal(JobState.CANCELLED)
                return record.public_view()
        # running (or a race just moved it): best-effort cooperative cancel
        record.cancel_requested = True
        view = record.public_view()
        view["cancel_requested"] = True
        return view

    def stats_view(self) -> dict[str, Any]:
        return {
            "serve": self.stats.as_dict(),
            "scheduler": self.scheduler.snapshot(),
            "slots": {"total": self.config.slots, "used": self._slots_used},
            "queue_depth": self.scheduler.depth,
            "jobs": len(self.jobs),
            "cache_size": len(self.cache),
            "job_seconds": self.job_seconds.as_dict() if self.job_seconds.count else None,
        }

    # -- wire protocol ----------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                    op = str(req.get("op", ""))
                except (ValueError, AttributeError):
                    await self._send(writer, {"ok": False, "error": "bad_request",
                                              "message": "malformed JSON request"})
                    continue
                if op == "stream":
                    await self._handle_stream(writer, req)
                    continue
                await self._send(writer, self._dispatch(op, req))
                if op == "shutdown":
                    self._spawn(self.stop(), name="shutdown")
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _dispatch(self, op: str, req: dict[str, Any]) -> dict[str, Any]:
        try:
            if op == "submit":
                return {"ok": True, **self.submit(req.get("request") or {})}
            if op == "status":
                return {"ok": True, **self.status(str(req.get("job_id", "")))}
            if op == "cancel":
                return {"ok": True, **self.cancel(str(req.get("job_id", "")))}
            if op == "stats":
                return {"ok": True, **self.stats_view()}
            if op == "ping":
                return {"ok": True, "pong": True, "engine": self.config.engine}
            if op == "shutdown":
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": "bad_request", "message": f"unknown op {op!r}"}
        except ServeError as exc:
            out = {"ok": False, "error": exc.code, "message": str(exc)}
            if isinstance(exc, AdmissionError):
                out["retry_after"] = exc.retry_after
            return out
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the connection
            return {"ok": False, "error": "internal_error", "message": repr(exc)}

    async def _send(self, writer: asyncio.StreamWriter, obj: dict[str, Any]) -> None:
        writer.write(json.dumps(obj, sort_keys=True).encode() + b"\n")
        await writer.drain()

    async def _handle_stream(self, writer: asyncio.StreamWriter, req: dict[str, Any]) -> None:
        """Stream a job's live trace events as JSON lines until terminal."""
        job_id = str(req.get("job_id", ""))
        try:
            record = self._record(job_id)
        except ServeError as exc:
            await self._send(writer, {"ok": False, "error": exc.code, "message": str(exc)})
            return
        await self._send(writer, {"ok": True, "streaming": job_id})
        cursor, missed_total = 0, 0
        while True:
            tracer = record.tracer
            if tracer is not None:
                cursor, missed, events = tracer.events_since(cursor)
                missed_total += missed
                for ev in events:
                    await self._send(writer, {"event": ev.to_json()})
                    self.stats.bump("stream_events_sent")
            if record.terminal:
                tail = record.tracer
                if tail is not None:
                    cursor, missed, events = tail.events_since(cursor)
                    missed_total += missed
                    for ev in events:
                        await self._send(writer, {"event": ev.to_json()})
                        self.stats.bump("stream_events_sent")
                view = record.public_view()
                view.update({"stream_end": True, "missed": missed_total})
                await self._send(writer, view)
                return
            await asyncio.sleep(STREAM_POLL)


# -- embedding helper -----------------------------------------------------------


@contextlib.contextmanager
def daemon_in_thread(config: ServeConfig) -> Iterator[ServeDaemon]:
    """Run a daemon on a background event loop (examples and tests).

    Yields the started daemon (``daemon.port`` is bound); the sync
    :class:`~repro.serve.client.ServeClient` can talk to it from the
    calling thread.  Stops the daemon on exit.
    """
    daemon = ServeDaemon(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="serve-daemon", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve daemon failed to start within 30s")
    try:
        yield daemon
    finally:
        future = asyncio.run_coroutine_threadsafe(daemon.stop(), loop)
        with contextlib.suppress(Exception):
            future.result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
