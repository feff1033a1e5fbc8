"""Crash safety: kill -9 recovery and the randomized-kill-point property.

Two layers:

* ``test_kill9_smoke`` — the CI smoke: a real daemon subprocess is
  SIGKILLed mid-solve; a restarted daemon on the same journal requeues
  the job and completes it.  The journal lands in ``$SERVE_ARTIFACT_DIR``
  when set, so CI uploads it on failure.
* ``test_randomized_kill_points_exactly_once`` — the acceptance property:
  across seeded random kill points, every accepted job reaches a terminal
  state *exactly once* (journal replay is idempotent, no duplicated
  terminal records), and every served answer re-verifies offline against
  an instance rebuilt from the journal's own request record — no served
  answer without a passing certificate.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    JobRequest,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    daemon_in_thread,
    reduce_journal,
    replay_journal,
)
from repro.serve import runner
from repro.serve.jobs import SERVED_STATES, JobState

pytestmark = pytest.mark.fast

REPO = Path(__file__).resolve().parent.parent

# ~2s of solving under the SimEngine: long enough that SIGKILL lands
# mid-solve, bounded by the node budget so recovery stays fast
SLOW_JOB = {
    "kind": "stp",
    "payload": {"generator": "hypercube", "params": {"dim": 6, "perturbed": False}},
    "node_limit": 20,
}


def _artifact_dir(tmp_path: Path) -> Path:
    out = Path(os.environ.get("SERVE_ARTIFACT_DIR", tmp_path))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spawn_daemon(journal: Path, port_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "daemon",
            "--journal", str(journal),
            "--port-file", str(port_file),
            "--slots", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30
    while not port_file.exists():
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon died on startup: {proc.stderr.read().decode(errors='replace')}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise TimeoutError("daemon did not write its port file")
        time.sleep(0.02)
    return proc


def test_kill9_smoke(tmp_path):
    """SIGKILL a real daemon mid-solve; the restart completes the job."""
    art = _artifact_dir(tmp_path)
    journal = art / "kill9_journal.jsonl"
    port_file = tmp_path / "port1"
    proc = _spawn_daemon(journal, port_file)
    try:
        port = int(port_file.read_text().split()[0])
        with ServeClient(port=port) as client:
            view = client.submit(SLOW_JOB)
            job_id = view["job_id"]
            deadline = time.monotonic() + 20
            while client.status(job_id)["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)  # no goodbye, no journal flush
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()

    # the journal shows the job accepted and started but not terminal
    jobs = reduce_journal(replay_journal(journal).records)
    assert jobs[job_id].state == JobState.RUNNING and not jobs[job_id].terminal

    port_file2 = tmp_path / "port2"
    proc2 = _spawn_daemon(journal, port_file2)
    try:
        port2 = int(port_file2.read_text().split()[0])
        with ServeClient(port=port2) as client:
            stats = client.stats()
            assert stats["serve"]["jobs_requeued"] == 1
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "degraded"
            assert final["outcome"]["certified"] is True
            assert final["outcome"]["attempts"] == 2  # one per daemon life
            # the requeued job's cache key was computed when its instance
            # was rebuilt, so its certified answer is cached like any other
            assert client.stats()["serve"]["cache_inserts"] == 1
            client.shutdown()
        proc2.wait(timeout=15)
    finally:
        if proc2.poll() is None:
            proc2.kill()

    # post-mortem: the journal now holds exactly one terminal record
    jobs = reduce_journal(replay_journal(journal).records)
    assert jobs[job_id].terminal and jobs[job_id].duplicate_terminals == 0


class _AbandonableDaemon:
    """An in-process daemon whose event loop can be abandoned mid-flight —
    the closest in-process analogue of kill -9 (no graceful stop(), no
    final journal writes from in-flight coroutines)."""

    def __init__(self, config: ServeConfig) -> None:
        self.daemon = ServeDaemon(config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.daemon.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30)

    def crash(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


def test_randomized_kill_points_exactly_once(tmp_path):
    rng = random.Random(20260808)
    journal = tmp_path / "journal.jsonl"
    requests = [
        JobRequest(
            kind="stp",
            payload={"generator": "grid",
                     "params": {"rows": 3, "cols": 3, "n_terminals": 4, "seed": s}},
        ).to_json()
        for s in range(4)
    ]

    def cfg() -> ServeConfig:
        return ServeConfig(journal_path=str(journal), slots=1)

    # life 0: accept every job, then die at a random point
    life = _AbandonableDaemon(cfg())
    with ServeClient(port=life.daemon.port) as client:
        job_ids = [client.submit(r)["job_id"] for r in requests]
    time.sleep(rng.uniform(0.0, 0.5))
    life.crash()

    # chaotic middle lives: restart, run a random slice, die again
    for _ in range(4):
        jobs = reduce_journal(replay_journal(journal).records)
        if all(jobs[j].terminal for j in job_ids):
            break
        life = _AbandonableDaemon(cfg())
        time.sleep(rng.uniform(0.0, 0.8))
        life.crash()

    # final life: graceful — drain whatever is still unfinished
    with daemon_in_thread(cfg()) as daemon:
        with ServeClient(port=daemon.port) as client:
            for job_id in job_ids:
                client.wait(job_id, timeout=120)

    replay = replay_journal(journal)
    assert replay.corrupt is None  # crashes may tear the tail, never the middle
    jobs = reduce_journal(replay.records)
    for job_id in job_ids:
        job = jobs[job_id]
        # exactly-once: terminal, and no duplicated terminal record even
        # though the job may have been started by several daemon lives
        assert job.terminal, f"{job_id} never reached a terminal state"
        assert job.duplicate_terminals == 0
        outcome = job.outcome()
        assert outcome is not None
        if outcome.state in SERVED_STATES:
            # offline re-verification from the journal alone: rebuild the
            # instance from the stored request and re-run the certificate
            request = JobRequest.from_json(job.request_json)
            instance = runner.build_instance(request)
            report = runner.verify_certificate(
                request.kind,
                instance,
                outcome.solution,
                outcome.objective,
                outcome.bound,
                solved=outcome.solved,
                gap_slack=request.objective_epsilon or 0.0,
            )
            assert report.ok, f"served answer for {job_id} fails offline re-verification: " \
                              f"{[str(c) for c in report.failures]}"
        else:
            assert outcome.state in (JobState.FAILED, JobState.CANCELLED)


def test_journal_survives_restart_without_crash(tmp_path):
    """A clean stop/start cycle keeps terminal outcomes without re-running."""
    journal = tmp_path / "journal.jsonl"

    def cfg() -> ServeConfig:
        return ServeConfig(journal_path=str(journal), slots=1)

    with daemon_in_thread(cfg()) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(
                {"kind": "stp",
                 "payload": {"generator": "grid",
                             "params": {"rows": 2, "cols": 3, "n_terminals": 3, "seed": 5}}}
            )
            final = client.wait(view["job_id"], timeout=60)
            objective = final["outcome"]["objective"]

    with daemon_in_thread(cfg()) as daemon2:
        with ServeClient(port=daemon2.port) as client:
            again = client.status(view["job_id"])
            assert again["state"] == "succeeded"
            assert again["outcome"]["objective"] == objective
            assert again["outcome"]["attempts"] == 1  # completed work is never re-run
            assert daemon2.stats.jobs_requeued == 0
