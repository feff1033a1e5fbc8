"""Crash-safe append-only job journal — CRC32 records, fsync, idempotent replay.

The journal is the daemon's only durable state.  Every accepted job
writes a ``submitted`` record carrying its full request; every attempt
writes ``started``; every terminal transition writes exactly one of
``completed`` / ``failed`` / ``cancelled`` with the outcome attached.
The hardening mirrors the checkpoint files of ``repro.ug.checkpoint``
(DESIGN.md §5a): each record is one line of canonical JSON whose
``crc32`` field checksums the rest, and every append is flushed and
fsynced before the daemon acts on the transition it records
(write-ahead: the journal is always at least as new as the in-memory
state it describes).

Replay tolerates exactly the damage a ``kill -9`` can cause: a torn
final line (the write raced the crash) is dropped and counted, and
replay stops cleanly there.  A corrupt record *before* intact ones means
real tampering/bit-rot, which replay also refuses to read past — the
records after it may depend on the lost transition.

:func:`reduce_journal` folds a record stream into per-job end states and
is idempotent by construction: transitions on an already-terminal job
are ignored (and counted), so replaying a journal twice — or replaying
one that recorded a duplicated terminal write — yields the same states.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.jobs import JobOutcome, JobState, TERMINAL_STATES
from repro.utils.records import canonical_json

_CRC_KEY = "crc32"

#: journal event names
EV_SUBMITTED = "submitted"
EV_STARTED = "started"
EV_COMPLETED = "completed"  # data carries the outcome (succeeded | degraded | failed)
EV_CANCELLED = "cancelled"
EVENTS = frozenset({EV_SUBMITTED, EV_STARTED, EV_COMPLETED, EV_CANCELLED})


@dataclass
class JournalRecord:
    seq: int
    event: str
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)


class JobJournal:
    """Append-only writer.  One instance owns the file for one daemon life."""

    def __init__(self, path: str | os.PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # resume the seq counter past whatever is already on disk so a
        # restarted daemon keeps appending monotonically
        replay = replay_journal(self.path)
        self._seq = (replay.records[-1].seq + 1) if replay.records else 0
        self._fh = open(self.path, "ab")

    def append(self, event: str, job_id: str, data: dict[str, Any] | None = None) -> int:
        """Durably write one record; returns its sequence number."""
        if event not in EVENTS:
            raise ValueError(f"unknown journal event {event!r}")
        doc = {"seq": self._seq, "event": event, "job": job_id, "data": data or {}}
        doc[_CRC_KEY] = zlib.crc32(canonical_json(doc))
        self._fh.write(canonical_json(doc) + b"\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._seq += 1
        return self._seq - 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class JournalReplay:
    """Outcome of reading a journal file back."""

    records: list[JournalRecord] = field(default_factory=list)
    #: bytes of torn tail dropped (a record the crash cut mid-write)
    torn_bytes: int = 0
    #: description of the record that stopped the replay, if any
    corrupt: str | None = None


def replay_journal(path: str | os.PathLike) -> JournalReplay:
    """Read every intact record; stop at the first damaged one.

    A missing file replays to zero records (a fresh daemon).  Damage on
    the *final* line is the expected kill-9 signature and is only
    counted; damage followed by further intact lines is reported via
    ``corrupt`` so the operator can distinguish bit-rot from a crash.
    """
    p = Path(path)
    out = JournalReplay()
    try:
        raw = p.read_bytes()
    except FileNotFoundError:
        return out
    lines = raw.split(b"\n")
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            crc = doc.pop(_CRC_KEY)
            if crc != zlib.crc32(canonical_json(doc)):
                raise ValueError(f"CRC32 mismatch (stored {crc})")
            rec = JournalRecord(
                seq=int(doc["seq"]),
                event=str(doc["event"]),
                job_id=str(doc["job"]),
                data=dict(doc.get("data", {})),
            )
            if rec.event not in EVENTS:
                raise ValueError(f"unknown event {rec.event!r}")
        except (ValueError, KeyError, TypeError) as exc:
            remainder = sum(len(rest) for rest in lines[idx:]) + max(0, len(lines) - idx - 1)
            if any(rest.strip() for rest in lines[idx + 1:]):
                out.corrupt = f"record {idx + 1} of {p.name} is corrupt ({exc}); replay stopped"
            out.torn_bytes = remainder
            return out
        out.records.append(rec)
    return out


@dataclass
class ReplayedJob:
    """Per-job fold of the journal: the daemon's recovery unit."""

    job_id: str
    request_json: dict[str, Any] | None = None
    state: str = JobState.QUEUED
    outcome_json: dict[str, Any] | None = None
    attempts: int = 0
    #: terminal records seen after the job was already terminal (should
    #: stay 0 — the exactly-once property the crash tests assert)
    duplicate_terminals: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def outcome(self) -> JobOutcome | None:
        return None if self.outcome_json is None else JobOutcome.from_json(self.outcome_json)


def reduce_journal(records: list[JournalRecord]) -> dict[str, ReplayedJob]:
    """Fold records into per-job end states (idempotent, order-respecting)."""
    jobs: dict[str, ReplayedJob] = {}
    for rec in records:
        job = jobs.setdefault(rec.job_id, ReplayedJob(rec.job_id))
        if rec.event == EV_SUBMITTED:
            if job.request_json is None:
                job.request_json = dict(rec.data.get("request", {}))
            continue
        if job.terminal:
            # idempotency: a terminal job never transitions again; count
            # the duplicate so the crash tests can assert exactly-once
            if rec.event in (EV_COMPLETED, EV_CANCELLED):
                job.duplicate_terminals += 1
            continue
        if rec.event == EV_STARTED:
            job.attempts += 1
            job.state = JobState.RUNNING
        elif rec.event == EV_COMPLETED:
            job.outcome_json = dict(rec.data.get("outcome", {}))
            job.state = str(job.outcome_json.get("state", JobState.FAILED))
            if job.state not in TERMINAL_STATES:
                job.state = JobState.FAILED
        elif rec.event == EV_CANCELLED:
            job.state = JobState.CANCELLED
            job.outcome_json = dict(rec.data.get("outcome", {})) or None
    return jobs
