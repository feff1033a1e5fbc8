"""repro.serve — crash-safe solver-as-a-service over the ug[...] engines.

The serving layer (DESIGN.md §5h) turns the library into a long-lived
daemon that schedules many concurrent STP/MISDP solves over a shared
worker fleet:

* :class:`ServeDaemon` / :class:`ServeConfig` — the asyncio daemon;
* :class:`ServeClient` — the synchronous client API (also the CLI:
  ``python -m repro.serve submit|status|cancel|stream``);
* :class:`JobRequest` / :class:`JobOutcome` — the job model;
* :class:`FairShareScheduler` / :class:`TenantQuota` — admission control
  and deficit-round-robin fair share;
* :class:`JobJournal` — the CRC32 + fsync write-ahead journal that makes
  a ``kill -9`` survivable;
* :class:`VerifiedResultCache` — the instance-fingerprint cache whose
  inserts are gated on a re-verified certificate.
"""

from repro.serve.cache import VerifiedResultCache
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon, ServeStatistics, daemon_in_thread
from repro.serve.jobs import (
    AdmissionError,
    InvalidJobError,
    JobOutcome,
    JobRecord,
    JobRequest,
    JobState,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    UnknownJobError,
)
from repro.serve.journal import JobJournal, reduce_journal, replay_journal
from repro.serve.runner import instance_cache_key, verify_certificate
from repro.serve.scheduler import FairShareScheduler, TenantQuota

__all__ = [
    "AdmissionError",
    "FairShareScheduler",
    "InvalidJobError",
    "JobJournal",
    "JobOutcome",
    "JobRecord",
    "JobRequest",
    "JobState",
    "QueueFullError",
    "QuotaExceededError",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeError",
    "ServeStatistics",
    "TenantQuota",
    "UnknownJobError",
    "VerifiedResultCache",
    "daemon_in_thread",
    "instance_cache_key",
    "reduce_journal",
    "replay_journal",
    "verify_certificate",
]
