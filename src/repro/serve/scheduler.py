"""Admission control and fair-share scheduling (deficit round-robin).

Two layers:

* **Admission** — a submission is rejected *typed* (never queued
  unboundedly) when the global pending queue is at
  ``max_queue_depth`` (:class:`~repro.serve.jobs.QueueFullError`) or the
  tenant is over its own ``max_queued``/``max_active`` quota
  (:class:`~repro.serve.jobs.QuotaExceededError`).  Both carry a
  ``retry_after`` estimate derived from the observed service rate — the
  HTTP-429 contract.

* **Fair share** — accepted jobs are drained by deficit round-robin
  (DRR): each tenant keeps a deficit counter topped up by
  ``quantum * weight`` per scheduling round and pays its head job's cost
  (the worker slots it occupies) to dequeue it.  Over any saturated
  window, tenant throughput converges to the weight ratio regardless of
  submission bursts — one chatty tenant cannot starve the rest.

The scheduler is synchronous and lock-free by design: the asyncio daemon
calls it only from the event loop.  The clock is injectable (the
``repro.utils.budget`` seam) so tests drive retry-after estimates
deterministically.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.serve.jobs import JobRecord, QueueFullError, QuotaExceededError


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits and fair-share weight."""

    max_active: int = 8
    max_queued: int = 64
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_active < 1 or self.max_queued < 1:
            raise ValueError("quota limits must be >= 1")
        if not self.weight > 0:
            raise ValueError("quota weight must be positive")


class FairShareScheduler:
    """Bounded multi-tenant queue with DRR draining."""

    def __init__(
        self,
        max_queue_depth: int = 64,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        quantum: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if not quantum > 0:
            raise ValueError("quantum must be positive")
        self.max_queue_depth = max_queue_depth
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.quantum = quantum
        self.clock = clock
        self._queues: dict[str, deque[JobRecord]] = {}
        self._deficit: dict[str, float] = {}
        self._active: dict[str, int] = {}
        self._rr: list[str] = []  # round-robin tenant order
        self._rr_pos = 0
        # True while the tenant at _rr_pos has not yet received this
        # visit's quantum top-up (DRR serves a tenant's jobs while its
        # deficit lasts, then rotates; the flag survives across
        # next_job() calls so one visit can span several dispatches)
        self._visit_fresh = True
        self._queued_total = 0
        # EMA of job service time, feeding the retry-after estimate
        self._service_ema = 1.0
        self._service_seen = 0

    # -- introspection ----------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    @property
    def depth(self) -> int:
        return self._queued_total

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def active(self, tenant: str) -> int:
        return self._active.get(tenant, 0)

    @property
    def active_total(self) -> int:
        return sum(self._active.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-tenant queue/active/deficit view for the stats endpoint."""
        tenants = set(self._queues) | set(self._active)
        return {
            t: {
                "queued": self.tenant_depth(t),
                "active": self.active(t),
                "deficit": round(self._deficit.get(t, 0.0), 6),
                "weight": self.quota_for(t).weight,
            }
            for t in sorted(tenants)
        }

    # -- retry-after ------------------------------------------------------------

    def observe_service(self, duration: float) -> None:
        """Feed one completed job's wall duration into the EMA."""
        duration = max(1e-3, float(duration))
        if self._service_seen == 0:
            self._service_ema = duration
        else:
            self._service_ema = 0.8 * self._service_ema + 0.2 * duration
        self._service_seen += 1

    def retry_after(self, slots: int = 1) -> float:
        """Estimated seconds until a freshly rejected job could be accepted."""
        backlog = self._queued_total + self.active_total
        return max(0.1, self._service_ema * backlog / max(1, slots))

    # -- admission --------------------------------------------------------------

    def submit(self, record: JobRecord, slots: int = 1) -> None:
        """Admit a job or raise a typed rejection (load shedding)."""
        tenant = record.request.tenant
        quota = self.quota_for(tenant)
        if self._queued_total >= self.max_queue_depth:
            raise QueueFullError(
                f"pending queue is full ({self._queued_total}/{self.max_queue_depth} jobs); "
                f"load is being shed",
                retry_after=self.retry_after(slots),
            )
        if self.tenant_depth(tenant) >= quota.max_queued:
            raise QuotaExceededError(
                f"tenant {tenant!r} has {self.tenant_depth(tenant)} queued jobs "
                f"(quota max_queued={quota.max_queued})",
                retry_after=self.retry_after(slots),
            )
        self.force_enqueue(record)

    def force_enqueue(self, record: JobRecord) -> None:
        """Enqueue bypassing admission control.

        Reserved for crash recovery: work the journal shows as accepted
        must be requeued even if the restarted daemon's bounds shrank —
        admission applies to *new* submissions, never to accepted ones.
        """
        tenant = record.request.tenant
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._rr.append(tenant)
        self._queues[tenant].append(record)
        self._queued_total += 1

    # -- DRR draining -----------------------------------------------------------

    def next_job(self, free_slots: int) -> JobRecord | None:
        """Pick the next job to run, honoring deficits, quotas and slots.

        Returns ``None`` when nothing eligible fits (queue empty, every
        tenant at ``max_active``, or no head job fits ``free_slots``).
        """
        if self._queued_total == 0 or free_slots < 1:
            return None
        n = len(self._rr)
        heads = [q[0].cost for q in self._queues.values() if q]
        max_cost = max(heads, default=1)
        min_weight = min(
            (self.quota_for(t).weight for t, q in self._queues.items() if q), default=1.0
        )
        # enough full cycles for the costliest head job of the
        # lowest-weight tenant to accumulate its cost in deficit (the
        # factor 2 covers the end-of-visit iteration each tenant spends)
        rounds = 2 * n * (int(math.ceil(max_cost / (self.quantum * min_weight))) + 1)
        for _ in range(rounds):
            tenant = self._rr[self._rr_pos % n]
            queue = self._queues.get(tenant)
            quota = self.quota_for(tenant)
            serveable = (
                bool(queue)
                and self.active(tenant) + queue[0].cost <= quota.max_active
                and queue[0].cost <= free_slots
            )
            if not serveable:
                if not queue:
                    # an emptied queue forfeits its saved-up deficit, so a
                    # tenant cannot bank credit while idle and then burst
                    self._deficit[tenant] = 0.0
                self._advance(n)
                continue
            if self._visit_fresh:
                self._deficit[tenant] = (
                    self._deficit.get(tenant, 0.0) + self.quantum * quota.weight
                )
                self._visit_fresh = False
            head = queue[0]
            if head.cost > self._deficit[tenant]:
                self._advance(n)  # this visit's credit is spent; rotate
                continue
            queue.popleft()
            self._queued_total -= 1
            self._deficit[tenant] -= head.cost
            if not queue:
                self._deficit[tenant] = 0.0
                self._advance(n)
            # else: stay on this tenant — the visit continues on the
            # next call while the remaining deficit covers its head job
            self._active[tenant] = self.active(tenant) + 1
            return head
        return None

    def _advance(self, n: int) -> None:
        self._rr_pos = (self._rr_pos + 1) % n
        self._visit_fresh = True

    def release(self, tenant: str, duration: float | None = None) -> None:
        """A job of ``tenant`` finished; free its active slot."""
        self._active[tenant] = max(0, self.active(tenant) - 1)
        if duration is not None:
            self.observe_service(duration)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Remove a still-queued job; ``None`` if it is not queued."""
        for queue in self._queues.values():
            for rec in queue:
                if rec.job_id == job_id:
                    queue.remove(rec)
                    self._queued_total -= 1
                    return rec
        return None
