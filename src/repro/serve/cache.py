"""Verified instance-fingerprint cache.

Maps :func:`repro.serve.runner.instance_cache_key` hashes to served
outcomes so a repeat query — same instance, regardless of how the
request spelled it — is answered instantly.  Two safety rules keep the
cache from ever laundering a bad answer:

* **verify on insert** — an entry is stored only after its certificate
  re-verifies against the instance *at insert time* (the verifier
  closure re-runs the independent ``repro.verify`` checkers); a result
  that cannot re-verify is refused and counted, never stored;
* **serve copies** — lookups return a fresh :class:`JobOutcome` marked
  ``from_cache`` so callers cannot mutate the stored entry.

Capacity-bounded LRU; eviction is by least-recent *use* (a hot entry
stays hot).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Callable

from repro.serve.jobs import JobOutcome, SERVED_STATES


class VerifiedResultCache:
    """LRU fingerprint -> outcome cache with certificate-gated inserts."""

    def __init__(self, capacity: int = 128, stats: Any = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        # the daemon's ServeStatistics (None: uncounted)
        self.stats = stats
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def _inc(self, name: str) -> None:
        if self.stats is not None:
            self.stats.bump(name)

    def lookup(self, fingerprint: str) -> JobOutcome | None:
        """Serve a cached outcome (a fresh copy flagged ``from_cache``)."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self._inc("cache_misses")
            return None
        self._entries.move_to_end(fingerprint)
        self._inc("cache_hits")
        # deep-copy so a caller mutating the served solution cannot
        # poison the stored (certificate-verified) entry
        outcome = JobOutcome.from_json(copy.deepcopy(entry))
        outcome.from_cache = True
        return outcome

    def insert(
        self,
        fingerprint: str,
        outcome: JobOutcome,
        verifier: Callable[[], Any],
    ) -> bool:
        """Store a served outcome iff its certificate re-verifies now.

        ``verifier`` re-runs the independent certificate check (a
        ``repro.verify`` :class:`CheckReport`-returning closure built by
        the daemon around the instance).  Returns True when stored.
        """
        if outcome.state not in SERVED_STATES or outcome.solution is None:
            return False
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            return True
        try:
            report = verifier()
            ok = bool(getattr(report, "ok", False))
        except Exception:
            ok = False
        if not ok:
            self._inc("cache_insert_rejected")
            return False
        stored = copy.deepcopy(outcome.to_json())
        stored["from_cache"] = False
        self._entries[fingerprint] = stored
        self._inc("cache_inserts")
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._inc("cache_evictions")
        return True
