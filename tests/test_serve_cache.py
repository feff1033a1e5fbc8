"""Verified result cache: certificate-gated inserts, LRU behavior."""

from __future__ import annotations

import pytest

from repro.serve.cache import VerifiedResultCache
from repro.serve.daemon import ServeStatistics
from repro.serve.jobs import JobOutcome, JobState
from repro.verify.result import CheckReport

pytestmark = pytest.mark.fast


def served(state=JobState.SUCCEEDED):
    return JobOutcome(
        state=state, objective=5.0, bound=5.0, gap=0.0, solved=True,
        certified=True, solution=[1, 2, 3], detail="solved",
    )


def passing():
    report = CheckReport(subject="test")
    report.add("always", True, "fine")
    return report


def failing():
    report = CheckReport(subject="test")
    report.add("always", False, "broken")
    return report


def test_insert_requires_passing_certificate():
    cache = VerifiedResultCache()
    assert cache.insert("fp", served(), failing) is False
    assert "fp" not in cache
    assert cache.insert("fp", served(), passing) is True
    assert "fp" in cache


def test_verifier_exception_refuses_insert():
    cache = VerifiedResultCache()

    def explode():
        raise RuntimeError("verifier crashed")

    assert cache.insert("fp", served(), explode) is False
    assert len(cache) == 0


def test_only_served_states_with_solutions_are_cacheable():
    cache = VerifiedResultCache()
    assert cache.insert("a", served(JobState.FAILED), passing) is False
    assert cache.insert("b", served(JobState.CANCELLED), passing) is False
    no_solution = served()
    no_solution.solution = None
    assert cache.insert("c", no_solution, passing) is False
    assert cache.insert("d", served(JobState.DEGRADED), passing) is True


def test_lookup_returns_fresh_copy_marked_from_cache():
    cache = VerifiedResultCache()
    cache.insert("fp", served(), passing)
    first = cache.lookup("fp")
    assert first is not None and first.from_cache
    first.solution.append(99)  # mutating the served copy...
    second = cache.lookup("fp")
    assert second.solution == [1, 2, 3]  # ...does not touch the stored entry


def test_lookup_miss_returns_none():
    assert VerifiedResultCache().lookup("nope") is None


def test_lru_eviction_and_metrics():
    stats = ServeStatistics()
    cache = VerifiedResultCache(capacity=2, stats=stats)
    cache.insert("a", served(), passing)
    cache.insert("b", served(), passing)
    assert cache.lookup("a") is not None  # refresh a -> b is now oldest
    cache.insert("c", served(), passing)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert stats.cache_evictions == 1
    assert stats.cache_inserts == 3
    assert stats.cache_hits == 1 and stats.cache_misses == 0
    cache.insert("d", served(), failing)
    assert stats.cache_insert_rejected == 1


def test_duplicate_insert_is_idempotent():
    calls = []

    def counting_verifier():
        calls.append(1)
        return passing()

    cache = VerifiedResultCache()
    assert cache.insert("fp", served(), counting_verifier)
    assert cache.insert("fp", served(), counting_verifier)
    assert len(calls) == 1  # the second insert did not re-verify
    assert len(cache) == 1
