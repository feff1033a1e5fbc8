"""The counter store of the statistics dataclasses, one timer, and
derived timelines.

:class:`Counters` gives :class:`~repro.ug.statistics.UGStatistics` and
``repro.serve``'s ``ServeStatistics`` their two update verbs — ``bump``
and ``peak`` — so the dataclass fields are the only copy of every count:
checkpoints serialize them mid-run, tests read them whenever they like,
and a misspelled name raises instead of filing a new counter.  One
module-level lock guards both verbs, because the rank-side channels of
the threads engine and the wall-clock delay timers count from other
threads.

Timelines are *derived*, not collected: :func:`busy_timelines` folds the
tracer's ``work`` events (each carrying a start time and a duration)
into per-rank busy interval lists, from which :func:`timeline_idle_ratios`
computes the paper's per-rank idle shares.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceEvent, Tracer

_LOCK = threading.Lock()


class Counters:
    """Locked in-place updates of a statistics dataclass's own fields."""

    def bump(self, name: str, n: float = 1) -> None:
        """Add ``n`` to field ``name`` (AttributeError if there is none)."""
        with _LOCK:
            setattr(self, name, getattr(self, name) + n)

    def peak(self, name: str, value: Any) -> bool:
        """Keep the running maximum in ``name``; True when ``value`` set a new one."""
        with _LOCK:
            if value <= getattr(self, name):
                return False
            setattr(self, name, value)
            return True


class Timer:
    """Aggregated durations: count / total / min / max / mean."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, duration: float) -> None:
        with _LOCK:
            self.count += 1
            self.total += duration
            self.min = min(self.min, duration)
            self.max = max(self.max, duration)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
        }


# -- derived busy/idle timelines ------------------------------------------------


def busy_timelines(
    events: "Tracer | Iterable[TraceEvent]",
) -> dict[int, list[tuple[float, float]]]:
    """Per-rank merged busy intervals derived from ``work`` trace events.

    Each ``work`` event carries the interval start in ``t`` and its
    length in ``data["work"]``; overlapping or adjacent intervals are
    merged so the result is a minimal sorted interval list per rank.
    """
    raw: dict[int, list[tuple[float, float]]] = {}
    source = events.events("work") if hasattr(events, "events") else events
    for ev in source:
        if ev.kind != "work":
            continue
        raw.setdefault(ev.rank, []).append((ev.t, ev.t + float(ev.data.get("work", 0.0))))
    merged: dict[int, list[tuple[float, float]]] = {}
    for rank, intervals in raw.items():
        intervals.sort()
        out: list[tuple[float, float]] = []
        for start, end in intervals:
            if out and start <= out[-1][1] + 1e-12:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        merged[rank] = out
    return merged


def timeline_idle_ratios(
    timelines: dict[int, list[tuple[float, float]]],
    span: float,
    ranks: Iterable[int] | None = None,
) -> dict[int, float]:
    """Fraction of ``span`` each rank spent *without* a busy interval."""
    if span <= 0:
        return {r: 0.0 for r in (ranks or timelines)}
    out: dict[int, float] = {}
    for rank in ranks if ranks is not None else sorted(timelines):
        busy = sum(min(end, span) - min(start, span) for start, end in timelines.get(rank, []))
        out[rank] = max(0.0, 1.0 - busy / span)
    return out
