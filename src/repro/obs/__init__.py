"""repro.obs — run-telemetry for the whole stack.

The paper's computational study *is* telemetry: Tables 1-4 and Figure 1
report idle ratios, transferred nodes, racing-winner distributions and
restart-series progress.  This package makes those quantities first-class
outputs instead of ad-hoc fields scattered through the engines:

* :mod:`repro.obs.trace` — a zero-cost-when-disabled structured event
  tracer (ring-buffered, JSONL-exportable).  Both engines, the
  LoadCoordinator and every ParaSolver emit into one
  :class:`~repro.obs.trace.Tracer`; under the SimEngine the stream is
  bit-identically reproducible for a given seed + FaultPlan, which turns
  the trace into a regression oracle for the protocol itself.
* :mod:`repro.obs.metrics` — the ``bump``/``peak`` verbs that make the
  statistics dataclasses (:class:`~repro.ug.statistics.UGStatistics`,
  the daemon's ``ServeStatistics``) the only counter store, a duration
  :class:`~repro.obs.metrics.Timer`, and per-rank busy/idle timelines
  derived from the trace.
* :mod:`repro.obs.reporters` — paper-shaped artifact renderers
  (Table 1/4-style scaling rows, Figure 1-style racing-winner
  histograms, Tables 2-3-style restart progress logs) and the
  ``BENCH_*.json`` machine-readable emitter used by ``benchmarks/``.
"""

from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer, load_trace_jsonl
from repro.obs.metrics import Timer, busy_timelines, timeline_idle_ratios
from repro.obs.reporters import (
    Report,
    progress_report,
    render_table,
    scaling_report,
    winner_histogram,
    winner_histogram_report,
    write_bench_json,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "load_trace_jsonl",
    "Timer",
    "busy_timelines",
    "timeline_idle_ratios",
    "Report",
    "render_table",
    "scaling_report",
    "winner_histogram",
    "winner_histogram_report",
    "progress_report",
    "write_bench_json",
]
