"""One run of one workload in this process: set up, time, check, measure.

An untraced run reports the end-to-end metrics; a traced run installs the
span wrappers (after an untraced slice of the same work, which prices the
wrappers) and reports the per-layer metrics.  Both print the result as one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

_T0 = time.perf_counter()  # imports below are part of set-up time

from benchmarks.ledger import BENCHMARK, layers, spans  # noqa: E402
from benchmarks.ledger.workloads import Section, Workload, clock  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups in one run
UNTRACED_SHARE = 0.3  # of a traced run's time: the same work without wrappers

#: a metric that BENCHMARK.json does not declare has no unit: reporting it fails
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(w: Workload, sec: Section, setup_s: float) -> dict[str, float]:
    rate = len(sec.ops) / sec.wall
    if w.sequential:
        # One latency per base: the median over its twins.  Now and then a twin
        # sends branch-and-cut down a path three to five times longer than its
        # siblings'; a mean would let two or three such twins decide the run.
        # Weighing every base alike also keeps the last pass, cut short when
        # the time is up, from tilting the rate.  (Drawing the next twins
        # between ops is the load generator's time and is left out.)
        by_key: dict[str, list[float]] = {}
        for op in sec.ops:
            by_key.setdefault(op.key, []).append(op.seconds)
        rate = len(by_key) / sum(statistics.median(v) for v in by_key.values())
    return {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "op_p50_ms": statistics.median(op.seconds for op in sec.ops) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, delays: dict[str, float] | None = None
) -> dict[str, Any]:
    """Run ``w`` once; returns the result object of the driver's contract.
    ``delays`` (span name -> seconds slept inside it) slows a layer on purpose."""
    setups = []
    try:
        for k in range(1 if trace else SETUP_REPEATS):
            if k:
                w.teardown()
            t0 = clock()
            w.setup(seed)
            setups.append(clock() - t0)
        setup_s = IMPORT_S + statistics.median(setups)
        if not trace:
            sec = w.run(seconds, None)
        else:
            # a sequential suite makes one pass each way, so that its counts repeat exactly
            untraced = w.run(0.0 if w.sequential else seconds * UNTRACED_SHARE, None)
            rec = spans.Recorder(delays=dict(delays or {})).install()
            try:
                sec = w.run(0.0 if w.sequential else seconds * (1 - UNTRACED_SHARE), rec)
            finally:
                rec.uninstall()
            extra = w.traced_extras()
    finally:
        w.teardown()
    failed = [op for op in sec.ops if not op.ok]
    for op in failed[:5]:
        print(f"FAILED {op.key}: {op.note}", file=sys.stderr)
    if trace:
        values = layers.per_layer(w, sec, untraced, rec, extra)
        declared = {m["name"] for m in BENCHMARK["per_layer"]}
        assert set(values) == declared, sorted(set(values) ^ declared)
        out_dir = os.environ.get("BENCH_OUTPUT_DIR")
        if out_dir:
            write_spans(rec, Path(out_dir) / f"ledger_spans_{w.name}_s{seed}.jsonl")
    else:
        values = end_to_end(w, sec, setup_s)
    return {
        "correct": not failed,
        "attempted": len(sec.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }


def write_spans(rec: spans.Recorder, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for sid, name, start, end, parent, op in rec.spans:
            fh.write(json.dumps({
                "id": sid, "name": name, "layer": rec.layer_of[name],
                "start": start, "end": end, "parent": parent, "op": op,
            }) + "\n")  # fmt: skip
