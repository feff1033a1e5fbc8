"""``compare A.json B.json``: did B move any end-to-end metric, on any workload?

One row per (end-to-end metric, workload), judged by the bound that
``BENCHMARK.json`` fixes for the metric.  A cell whose run-to-run spread
is wider than its bound is *unresolved*, not unchanged.  Every ratio is
printed with its base (A's median).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from benchmarks.ledger import BENCHMARK
from benchmarks.ledger.stats import spread


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, B/A ratio of medians, wider of the two spreads)``."""
    base, new = statistics.median(a), statistics.median(b)
    change = new / base
    worsening = (change - 1.0) if better == "lower" else (1.0 - change)
    noise = max(spread(a), spread(b))
    if noise > bound:
        return "unresolved", change, noise
    if worsening > bound:
        return "worse", change, noise
    if worsening < -max(noise, 0.01):
        return "better", change, noise
    return "within bound", change, noise


def compare_files(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    row = "{:14s} {:12s} {:13s} {:>7s}  {:>22s} {:>7s} {:>6s}"
    print(row.format("workload", "metric", "verdict", "B/A", "base (A median)", "spread", "bound"))
    for workload in a:
        if workload not in b:
            continue
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload]["end_to_end"].get(name), b[workload]["end_to_end"].get(name)
            if not va or not vb:
                continue
            word, change, noise = verdict(va, vb, metric["better"], metric["bound"])
            worse += word == "worse"
            base = f"{statistics.median(va):.6g} {metric['unit']} (n={len(va)})"
            print(row.format(workload, name, word, f"{change:.3f}", base, f"{noise:.3f}", f"{metric['bound']:.2f}"))
        # failed_share has no tolerance: any rise is a regression
        fa = a[workload]["failed"] / a[workload]["attempted"]
        fb = b[workload]["failed"] / b[workload]["attempted"]
        if fa or fb:
            worse += fb > fa
            word = "worse" if fb > fa else "within bound"
            print(f"{workload:14s} {'failed_share':12s} {word:13s} A {fa:.4f} -> B {fb:.4f}")
    return 1 if worse else 0
