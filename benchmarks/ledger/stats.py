"""Order statistics the ledger reports, and the rule for which it may report."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def reportable(n_samples: int, q: float) -> bool:
    """A tail percentile is reported only with at least ten samples beyond it
    (p90 from 100 samples, p99 from 1000): fewer, and it is one outlier's value."""
    return round(n_samples * (1.0 - q), 9) >= 10.0  # 100 * (1 - 0.9) is 9.999...98


def tail_ms(latencies_s: Sequence[float], q: float) -> float:
    """``q``-percentile in ms, or 0.0 where :func:`reportable` forbids it."""
    return percentile(latencies_s, q) * 1e3 if reportable(len(latencies_s), q) else 0.0


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median
    — the run-to-run spread the driver compares with a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
