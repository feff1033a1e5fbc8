"""The perf ledger: six named workloads, end-to-end and per-layer metrics, one
command (``python -m benchmarks.ledger``).  See README.md beside this file."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: the contract with the benchmark driver: workloads, metric names, units, bounds
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
