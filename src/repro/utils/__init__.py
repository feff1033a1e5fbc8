"""Shared utilities: tolerances, statistics, RNG management, timing, budgets,
and the JSON spelling of durable records."""

from repro.utils.tolerances import Tolerances, DEFAULT_TOL
from repro.utils.stats import shifted_geometric_mean, arithmetic_mean
from repro.utils.rng import make_rng, spawn_seeds
from repro.utils.timing import Stopwatch
from repro.utils.budget import Budget
from repro.utils.records import canonical_json, decode_float, encode_float

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "shifted_geometric_mean",
    "arithmetic_mean",
    "make_rng",
    "spawn_seeds",
    "Stopwatch",
    "Budget",
    "canonical_json",
    "encode_float",
    "decode_float",
]
