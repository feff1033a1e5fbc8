"""Differential test: the tuned ADMM loop against its reference copy.

``repro.sdp.admm.solve_sdp_relaxation`` (direct LAPACK calls, blocks
flattened once per call) must return *byte-identical* results to
:mod:`tests.admm_reference`, the loop as it was before tuning: same
status, objective, iteration count, residuals and ``y`` bytes.  Byte
identity is what keeps every solve and SimEngine trace unchanged.

Covered: the root relaxation of every MISDP family of ``repro.instances``
and of the CBLIB-style families, random bound boxes with fixed variables
(the Slater-failure path), the penalty formulation, the damped fallback
and an expiring deadline.  The nightly ``chaos-sweep`` job widens the
random boxes via ``CHAOS_SWEEP_SEEDS`` / ``CHAOS_SWEEP_BASE``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.instances import FAMILIES, generate_family
from repro.sdp.admm import SDPResult, solve_sdp_relaxation
from repro.sdp.instances import cardinality_least_squares, min_k_partitioning, truss_topology_design
from tests import admm_reference

N_SEEDS = int(os.environ.get("CHAOS_SWEEP_SEEDS", "1"))
BASE_SEED = int(os.environ.get("CHAOS_SWEEP_BASE", "0")) % 100_000
MAX_ITER = 500  # below the relaxator's 3000: stalled boxes stay cheap, every path stays covered


def _zoo() -> dict[str, object]:
    out: dict[str, object] = {}
    for fam in FAMILIES.values():
        if fam.kind == "misdp":
            for gi in generate_family(fam.name, seed=0, configs=fam.tiny_configs + fam.configs):
                out[gi.name] = gi.instance
    out["ttd1"] = truss_topology_design(n_cols=1, seed=0)
    out["cls3"] = cardinality_least_squares(n_features=3, n_samples=4, seed=0)
    out["mkp4"] = min_k_partitioning(n=4, k=2, seed=0)
    return out


ZOO = _zoo()


def fields(r: SDPResult) -> tuple:
    as_bytes = [np.float64(v).tobytes() for v in (r.objective, r.primal_residual, r.dual_residual)]
    return (r.status, r.iterations, *as_bytes, None if r.y is None else r.y.tobytes())


def assert_identical(misdp, *args, **kwargs) -> SDPResult:
    got = solve_sdp_relaxation(misdp, *args, **kwargs)
    want = admm_reference.solve_sdp_relaxation(misdp, *args, **kwargs)
    assert fields(got) == fields(want)
    return got


def random_box(misdp, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A node-like box: some integer variables fixed, others tightened."""
    lb, ub = misdp.lb.copy(), misdp.ub.copy()
    for i in misdp.integers:
        lo, hi = int(lb[i]), int(ub[i])
        v = int(rng.integers(lo, hi + 1))
        draw = rng.random()
        if draw < 0.4:
            lb[i] = ub[i] = float(v)
        elif draw < 0.7:
            lb[i], ub[i] = (float(v), float(hi)) if rng.random() < 0.5 else (float(lo), float(v))
    return lb, ub


@pytest.mark.parametrize("name", sorted(ZOO))
def test_root_relaxation(name):
    assert_identical(ZOO[name], max_iter=MAX_ITER)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_penalty_formulation(name):
    assert_identical(ZOO[name], max_iter=MAX_ITER, penalty=True)


@pytest.mark.parametrize("offset", range(N_SEEDS))
@pytest.mark.parametrize("name", sorted(ZOO))
def test_random_bound_boxes(name, offset):
    misdp = ZOO[name]
    rng = np.random.default_rng([BASE_SEED + offset, sorted(ZOO).index(name)])
    lb, ub = random_box(misdp, rng)
    assert_identical(misdp, lb, ub, max_iter=MAX_ITER)
    assert_identical(misdp, lb, ub, max_iter=MAX_ITER, penalty=True)


@pytest.mark.parametrize("value,verdict", [(1.0, "optimal"), (0.0, "infeasible")])
def test_fixed_box_slater_failure(value, verdict):
    """Every integer fixed: no interior point, and the penalty formulation
    decides feasibility (all in one part is feasible, all apart is not)."""
    misdp = ZOO["mkp4"]
    lb, ub = misdp.lb.copy(), misdp.ub.copy()
    for i in misdp.integers:
        lb[i] = ub[i] = value
    assert_identical(misdp, lb, ub, max_iter=MAX_ITER)
    assert assert_identical(misdp, lb, ub, max_iter=MAX_ITER, penalty=True).status == verdict


def test_damped_fallback():
    """Too few iterations at alpha = 1.6: the damped restart runs too."""
    got = assert_identical(ZOO["mkp4"], max_iter=40)
    assert got.status == "failed" and got.iterations == 80
    assert_identical(ZOO["cls3"], max_iter=MAX_ITER, over_relaxation=1.0)


def test_expiring_deadline():
    class Countdown:
        """A budget whose deadline passes after ``n`` checks."""

        def __init__(self, n: int) -> None:
            self.n = n

        def time_exceeded(self) -> bool:
            self.n -= 1
            return self.n < 0

    misdp = ZOO["mkp4"]
    got = solve_sdp_relaxation(misdp, max_iter=MAX_ITER, budget=Countdown(25))
    want = admm_reference.solve_sdp_relaxation(misdp, max_iter=MAX_ITER, budget=Countdown(25))
    assert fields(got) == fields(want)
    assert got.status == "time_limit"
