"""Randomized chaos sweep over the full UG stack (the nightly CI job).

Each sweep seed derives a :class:`FaultPlan` (solver crashes, message
drops) *and* kernel-level chaos (an always-failing heuristic injected
into every subproblem's CIP solver, plus intermittent singular bases in
the simplex backend) and then checks the PR 1 invariants:

* no false optimality claim — a solved run must match the sequential
  reference optimum;
* the dual bound never exceeds the primal bound;
* checkpoints written during the storm stay replayable — a clean
  restart from the last one still proves the optimum;
* the whole run (including quarantine / failover events) replays
  bit-identically under the SimEngine for the same seed.

The tier-1 suite keeps the sweep small; the nightly ``chaos-sweep`` CI
job widens it via ``CHAOS_SWEEP_SEEDS`` / ``CHAOS_SWEEP_BASE``.
"""

from __future__ import annotations

import math
import os

import pytest
import scipy.linalg as sla

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.cip.plugins import Heuristic
from repro.steiner.instances import hypercube_instance
from repro.steiner.solver import SteinerSolver
from repro.ug import ug
from repro.ug.checkpoint import load_checkpoint
from repro.ug.config import UGConfig
from repro.ug.faults import FaultPlan

pytestmark = pytest.mark.chaos

N_SEEDS = int(os.environ.get("CHAOS_SWEEP_SEEDS", "1"))
BASE_SEED = int(os.environ.get("CHAOS_SWEEP_BASE", "0")) % 100_000


class ChaosHeuristic(Heuristic):
    """Injected into every subproblem kernel; always fails."""

    name = "chaos_heur"
    priority = 50

    def run(self, solver, node, x):
        raise RuntimeError("chaos heuristic failure")


class ChaosSteinerPlugins(SteinerUserPlugins):
    """SteinerJack glue that sabotages each kernel it creates."""

    def create_handle(self, instance, node, params, seed, incumbent):
        handle = super().create_handle(instance, node, params, seed, incumbent)
        if handle.cip is not None:
            handle.cip.include_heuristic(ChaosHeuristic())
        return handle


class FlakyLUFactor:
    """Deterministically fails every ``period``-th factorization."""

    def __init__(self, period: int) -> None:
        self.period = period
        self.calls = 0
        self.real = sla.lu_factor

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls % self.period == 0:
            raise sla.LinAlgError("chaos-injected singular basis")
        return self.real(*args, **kwargs)


@pytest.fixture(scope="module")
def instance():
    # big enough that instance-level presolve cannot solve it outright,
    # so every subproblem exercises a real CIP kernel under chaos
    return hypercube_instance(5, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def reference_optimum(instance):
    return SteinerSolver(instance.copy(), seed=0).solve(node_limit=2000).cost


def _chaos_run(instance, seed: int, checkpoint_path: str, monkeypatch):
    plan = FaultPlan.random_plan(seed, n_solvers=4, n_crashes=1, n_message_drops=1)
    config = UGConfig(
        time_limit=1e9,
        objective_epsilon=1 - 1e-6,
        trace_enabled=True,
        heartbeat_timeout=0.5,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=0.1,
        fault_plan=plan,
    )
    params = ParamSet(lp_backend="simplex", heur_frequency=1, plugin_max_failures=2)
    monkeypatch.setattr(sla, "lu_factor", FlakyLUFactor(period=7))
    try:
        return ug(
            instance.copy(),
            ChaosSteinerPlugins(),
            n_solvers=4,
            comm="sim",
            params=params,
            config=config,
            wall_clock_limit=120,
        ).run()
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("offset", range(N_SEEDS))
def test_chaos_seed_upholds_invariants(offset, instance, reference_optimum, tmp_path, monkeypatch):
    seed = BASE_SEED + offset
    path = str(tmp_path / f"s{seed}" / "cp.json")
    r = _chaos_run(instance, seed, path, monkeypatch)

    # 1. no false optimality claim
    if r.solved:
        assert r.objective == pytest.approx(reference_optimum)

    # 2. dual never exceeds primal
    primal = r.stats.primal_final
    dual = r.stats.dual_final
    if math.isfinite(primal) and math.isfinite(dual):
        assert dual <= primal + 1e-6

    # 3. the kernel chaos actually fired and was contained, not fatal
    kinds = {e.kind for e in r.trace.events()}
    assert "plugin_failure" in kinds
    assert r.stats.solver_failures <= 1  # only the planned crash, no cascade

    # 4. checkpoints written mid-storm are replayable: a clean restart
    # from the last one still proves the reference optimum
    if r.stats.checkpoints_written >= 1:
        cp = load_checkpoint(path)
        assert "dual_bound" in cp.meta
        clean = UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6)
        r2 = ug(
            instance.copy(), SteinerUserPlugins(), n_solvers=4, comm="sim",
            config=clean, wall_clock_limit=120,
        ).run(restart_from=path)
        assert r2.solved
        assert r2.objective == pytest.approx(reference_optimum)


def test_chaos_run_replays_bit_identically(instance, tmp_path, monkeypatch):
    def once(tag: str) -> str:
        path = str(tmp_path / tag / "cp.json")
        r = _chaos_run(instance, BASE_SEED, path, monkeypatch)
        return r.trace.to_jsonl()

    first, second = once("a"), once("b")
    assert first == second
    assert "plugin_failure" in first  # the kernel events are part of the replay
