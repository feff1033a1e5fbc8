"""True-parallel ProcessEngine: spawned ranks over the wire codec.

These tests fork real OS processes (``multiprocessing`` spawn context),
so they are kept separate from the single-process net tests.  The
2-rank pipe smoke stays in the fast CI tier (it is the CI workflow's
process-engine smoke step); the 4-rank / TCP / crash scenarios carry
``@pytest.mark.slow``.
"""

from __future__ import annotations

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.steiner.instances import hypercube_instance
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.ug.faults import FaultPlan, SolverCrash
from repro.verify import audit_ug_run, check_ug_steiner_result

STP_CFG = dict(time_limit=1e9, objective_epsilon=1 - 1e-6)


def run_pair(graph, n_solvers, **cfg):
    """Solve ``graph`` with the SimEngine and the ProcessEngine, verify
    both, and return (sim_result, process_result)."""
    plugins = SteinerUserPlugins()
    sim = ug(graph.copy(), plugins, n_solvers=n_solvers, comm="sim",
             config=UGConfig(**STP_CFG)).run()
    res = ug(graph.copy(), plugins, n_solvers=n_solvers, comm="process",
             config=UGConfig(**STP_CFG, **cfg)).run()
    for r in (sim, res):
        check_ug_steiner_result(graph, r).raise_if_failed()
        audit_ug_run(r).raise_if_failed()
    return sim, res


def test_process_smoke_two_ranks():
    """Fast CI smoke: 2 spawned ranks over pipes reach the SimEngine's
    optimum on a tiny instance and pass every verifier."""
    graph = hypercube_instance(4, perturbed=False, seed=1)
    sim, res = run_pair(graph, 2, trace_enabled=True)
    assert res.solved and sim.solved
    assert res.objective == sim.objective
    assert res.name == "ug[SteinerJack, MPI]"
    # the wire was genuinely exercised and every rank did real work
    assert res.stats.net_frames_sent > 0
    assert res.stats.net_frames_received > 0
    assert set(res.stats.solver_busy) == {1, 2}


def test_process_warm_pool_reuse():
    """Back-to-back runs are served by parked pooled workers, not fresh
    spawns: the second run reports every rank as a pool reuse, and the
    answers stay right.  Also pins the alive-interval idle accounting —
    a pipelined 1-rank run is busy nearly wall-to-wall."""
    from repro.ug.net.process_engine import WORKER_POOL, warm_pool

    graph = hypercube_instance(4, perturbed=False, seed=1)
    plugins = SteinerUserPlugins()
    sim = ug(graph.copy(), plugins, n_solvers=1, comm="sim",
             config=UGConfig(**STP_CFG)).run()
    warm_pool(1)
    results = [
        ug(graph.copy(), plugins, n_solvers=1, comm="process",
           config=UGConfig(**STP_CFG)).run()
        for _ in range(2)
    ]
    for res in results:
        assert res.solved and res.objective == sim.objective
        assert res.stats.warm_pool_reuses == 1
        # satellite (a): idle is measured against the rank's alive span,
        # not span x nranks — a busy single rank cannot look mostly idle
        assert 0.0 <= res.stats.idle_ratio < 0.5
        check_ug_steiner_result(graph, res).raise_if_failed()
    # the worker went back to the pool after each run
    assert WORKER_POOL.size() >= 1


def test_warm_pool_not_used_under_fault_plans():
    """Fault-injected runs must see pristine workers (a pooled worker
    carries no injector state), so the pool is bypassed."""
    from repro.ug.net.process_engine import warm_pool

    graph = hypercube_instance(4, perturbed=False, seed=1)
    warm_pool(1)
    plan = FaultPlan(crashes=(SolverCrash(rank=1, at_time=1e9),))  # inert
    res = ug(graph.copy(), SteinerUserPlugins(), n_solvers=1, comm="process",
             config=UGConfig(fault_plan=plan, **STP_CFG)).run()
    assert res.solved
    assert res.stats.warm_pool_reuses == 0


@pytest.mark.slow
def test_process_four_ranks_matches_sim():
    """The ISSUE acceptance run: 4 ranks, real processes, OPTIMAL with
    the same objective the deterministic SimEngine proves."""
    graph = hypercube_instance(5, perturbed=False, seed=1)
    sim, res = run_pair(graph, 4, trace_enabled=True)
    assert res.solved and sim.solved
    assert res.objective == sim.objective
    assert res.stats.nodes_generated > 0
    assert set(res.stats.solver_busy) == {1, 2, 3, 4}
    assert all(b > 0.0 for b in res.stats.solver_busy.values())


@pytest.mark.slow
def test_process_tcp_transport():
    """Same protocol over TCP sockets with the hello handshake."""
    graph = hypercube_instance(4, perturbed=False, seed=1)
    sim, res = run_pair(graph, 2, net_transport="tcp")
    assert res.solved
    assert res.objective == sim.objective
    assert res.stats.net_bytes_sent > 0


def test_process_elastic_smoke():
    """Fast CI elastic smoke: 2 spawned ranks, one is killed mid-run and a
    fresh rank is admitted by the ClusterSupervisor; the solve still
    completes at the SimEngine optimum and passes every verifier."""
    from repro.ug.cluster import ClusterEvent, ClusterPlan

    graph = hypercube_instance(5, perturbed=False, seed=1)
    plugins = SteinerUserPlugins()
    sim = ug(graph.copy(), plugins, n_solvers=2, comm="sim",
             config=UGConfig(**STP_CFG)).run()
    # kill and join are placed as fractions of a fault-free process run's
    # wall span (which also warms the worker pool), so both land mid-solve
    # on any box and with any LP speed
    span = ug(graph.copy(), plugins, n_solvers=2, comm="process",
              config=UGConfig(**STP_CFG)).run().stats.computing_time
    cfg = UGConfig(
        trace_enabled=True,
        fault_plan=FaultPlan(crashes=(SolverCrash(rank=2, at_time=0.2 * span),)),
        cluster_plan=ClusterPlan(events=(ClusterEvent(at_time=0.3 * span, action="join"),)),
        # heartbeats are the backstop here: a fresh joiner pays spawn/import
        # cost before its first status, and the process sentinel already
        # catches real deaths fast
        heartbeat_timeout=10.0,
        time_limit=60.0,
        objective_epsilon=1 - 1e-6,
    )
    res = ug(graph.copy(), plugins, n_solvers=2, comm="process", config=cfg).run()
    assert res.stats.solver_failures == 1
    assert res.stats.ranks_joined == 1
    assert res.objective == sim.objective
    check_ug_steiner_result(graph, res).raise_if_failed()
    audit_ug_run(res).raise_if_failed()
    kinds = {e.kind for e in res.trace.events()}
    assert "rank_death_observed" in kinds and "rank_join" in kinds


@pytest.mark.slow
def test_process_elastic_tcp_drain():
    """Graceful scale-down over real TCP sockets: a drained rank flushes
    its DRAINED goodbye before exiting (no phantom death), and a late
    joiner dials in through the persistent accept loop."""
    from repro.ug.cluster import ClusterEvent, ClusterPlan

    graph = hypercube_instance(5, perturbed=False, seed=1)
    plugins = SteinerUserPlugins()
    sim = ug(graph.copy(), plugins, n_solvers=3, comm="sim",
             config=UGConfig(**STP_CFG)).run()
    cfg = UGConfig(
        trace_enabled=True,
        net_transport="tcp",
        cluster_plan=ClusterPlan(events=(
            ClusterEvent(at_time=0.3, action="join"),
            ClusterEvent(at_time=0.6, action="drain"),
        )),
        heartbeat_timeout=10.0,
        time_limit=120.0,
        objective_epsilon=1 - 1e-6,
    )
    res = ug(graph.copy(), plugins, n_solvers=3, comm="process", config=cfg).run()
    assert res.stats.ranks_joined == 1
    assert res.stats.ranks_drained == 1
    assert res.stats.drain_timeouts == 0
    assert res.stats.solver_failures == 0
    assert res.objective == sim.objective
    check_ug_steiner_result(graph, res).raise_if_failed()
    audit_ug_run(res).raise_if_failed()


@pytest.mark.slow
def test_process_rank_crash_detected_and_survived():
    """A worker process dying mid-run (injected ``os._exit``) is detected
    by the parent, mapped onto the heartbeat-failure path, and the run
    still ends with a correct tree and an honest claim."""
    graph = hypercube_instance(5, perturbed=False, seed=1)
    plugins = SteinerUserPlugins()
    sim = ug(graph.copy(), plugins, n_solvers=3, comm="sim",
             config=UGConfig(**STP_CFG)).run()
    plan = FaultPlan(crashes=(SolverCrash(rank=2, at_time=0.05),))
    cfg = UGConfig(trace_enabled=True, fault_plan=plan, **STP_CFG)
    res = ug(graph.copy(), plugins, n_solvers=3, comm="process",
             config=cfg).run()
    assert res.stats.solver_failures == 1
    assert res.stats.surviving_solvers == 2
    assert res.incumbent is not None
    assert res.objective == sim.objective
    # unlike the deterministic loopback scenario, real-process timing may
    # kill the rank while it holds no assignment — then there is nothing
    # to reclaim and solved=True is still honest; the LC reclaims any
    # node the dead rank *did* hold before it may claim completeness.
    check_ug_steiner_result(graph, res).raise_if_failed()
    audit_ug_run(res).raise_if_failed()
    kinds = {e.kind for e in res.trace.events()}
    assert "rank_death_observed" in kinds
