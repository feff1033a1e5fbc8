"""Elastic cluster runtime: joins, drains, watchdog restarts, shape restore."""

from __future__ import annotations

import socket

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.steiner.instances import grid_instance, hypercube_instance
from repro.ug import (
    ClusterEvent,
    ClusterPlan,
    FaultPlan,
    MessageFault,
    RankWatchdog,
    RestartPolicy,
    SolverCrash,
    ug,
)
from repro.ug.checkpoint import load_checkpoint, rank_provenance
from repro.ug.config import UGConfig
from repro.ug.messages import MessageTag
from repro.ug.net.transport import (
    backoff_delay,
    hello_token_matches,
    make_hello_token,
    recv_hello,
    send_hello,
)
from repro.ug.para_node import ParaNode
from repro.verify import audit_restart_coverage, audit_ug_run, check_ug_steiner_result

STP_CFG = dict(time_limit=1e9, objective_epsilon=1 - 1e-6)


def run_sim(graph, n_solvers=3, **cfg):
    return ug(graph.copy(), SteinerUserPlugins(), n_solvers=n_solvers, comm="sim",
              config=UGConfig(**STP_CFG, **cfg)).run()


def run_loopback(graph, n_solvers=3, comm="loopback", **cfg):
    return ug(graph.copy(), SteinerUserPlugins(), n_solvers=n_solvers, comm=comm,
              config=UGConfig(trace_enabled=True, **STP_CFG, **cfg)).run()


@pytest.fixture(scope="module")
def hc5():
    return hypercube_instance(5, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc5_sim(hc5):
    return run_sim(hc5)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        UGConfig()

    @pytest.mark.parametrize("field,value", [
        ("heartbeat_timeout", 0.0),
        ("heartbeat_timeout", -1.0),
        ("drain_grace", 0.0),
        ("checkpoint_interval", 0.0),
        ("time_limit", -5.0),
        ("max_node_retries", -2),
        ("node_limit", 0),
        ("objective_epsilon", float("nan")),
        ("objective_epsilon", -1.0),
        ("objective_epsilon", float("inf")),
    ])
    def test_bad_knob_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            UGConfig(**{field: value})

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="net_transport"):
            UGConfig(net_transport="carrier-pigeon")


class TestBackoffDelay:
    def test_deterministic_per_seed(self):
        a = [backoff_delay(0.05, k, seed=3) for k in range(1, 8)]
        b = [backoff_delay(0.05, k, seed=3) for k in range(1, 8)]
        assert a == b
        c = [backoff_delay(0.05, k, seed=4) for k in range(1, 8)]
        assert a != c

    def test_exponential_then_capped(self):
        # raw schedule doubles until the cap; jitter keeps it in [raw/2, raw)
        for k in range(1, 10):
            d = backoff_delay(0.05, k, cap=0.4, seed=0)
            raw = min(0.05 * 2 ** (k - 1), 0.4)
            assert raw / 2 <= d < raw
        assert backoff_delay(0.05, 50, cap=0.4, seed=0) < 0.4

    def test_jitter_decorrelates_seeds(self):
        delays = {round(backoff_delay(1.0, 1, seed=s), 12) for s in range(20)}
        assert len(delays) > 15


class TestHelloHandshake:
    def test_roundtrip_and_token_match(self):
        token = make_hello_token()
        a, b = socket.socketpair()
        try:
            send_hello(a, 7, token)
            hello = recv_hello(b, timeout=5.0)
            assert hello is not None
            rank, got = hello
            assert rank == 7
            assert hello_token_matches(got, token)
            assert not hello_token_matches(got, make_hello_token())
        finally:
            a.close()
            b.close()

    def test_short_read_returns_none(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x01")  # truncated hello, then EOF
            a.close()
            assert recv_hello(b, timeout=5.0) is None
        finally:
            b.close()


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff"):
            RestartPolicy(backoff=0.0)
        with pytest.raises(ValueError, match="backoff_cap"):
            RestartPolicy(backoff=1.0, backoff_cap=0.5)

    def test_cluster_event_validation(self):
        with pytest.raises(ValueError, match="action"):
            ClusterEvent(at_time=0.0, action="explode")
        with pytest.raises(ValueError, match="at_time"):
            ClusterEvent(at_time=-1.0, action="join")
        plan = ClusterPlan(events=(ClusterEvent(0.5, "drain"), ClusterEvent(0.1, "join")))
        assert [e.at_time for e in plan.sorted_events()] == [0.1, 0.5]


class TestRankWatchdog:
    def _watchdog(self, **kw):
        clock = {"now": 0.0}
        policy = RestartPolicy(max_restarts=kw.pop("max_restarts", 2),
                               backoff=kw.pop("backoff", 0.1), seed=kw.pop("seed", 5))
        return RankWatchdog(policy, clock=lambda: clock["now"]), clock

    def test_restart_scheduled_after_backoff(self):
        wd, clock = self._watchdog()
        due = wd.note_death(2)
        assert due is not None and 0.05 <= due <= 0.1
        assert wd.due() == []  # not yet
        clock["now"] = due
        assert wd.due() == [2]
        assert wd.due() == []  # fires once

    def test_lineage_inherits_budget(self):
        wd, clock = self._watchdog(max_restarts=2)
        assert wd.note_death(2) is not None
        wd.bind(4, 2)  # replacement rank 4 continues lineage 2
        assert wd.lineage_of(4) == 2
        assert wd.note_death(4) is not None  # second restart of the lineage
        assert wd.note_death(4) is None  # budget exhausted
        assert 2 in wd.gave_up
        assert wd.restarts_used(4) == 2

    def test_zero_budget_gives_up_immediately(self):
        wd, _ = self._watchdog(max_restarts=0)
        assert wd.note_death(1) is None
        assert wd.gave_up == {1}

    def test_deterministic_schedule(self):
        wd1, _ = self._watchdog(seed=9)
        wd2, _ = self._watchdog(seed=9)
        assert wd1.note_death(3) == wd2.note_death(3)
        wd3, _ = self._watchdog(seed=10)
        assert wd1.note_death(5) != wd3.note_death(5)


class TestLoopbackJoin:
    # the join path is the engine core's: the thread engine runs it too
    # (there 0.1 is wall seconds into a solve of a second or two)
    @pytest.mark.parametrize("comm", ["loopback", "threads"])
    def test_join_mid_solve(self, comm, hc5, hc5_sim):
        plan = ClusterPlan(events=(ClusterEvent(at_time=0.1, action="join"),))
        res = run_loopback(hc5, comm=comm, cluster_plan=plan)
        if comm == "threads" and res.stats.computing_time <= 0.1:
            pytest.skip("the solve ended before the wall-clock join event")
        assert res.stats.ranks_joined == 1
        assert res.stats.peak_ranks == 4
        assert res.solved and res.objective == hc5_sim.objective
        check_ug_steiner_result(hc5, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()
        kinds = {e.kind for e in res.trace.events()}
        assert "rank_join" in kinds
        # the joiner actually worked: some assign targeted the new rank 4
        assert any(e.kind == "assign" and e.rank == 4 for e in res.trace.events())


class TestLoopbackDrain:
    def test_drain_busy_rank_returns_node(self, hc5, hc5_sim):
        plan = ClusterPlan(events=(ClusterEvent(at_time=0.3, action="drain", rank=2),))
        res = run_loopback(hc5, cluster_plan=plan)
        assert res.stats.drains_requested == 1
        assert res.stats.ranks_drained == 1
        assert res.stats.drain_timeouts == 0
        # graceful scale-down is not a fault and burns no retry budget
        assert res.stats.solver_failures == 0
        assert res.stats.nodes_reclaimed == 0
        assert res.stats.final_ranks == 2
        assert res.solved and res.objective == hc5_sim.objective
        check_ug_steiner_result(hc5, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()
        drained = [e for e in res.trace.events() if e.kind == "rank_drained"]
        assert [e.rank for e in drained] == [2]
        # the in-flight node came home iff the rank was busy when asked
        requested = [e for e in res.trace.events() if e.kind == "drain_request"]
        if requested[0].data["active"]:
            assert res.stats.nodes_returned == drained[0].data["requeued"] == 1

    def test_drain_whole_fleet_is_honest(self, hc5):
        plan = ClusterPlan(events=tuple(
            ClusterEvent(at_time=0.2, action="drain", rank=r) for r in (1, 2, 3)
        ))
        res = run_loopback(hc5, cluster_plan=plan)
        assert res.stats.ranks_drained == 3
        assert res.stats.final_ranks == 0
        # nobody left to finish the tree: no phantom optimality claim
        assert not res.solved
        audit_ug_run(res).raise_if_failed()

    def test_unanswered_drain_escalates_to_death(self, hc5, hc5_sim):
        # the DRAIN itself is dropped on the wire: the rank never answers,
        # the grace period lapses and the drain escalates onto the
        # death/reclaim path instead of hanging membership forever.
        # Request and grace are fractions of the fault-free span, so the
        # timeout lands mid-solve however fast the LP makes the run
        span = hc5_sim.stats.computing_time
        plan = ClusterPlan(events=(ClusterEvent(at_time=0.3 * span, action="drain", rank=2),))
        faults = FaultPlan(message_faults=(
            MessageFault(tag=MessageTag.DRAIN, dst=2, action="drop", count=1),
        ))
        res = run_loopback(hc5, cluster_plan=plan, fault_plan=faults,
                           drain_grace=0.2 * span, heartbeat_timeout=1e6)
        assert res.stats.drains_requested == 1
        assert res.stats.ranks_drained == 0
        assert res.stats.drain_timeouts == 1
        assert res.stats.solver_failures == 1  # escalated to a death
        kinds = {e.kind for e in res.trace.events()}
        assert "drain_timeout" in kinds and "solver_dead" in kinds


class TestWatchdog:
    def test_restart_heals_crash(self, hc5, hc5_sim):
        plan = ClusterPlan(restart_policy=RestartPolicy(max_restarts=2, backoff=0.02, seed=7))
        faults = FaultPlan(crashes=(SolverCrash(rank=2, at_time=0.05),))
        res = run_loopback(hc5, cluster_plan=plan, fault_plan=faults, heartbeat_timeout=0.5)
        assert res.stats.solver_failures == 1
        assert res.stats.ranks_restarted == 1
        assert res.stats.ranks_joined == 1  # the replacement joined
        assert res.solved and res.objective == hc5_sim.objective
        check_ug_steiner_result(hc5, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()
        kinds = {e.kind for e in res.trace.events()}
        assert "rank_restart" in kinds and "rank_join" in kinds

    def test_no_restart_without_budget(self, hc5):
        plan = ClusterPlan(restart_policy=RestartPolicy(max_restarts=0, backoff=0.02))
        faults = FaultPlan(crashes=(SolverCrash(rank=2, at_time=0.05),))
        res = run_loopback(hc5, cluster_plan=plan, fault_plan=faults, heartbeat_timeout=0.5)
        assert res.stats.solver_failures == 1
        assert res.stats.ranks_restarted == 0
        assert res.stats.ranks_joined == 0
        audit_ug_run(res).raise_if_failed()


class TestChurnMatrix:
    """The acceptance scenario: joins + drains + kills mid-solve on five
    seeded instances, deterministic, final objective equal to the
    uninterrupted SimEngine run, auditors clean."""

    INSTANCES = [
        ("hc4", lambda: hypercube_instance(4, perturbed=False, seed=1)),
        ("hc5", lambda: hypercube_instance(5, perturbed=False, seed=1)),
        ("grid7x7-s1", lambda: grid_instance(7, 7, 12, perturbed=False, seed=1)),
        ("grid7x7-s2", lambda: grid_instance(7, 7, 12, perturbed=False, seed=2)),
        ("grid8x8-s4", lambda: grid_instance(8, 8, 14, perturbed=False, seed=4)),
    ]

    @pytest.mark.parametrize("name,make", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_churn_matches_sim(self, name, make):
        graph = make()
        sim = run_sim(graph)
        # events scaled to the instance's uninterrupted virtual span (as
        # measured, not a recorded constant that a faster LP outruns) so
        # every instance sees churn while the tree is genuinely open
        span = sim.stats.computing_time
        plan = ClusterPlan(
            events=(
                ClusterEvent(at_time=0.10 * span, action="join"),
                ClusterEvent(at_time=0.25 * span, action="drain"),
                ClusterEvent(at_time=0.40 * span, action="join"),
            ),
            restart_policy=RestartPolicy(max_restarts=1, backoff=0.05 * span, seed=11),
        )
        faults = FaultPlan(crashes=(SolverCrash(rank=1, at_time=0.3 * span),))
        res = run_loopback(graph, cluster_plan=plan, fault_plan=faults,
                           heartbeat_timeout=0.2 * span)
        assert res.stats.ranks_joined >= 1
        assert res.objective == sim.objective
        check_ug_steiner_result(graph, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()

    def test_churn_run_is_deterministic(self, hc5):
        def one():
            plan = ClusterPlan(
                events=(
                    ClusterEvent(at_time=0.1, action="join"),
                    ClusterEvent(at_time=0.3, action="drain"),
                ),
                restart_policy=RestartPolicy(max_restarts=1, backoff=0.05, seed=3),
            )
            faults = FaultPlan(crashes=(SolverCrash(rank=1, at_time=0.4),))
            return run_loopback(hc5, cluster_plan=plan, fault_plan=faults,
                                heartbeat_timeout=0.3)

        r1, r2 = one(), one()
        assert r1.objective == r2.objective
        assert r1.stats.net_frames_sent == r2.stats.net_frames_sent
        t1 = [e.to_json() for e in r1.trace.events()]
        t2 = [e.to_json() for e in r2.trace.events()]
        assert t1 == t2


class TestShapeChangingRestart:
    def _checkpoint_at(self, graph, tmp_path, n_ranks):
        path = str(tmp_path / "cp.json")
        cfg = UGConfig(time_limit=0.3, checkpoint_path=path, checkpoint_interval=0.05,
                       objective_epsilon=1 - 1e-6)
        ug(graph.copy(), SteinerUserPlugins(), n_solvers=n_ranks, comm="sim",
           config=cfg).run()
        return path

    @pytest.mark.parametrize("m", [2, 6])
    def test_restore_at_different_rank_count(self, tmp_path, m, hc5, hc5_sim):
        path = self._checkpoint_at(hc5, tmp_path, n_ranks=4)
        cp = load_checkpoint(path)
        assert cp.meta["n_ranks"] == 4
        assert sum(cp.meta["rank_provenance"].values()) == len(cp.nodes)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=m, comm="sim",
                 config=UGConfig(**STP_CFG)).run(restart_from=path)
        assert res.solved
        assert res.objective == hc5_sim.objective
        assert res.stats.shape_restarts == 1
        check_ug_steiner_result(hc5, res).raise_if_failed()

    def test_same_shape_restore_not_counted(self, tmp_path, hc5):
        path = self._checkpoint_at(hc5, tmp_path, n_ranks=4)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=4, comm="sim",
                 config=UGConfig(**STP_CFG)).run(restart_from=path)
        assert res.solved
        assert res.stats.shape_restarts == 0

    def test_loopback_restore_matches(self, tmp_path, hc5, hc5_sim):
        path = self._checkpoint_at(hc5, tmp_path, n_ranks=4)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=2, comm="loopback",
                 config=UGConfig(trace_enabled=True, **STP_CFG)).run(restart_from=path)
        assert res.solved and res.objective == hc5_sim.objective
        audit_ug_run(res).raise_if_failed()

    def test_provenance_histogram(self):
        nodes = [ParaNode(payload={}, origin_rank=r) for r in (1, 1, 2, 0)]
        assert rank_provenance(nodes) == {"1": 2, "2": 1, "0": 1}


class TestRestartCoverageAudit:
    def _checkpoint(self, nodes, meta=None):
        from repro.ug.checkpoint import Checkpoint

        meta = dict(meta or {})
        meta.setdefault("rank_provenance", rank_provenance(nodes))
        return Checkpoint(nodes=nodes, incumbent=None, meta=meta)

    def _node(self, x, dual=1.0, depth=1, rank=1):
        return ParaNode(payload={"x": x}, dual_bound=dual, depth=depth, origin_rank=rank)

    def test_clean_cover_passes(self):
        saved = [self._node(1), self._node(2, dual=2.0, depth=2)]
        restored = [ParaNode.from_json(n.to_json()) for n in reversed(saved)]
        report = audit_restart_coverage(self._checkpoint(saved), restored)
        assert report.ok

    def test_missing_node_fails(self):
        saved = [self._node(1), self._node(2)]
        report = audit_restart_coverage(self._checkpoint(saved), [saved[0]])
        assert not report.ok
        names = {c.name for c in report.failures}
        assert "node_count" in names and "frontier_covered" in names

    def test_mutated_dual_fails(self):
        saved = [self._node(1, dual=1.0)]
        tampered = [self._node(1, dual=5.0)]
        report = audit_restart_coverage(self._checkpoint(saved), tampered)
        assert not report.ok

    def test_duplicate_multiplicity_enforced(self):
        saved = [self._node(1), self._node(1)]
        report = audit_restart_coverage(self._checkpoint(saved), [self._node(1), self._node(2)])
        assert not report.ok

    def test_real_checkpoint_roundtrip(self, tmp_path, hc5):
        path = str(tmp_path / "cp.json")
        cfg = UGConfig(time_limit=0.3, checkpoint_path=path, checkpoint_interval=0.05,
                       objective_epsilon=1 - 1e-6)
        ug(hc5.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim", config=cfg).run()
        cp = load_checkpoint(path)
        restored = [ParaNode.from_json(n.to_json()) for n in cp.nodes]
        audit_restart_coverage(cp, restored).raise_if_failed()
