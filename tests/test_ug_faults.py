"""Fault-tolerance tests: injection, heartbeats, reclamation, recovery.

The acceptance scenario at the bottom mirrors the paper's Tables 2-3
restart campaigns: an 8-solver ug[SteinerJack, SimMPI] run loses two
solvers mid-ramp-up and has its final checkpoint truncated, yet still
proves optimality, restarts from the rotated ``.bak`` copy, and replays
bit-identically under the same :class:`FaultPlan`.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.exceptions import CheckpointError, CommError, LPError
from repro.steiner.instances import hypercube_instance
from repro.steiner.solver import SteinerSolver
from repro.ug import ug
from repro.ug.checkpoint import backup_path, load_checkpoint, save_checkpoint
from repro.ug.config import UGConfig
from repro.ug.engines import SimEngine, ThreadEngine
from repro.ug.faults import (
    CheckpointFault,
    FaultInjector,
    FaultPlan,
    MessageFault,
    RetryingSend,
    SendFault,
    SolverCrash,
)
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.messages import Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.para_solver import ParaSolver
from repro.ug.user_plugins import HandleStep, SolverHandle, UserPlugins


# -- helpers shared with the engine tests -------------------------------------


class CountdownHandle(SolverHandle):
    def __init__(self, n: int, work: float, value: float, fail_at: int | None = None):
        self.remaining = n
        self.work = work
        self.value = value
        self.fail_at = fail_at

    def step(self) -> HandleStep:
        if self.fail_at is not None and self.remaining == self.fail_at:
            raise LPError("numerical breakdown in the base solver")
        self.remaining -= 1
        done = self.remaining <= 0
        sols = [ParaSolution(self.value)] if done else []
        return HandleStep(done, self.work, self.value - 1.0, self.remaining, sols, 1)

    def extract_para_node(self):
        return None

    def inject_incumbent_value(self, value: float) -> None:
        pass


class CountdownPlugins(UserPlugins):
    base_solver_name = "Countdown"

    def __init__(self, n=10, work=0.01, value=5.0, fail_at=None, fail_once=False):
        self.n, self.work, self.value = n, work, value
        self.fail_at = fail_at
        self.fail_once = fail_once
        self.created = 0

    def create_handle(self, instance, node, params, seed, incumbent):
        self.created += 1
        fail_at = self.fail_at
        if self.fail_once and self.created > 1:
            fail_at = None
        return CountdownHandle(self.n, self.work, self.value, fail_at)


def build(engine_cls, n_solvers=2, plugins=None, **cfg):
    config = UGConfig(**cfg)
    lc = LoadCoordinator("inst", plugins or CountdownPlugins(), ParamSet(), config, n_solvers)
    solvers = {
        r: ParaSolver(r, lc.instance, lc.user_plugins, ParamSet(), 0,
                      status_interval_work=config.status_interval_work)
        for r in range(1, n_solvers + 1)
    }
    return engine_cls(lc, solvers, config), lc


def collect_sends():
    sent = []

    def send(dst, tag, payload):
        sent.append((dst, tag, payload))

    return sent, send


def make_lc(n=3, **cfg) -> LoadCoordinator:
    class _NullPlugins(UserPlugins):
        base_solver_name = "Null"

    return LoadCoordinator("instance", _NullPlugins(), ParamSet(), UGConfig(**cfg), n)


# -- FaultPlan / FaultInjector -------------------------------------------------


class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random_plan(seed=7, n_solvers=8, n_crashes=2, n_message_drops=1)
        b = FaultPlan.random_plan(seed=7, n_solvers=8, n_crashes=2, n_message_drops=1)
        assert a == b
        assert len(a.crashes) == 2
        assert FaultPlan.random_plan(seed=8, n_solvers=8, n_crashes=2) != a

    def test_crash_triggers(self):
        crash = SolverCrash(rank=1, at_time=0.5)
        assert not crash.triggered(0.4, 100)
        assert crash.triggered(0.5, 0)
        by_nodes = SolverCrash(rank=1, at_nodes=3)
        assert not by_nodes.triggered(99.0, 2)
        assert by_nodes.triggered(0.0, 3)

    def test_injector_crash_counted_once(self):
        inj = FaultInjector(FaultPlan(crashes=(SolverCrash(rank=1, at_nodes=2),)))
        assert not inj.maybe_crash(1, 0.0, 1)
        assert inj.maybe_crash(1, 0.0, 2)
        assert inj.maybe_crash(1, 0.0, 5)  # stays dead
        assert inj.crashes_triggered == 1
        assert not inj.maybe_crash(2, 99.0, 99)

    def test_message_fault_budget(self):
        plan = FaultPlan(message_faults=(MessageFault(tag=MessageTag.STATUS, src=1, count=2),))
        inj = FaultInjector(plan)
        msg = Message(tag=MessageTag.STATUS, src=1, dst=0, payload={})
        assert inj.message_action(msg) == ("drop", 0.0)
        assert inj.message_action(msg) == ("drop", 0.0)
        assert inj.message_action(msg) == ("deliver", 0.0)  # budget exhausted
        other = Message(tag=MessageTag.STATUS, src=2, dst=0, payload={})
        assert inj.message_action(other) == ("deliver", 0.0)
        assert inj.messages_dropped == 2

    def test_message_delay(self):
        plan = FaultPlan(
            message_faults=(MessageFault(tag=MessageTag.INCUMBENT, action="delay", delay=0.5),)
        )
        inj = FaultInjector(plan)
        msg = Message(tag=MessageTag.INCUMBENT, src=0, dst=1, payload={})
        assert inj.message_action(msg) == ("delay", 0.5)
        assert inj.messages_delayed == 1

    def test_send_fault_window(self):
        inj = FaultInjector(FaultPlan(send_faults=(SendFault(src=1, nth_send=2, count=2),)))
        inj.check_send(1)  # attempt 1 fine
        with pytest.raises(CommError):
            inj.check_send(1)  # attempt 2 fails
        with pytest.raises(CommError):
            inj.check_send(1)  # attempt 3 fails
        inj.check_send(1)  # attempt 4 fine
        inj.check_send(2)  # other ranks unaffected
        assert inj.send_failures_injected == 2

    def test_injector_budgets_thread_safe(self):
        # one injector is shared by every ThreadEngine solver thread; its
        # budget/attempt read-modify-writes must not interleave
        plan = FaultPlan(message_faults=(MessageFault(tag=MessageTag.STATUS, count=100),))
        inj = FaultInjector(plan)
        msg = Message(tag=MessageTag.STATUS, src=1, dst=0, payload={})
        outcomes: list[str] = []

        def hammer():
            for _ in range(100):
                outcomes.append(inj.message_action(msg)[0])
                inj.check_send(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("drop") == 100
        assert inj.messages_dropped == 100
        assert inj._send_attempts[1] == 800


class TestRetryingSend:
    def test_transient_failure_recovered(self):
        calls = []
        fails = [2]  # fail the first two attempts

        def flaky(dst, tag, payload):
            if fails[0] > 0:
                fails[0] -= 1
                raise CommError("transient")
            calls.append((dst, tag, payload))

        send = RetryingSend(flaky, retries=3)
        send(1, MessageTag.STATUS, {"x": 1})
        assert calls == [(1, MessageTag.STATUS, {"x": 1})]
        assert send.total_retries == 2

    def test_persistent_failure_raises(self):
        def dead(dst, tag, payload):
            raise CommError("gone")

        send = RetryingSend(dead, retries=2)
        with pytest.raises(CommError):
            send(1, MessageTag.STATUS, None)
        assert send.total_retries == 2

    def test_backoff_schedule(self):
        sleeps = []

        def dead(dst, tag, payload):
            raise CommError("gone")

        send = RetryingSend(dead, retries=3, backoff=0.1, sleep=sleeps.append)
        with pytest.raises(CommError):
            send(1, MessageTag.STATUS, None)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])


# -- hardened checkpointing ----------------------------------------------------


class TestHardenedCheckpoint:
    def test_roundtrip_with_plus_minus_inf_bounds(self, tmp_path):
        nodes = [
            ParaNode({}, dual_bound=-math.inf),
            ParaNode({}, dual_bound=math.inf),
            ParaNode({}, dual_bound=4.25),
        ]
        path = tmp_path / "cp.json"
        save_checkpoint(path, nodes, None)
        cp = load_checkpoint(path)
        assert [n.dual_bound for n in cp.nodes] == [-math.inf, math.inf, 4.25]

    def test_meta_records_trajectory(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(
            path,
            [ParaNode({}, dual_bound=1.0)],
            ParaSolution(12.0),
            meta={"checkpoint_time": 3.5, "wall_time": 1e9, "incumbent_value": 12.0,
                  "dual_bound": -math.inf},
        )
        cp = load_checkpoint(path)
        assert cp.meta["checkpoint_time"] == 3.5
        assert cp.meta["incumbent_value"] == 12.0
        assert cp.meta["dual_bound"] == -math.inf

    def test_truncated_file_raises_without_backup(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, [ParaNode({}, dual_bound=1.0)], None)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_crc_detects_silent_bitflip(self, tmp_path):
        # corruption that is still valid JSON must be caught by the checksum
        path = tmp_path / "cp.json"
        save_checkpoint(path, [ParaNode({}, dual_bound=4.0)], ParaSolution(9.0))
        text = path.read_text()
        assert '"value":9.0' in text
        path.write_text(text.replace('"value":9.0', '"value":8.0'))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(path)

    def test_rotation_keeps_k_backups(self, tmp_path):
        path = tmp_path / "cp.json"
        for k in range(4):
            save_checkpoint(path, [ParaNode({"gen": k}, dual_bound=float(k))], None, retain=2)
        assert backup_path(path, 1).exists() and backup_path(path, 2).exists()
        assert not backup_path(path, 3).exists()  # retention bound respected
        assert load_checkpoint(path).nodes[0].payload == {"gen": 3}
        assert load_checkpoint(backup_path(path, 1)).nodes[0].payload == {"gen": 2}
        assert load_checkpoint(backup_path(path, 2)).nodes[0].payload == {"gen": 1}

    def test_fallback_to_newest_valid_backup(self, tmp_path):
        path = tmp_path / "cp.json"
        for k in range(3):
            save_checkpoint(path, [ParaNode({"gen": k}, dual_bound=float(k))], None, retain=2)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # truncate the primary
        cp = load_checkpoint(path)
        assert cp.recovered
        assert cp.source == str(backup_path(path, 1))
        assert cp.nodes[0].payload == {"gen": 1}
        assert cp.errors  # the primary's failure is reported

    def test_fallback_skips_corrupt_backup(self, tmp_path):
        path = tmp_path / "cp.json"
        for k in range(3):
            save_checkpoint(path, [ParaNode({"gen": k}, dual_bound=float(k))], None, retain=2)
        for victim in (path, backup_path(path, 1)):
            raw = victim.read_bytes()
            victim.write_bytes(raw[: len(raw) // 2])
        cp = load_checkpoint(path)
        assert cp.recovered
        assert cp.nodes[0].payload == {"gen": 0}

    def test_everything_corrupt_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        for k in range(2):
            save_checkpoint(path, [ParaNode({}, dual_bound=float(k))], None, retain=1)
        for victim in (path, backup_path(path, 1)):
            victim.write_text("{not json")
        with pytest.raises(CheckpointError, match="no usable checkpoint"):
            load_checkpoint(path)

    def test_legacy_file_without_crc_still_loads(self, tmp_path):
        path = tmp_path / "cp.json"
        doc = {"version": 1, "nodes": [], "incumbent": None, "meta": {}}
        path.write_text(json.dumps(doc))
        cp = load_checkpoint(path)
        assert cp.nodes == [] and cp.incumbent is None


# -- LoadCoordinator failure detection ----------------------------------------


class TestHeartbeatDetection:
    def test_silent_active_solver_declared_dead_and_node_reclaimed(self):
        lc = make_lc(2, heartbeat_timeout=1.0)
        sent, send = collect_sends()
        lc.start(send, 0.0)  # rank 1 gets the root
        old_id = lc.active[1].lc_id
        lc.on_tick(send, 2.0)  # rank 1 has been silent for 2.0 > 1.0
        assert lc.dead == {1}
        assert lc.stats.solver_failures == 1
        assert lc.stats.nodes_reclaimed == 1
        # the reclaimed root was re-numbered and handed to the survivor
        assert 2 in lc.active
        assert lc.active[2].lc_id != old_id
        assert 1 not in lc.idle

    def test_heartbeat_refresh_prevents_false_positive(self):
        lc = make_lc(1, heartbeat_timeout=1.0)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        status = Message(tag=MessageTag.STATUS, src=1, dst=0,
                         payload={"rank": 1, "dual_bound": 0.0, "n_open": 3})
        lc.handle_message(status, send, 0.9)
        lc.on_tick(send, 1.5)  # only 0.6 since last message
        assert not lc.dead
        lc.on_tick(send, 2.5)  # now 1.6 of silence
        assert lc.dead == {1}

    def test_stale_messages_from_dead_rank_ignored_solutions_accepted(self):
        lc = make_lc(2, heartbeat_timeout=1.0)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.on_tick(send, 2.0)
        assert lc.dead == {1}
        stale = Message(tag=MessageTag.STATUS, src=1, dst=0,
                        payload={"rank": 1, "dual_bound": 0.0, "n_open": 7})
        lc.handle_message(stale, send, 2.1)
        assert 1 not in lc._last_status  # bookkeeping untouched
        late_sol = Message(tag=MessageTag.SOLUTION_FOUND, src=1, dst=0,
                           payload={"solution": ParaSolution(42.0), "rank": 1})
        lc.handle_message(late_sol, send, 2.2)
        assert lc.incumbent is not None and lc.incumbent.value == 42.0

    def test_all_solvers_dead_terminates_gracefully(self):
        lc = make_lc(1, heartbeat_timeout=0.5)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.on_tick(send, 1.0)
        assert lc.finished
        assert not lc.active
        assert lc.stats.solver_failures == 1

    def test_dead_racer_removed_from_contest(self):
        lc = make_lc(3, ramp_up="racing", heartbeat_timeout=1.0, racing_deadline=1.1)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        assert len(lc.active) == 3
        for rank, bound in ((1, 5.0), (2, 7.0)):
            lc.handle_message(
                Message(tag=MessageTag.STATUS, src=rank, dst=0,
                        payload={"rank": rank, "dual_bound": bound, "n_open": 4}),
                send, 0.5,
            )
        # rank 3 has been silent since t=0 -> dead; deadline then picks the
        # winner among the survivors only
        lc.on_tick(send, 1.2)
        assert lc.dead == {3}
        assert lc.stats.nodes_reclaimed == 0  # racing roots are not reclaimed
        assert lc.stats.racing_winner is not None
        assert set(lc.active) == {2}  # best dual bound among survivors
        losers = [m for m in sent if m[1] is MessageTag.RACING_LOSER]
        assert [dst for dst, _t, _p in losers] == [1]  # never message the dead

    def test_all_racers_dead_terminates(self):
        lc = make_lc(2, ramp_up="racing", heartbeat_timeout=0.5)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.on_tick(send, 1.0)
        assert lc.finished
        assert lc.stats.solver_failures == 2
        assert not lc.proven_complete  # nobody ever explored the root

    def test_all_racers_dead_with_incumbent_forfeits_optimality(self):
        # regression: both racers crash right after a solution arrives —
        # the unexplored tree must not come back as a proven optimum
        lc = make_lc(2, ramp_up="racing", heartbeat_timeout=0.5)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.handle_message(
            Message(tag=MessageTag.SOLUTION_FOUND, src=1, dst=0,
                    payload={"solution": ParaSolution(42.0), "rank": 1}),
            send, 0.1,
        )
        lc.on_tick(send, 1.0)  # both racers silent past the timeout
        assert lc.finished
        assert not lc.proven_complete
        assert lc.stats.primal_final == 42.0
        assert lc.stats.dual_final == -math.inf  # the root's bound, not 42.0

    def test_last_contender_dies_while_failed_racers_survive(self):
        # rank 1 drops out with a contained step failure (solver stays
        # alive), then rank 2 — the last contender — dies: nobody finished
        # exploring the racing root, so no optimality claim
        lc = make_lc(2, ramp_up="racing", heartbeat_timeout=0.5)
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.handle_message(
            Message(tag=MessageTag.SOLUTION_FOUND, src=2, dst=0,
                    payload={"solution": ParaSolution(42.0), "rank": 2}),
            send, 0.1,
        )
        lc.handle_message(
            Message(tag=MessageTag.TERMINATED, src=1, dst=0,
                    payload={"rank": 1, "failed": True}),
            send, 0.2,
        )
        assert not lc.finished
        lc.on_tick(send, 1.0)  # rank 2 silent since t=0.1
        assert lc.finished
        assert lc.dead == {2}
        assert not lc.proven_complete
        assert lc.stats.dual_final == -math.inf

    def test_all_racers_failed_forfeits_optimality(self):
        # every racer reports a contained base-solver failure: the run ends
        # gracefully but the racing root was never explored
        lc = make_lc(2, ramp_up="racing")
        sent, send = collect_sends()
        lc.start(send, 0.0)
        lc.handle_message(
            Message(tag=MessageTag.SOLUTION_FOUND, src=1, dst=0,
                    payload={"solution": ParaSolution(42.0), "rank": 1}),
            send, 0.1,
        )
        for rank in (1, 2):
            lc.handle_message(
                Message(tag=MessageTag.TERMINATED, src=rank, dst=0,
                        payload={"rank": rank, "failed": True}),
                send, 0.2,
            )
        assert lc.finished
        assert not lc.proven_complete
        assert lc.stats.primal_final == 42.0
        assert lc.stats.dual_final == -math.inf


class TestStepFailureContainment:
    def test_para_solver_contains_base_solver_error(self):
        plugins = CountdownPlugins(n=5, fail_at=3)
        solver = ParaSolver(1, "inst", plugins, ParamSet(), seed=0)
        sent, send = collect_sends()
        node = ParaNode({})
        solver.handle_message(
            Message(tag=MessageTag.SUBPROBLEM, src=0, dst=1,
                    payload={"node": node, "incumbent": None, "settings": None}),
            send,
        )
        solver.do_work(send)  # 5 -> 4
        solver.do_work(send)  # 4 -> 3
        work = solver.do_work(send)  # remaining == 3 -> raises inside, contained
        assert work is not None
        assert solver.state == "idle" and solver.handle is None
        failed = [p for _d, t, p in sent if t is MessageTag.TERMINATED]
        assert failed and failed[-1]["failed"] is True

    def test_failed_node_is_retried_elsewhere_and_run_completes(self):
        # rank 1's first handle fails on its third step; the LC reclaims the
        # node and the retry (a fresh handle) succeeds
        engine, lc = build(SimEngine, n_solvers=2,
                           plugins=CountdownPlugins(n=5, fail_at=3, fail_once=True))
        engine.run()
        assert lc.finished
        assert lc.incumbent is not None and lc.incumbent.value == 5.0
        assert lc.stats.step_failures == 1
        assert lc.stats.nodes_reclaimed == 1
        assert lc.proven_complete

    def test_poisonous_node_gives_up_after_max_retries(self):
        engine, lc = build(SimEngine, n_solvers=2, max_node_retries=2,
                           plugins=CountdownPlugins(n=5, fail_at=3))
        engine.run()
        assert lc.finished
        assert lc.stats.step_failures == 3  # initial try + 2 retries
        assert not lc.proven_complete  # the subtree was abandoned

    def test_prunable_node_reclaim_keeps_completeness(self):
        # a node already prunable by bound that exhausts its retry budget
        # must not forfeit the optimality claim — nothing explorable was lost
        lc = make_lc(1, max_node_retries=0)
        lc.incumbent = ParaSolution(10.0)
        lc.active[1] = ParaNode({}, dual_bound=10.0)
        lc._reclaim_active_node(1)
        assert lc.proven_complete
        assert lc.stats.nodes_reclaimed == 0


# -- engine-level fault injection ---------------------------------------------


class TestSimEngineFaults:
    def test_crashed_solver_detected_and_work_reassigned(self):
        plan = FaultPlan(crashes=(SolverCrash(rank=1, at_nodes=3),))
        engine, lc = build(SimEngine, n_solvers=2, heartbeat_timeout=0.5, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.dead == {1}
        assert lc.stats.solver_failures == 1
        assert lc.stats.nodes_reclaimed == 1
        # the survivor finished the reclaimed subproblem
        assert lc.incumbent is not None and lc.incumbent.value == 5.0

    def test_all_solvers_crashed_still_terminates(self):
        plan = FaultPlan(crashes=(SolverCrash(rank=1, at_nodes=2), SolverCrash(rank=2, at_time=0.0)))
        engine, lc = build(SimEngine, n_solvers=2, heartbeat_timeout=0.3, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.stats.solver_failures == 2
        assert not lc.live_solvers()

    def test_replay_is_bit_identical(self):
        def once():
            plan = FaultPlan(
                crashes=(SolverCrash(rank=1, at_nodes=3),),
                message_faults=(MessageFault(tag=MessageTag.STATUS, src=2, count=1),),
            )
            engine, lc = build(SimEngine, n_solvers=3, heartbeat_timeout=0.5, fault_plan=plan)
            engine.run()
            s = lc.stats
            return (s.solver_failures, s.nodes_reclaimed, s.messages_dropped,
                    s.computing_time, s.nodes_generated, s.transferred_nodes, s.faults_injected)

        assert once() == once()

    def test_transient_send_failures_absorbed_by_retry(self):
        plan = FaultPlan(send_faults=(SendFault(src=1, nth_send=2, count=2),))
        engine, lc = build(SimEngine, n_solvers=2, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.incumbent is not None and lc.incumbent.value == 5.0
        assert lc.stats.send_retries >= 2
        assert lc.stats.faults_injected >= 2

    def test_both_racers_crash_during_racing_no_optimality_claim(self):
        # both racers crash before the (distant) racing deadline: the run
        # ends without anyone exploring the root, so nothing is proven
        plan = FaultPlan(crashes=(SolverCrash(rank=1, at_time=0.05),
                                  SolverCrash(rank=2, at_time=0.05)))
        engine, lc = build(SimEngine, n_solvers=2, plugins=CountdownPlugins(n=50),
                           ramp_up="racing", racing_deadline=1e9,
                           heartbeat_timeout=0.3, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.stats.solver_failures == 2
        assert not lc.proven_complete
        assert lc.stats.dual_final == -math.inf

    def test_deadline_crowns_dead_winner_and_orphans_dead_loser(self):
        # the racing deadline may pick an already-crashed winner and orphan
        # a crashed loser; heartbeat monitoring must cover the loser too or
        # the engine spins forever waiting for its TERMINATED
        plan = FaultPlan(crashes=(SolverCrash(rank=1, at_time=0.05),
                                  SolverCrash(rank=2, at_time=0.05)))
        engine, lc = build(SimEngine, n_solvers=2, plugins=CountdownPlugins(n=50),
                           ramp_up="racing", racing_deadline=0.1,
                           heartbeat_timeout=0.3, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.stats.solver_failures == 2
        assert not lc.live_solvers()
        # the winner's node was reclaimed but nobody was left to solve it
        assert lc.pool_size() == 1
        assert lc.stats.nodes_reclaimed == 1

    def test_dropped_status_does_not_stall_run(self):
        plan = FaultPlan(message_faults=(MessageFault(tag=MessageTag.STATUS, count=3),))
        engine, lc = build(SimEngine, n_solvers=2, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.stats.messages_dropped >= 1


class TestThreadEngineFaults:
    def test_crashed_thread_detected_and_run_completes(self):
        plan = FaultPlan(crashes=(SolverCrash(rank=1, at_nodes=3),))
        engine, lc = build(ThreadEngine, n_solvers=2, heartbeat_timeout=0.5,
                           time_limit=30.0, fault_plan=plan)
        engine.run()
        assert lc.finished
        assert lc.stats.solver_failures == 1
        assert lc.incumbent is not None and lc.incumbent.value == 5.0


# -- acceptance: the Tables 2-3 restart-series scenario ------------------------


@pytest.fixture(scope="module")
def hc5():
    return hypercube_instance(5, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc5_optimum(hc5):
    return SteinerSolver(hc5.copy(), seed=0).solve(node_limit=2000).cost


CRASHES = (SolverCrash(rank=2, at_time=0.2), SolverCrash(rank=3, at_nodes=3))


def _campaign_config(path, plan):
    return UGConfig(
        time_limit=1e9,
        objective_epsilon=1 - 1e-6,
        heartbeat_timeout=0.4,  # > the longest observed node step on hc5
        checkpoint_path=path,
        checkpoint_interval=0.25,
        fault_plan=plan,
    )


def _campaign_run(hc5, path, plan):
    cfg = _campaign_config(path, plan)
    return ug(hc5.copy(), SteinerUserPlugins(), n_solvers=8, comm="sim",
              config=cfg, wall_clock_limit=120).run()


class TestFaultToleranceEndToEnd:
    def test_campaign_survives_crashes_and_corruption(self, tmp_path, hc5, hc5_optimum):
        # phase 1 — discover (deterministically) how many checkpoints the
        # crashing run writes, so the fault plan can corrupt the last one
        dry_path = str(tmp_path / "dry" / "cp.json")
        r_dry = _campaign_run(hc5, dry_path, FaultPlan(crashes=CRASHES))
        n_writes = r_dry.stats.checkpoints_written
        assert n_writes >= 2  # need a .bak to fall back to

        # phase 2 — the real campaign: two solvers die mid-ramp-up AND the
        # final checkpoint write is truncated on disk
        plan = FaultPlan(
            crashes=CRASHES,
            checkpoint_faults=(CheckpointFault(nth_write=n_writes, mode="truncate"),),
        )
        path = str(tmp_path / "real" / "cp.json")
        r1 = _campaign_run(hc5, path, plan)
        # ...the run itself still terminates and proves optimality with the
        # six survivors, having reclaimed the dead solvers' nodes
        assert r1.solved
        assert r1.objective == pytest.approx(hc5_optimum)
        assert r1.stats.solver_failures == 2
        assert r1.stats.nodes_reclaimed >= 1
        assert r1.stats.surviving_solvers == 6
        assert r1.stats.checkpoints_written == n_writes

        # phase 3 — the primary checkpoint really is unusable, and the
        # loader transparently falls back to the newest rotated backup
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fallback=False)
        cp = load_checkpoint(path)
        assert cp.recovered
        assert cp.source == str(backup_path(path, 1))
        assert "dual_bound" in cp.meta and "checkpoint_time" in cp.meta

        # phase 4 — restart the campaign from the recovered checkpoint and
        # prove optimality again (the paper's restart-series pattern)
        cfg2 = UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6)
        r2 = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=8, comm="sim",
                config=cfg2, wall_clock_limit=120).run(restart_from=path)
        assert r2.solved
        assert r2.objective == pytest.approx(hc5_optimum)
        assert r2.stats.checkpoints_recovered == 1

    def test_campaign_replays_bit_identically(self, tmp_path, hc5):
        def once(tag):
            path = str(tmp_path / tag / "cp.json")
            plan = FaultPlan(crashes=CRASHES,
                             checkpoint_faults=(CheckpointFault(nth_write=2, mode="corrupt"),))
            r = _campaign_run(hc5, path, plan)
            s = r.stats
            return (s.solver_failures, s.nodes_reclaimed, s.nodes_generated,
                    s.transferred_nodes, s.computing_time, s.checkpoints_written,
                    s.faults_injected, r.objective)

        assert once("a") == once("b")
