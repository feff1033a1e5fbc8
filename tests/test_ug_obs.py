"""Tests for the repro.obs telemetry subsystem and the accounting fixes
that rode along with it (stale STATUS, gap sign, objective epsilon,
running node totals)."""

from __future__ import annotations

import json
import math
import sys
import threading

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.obs.metrics import Timer, busy_timelines, timeline_idle_ratios
from repro.obs.reporters import (
    Report,
    progress_report,
    render_table,
    scaling_report,
    winner_histogram,
    winner_histogram_report,
    write_bench_json,
)
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer
from repro.serve.daemon import ServeStatistics
from repro.steiner.instances import hypercube_instance
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.ug.engine_core import build_para_solver
from repro.ug.engines import SimEngine, ThreadEngine
from repro.ug.faults import FaultPlan, FrameFault
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.messages import Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.para_solver import ParaSolver
from repro.ug.statistics import UGStatistics
from repro.ug.user_plugins import HandleStep, SolverHandle, UserPlugins


# -- shared stubs ---------------------------------------------------------------


class CountdownHandle(SolverHandle):
    def __init__(self, n: int, work: float, value: float):
        self.remaining = n
        self.work = work
        self.value = value

    def step(self) -> HandleStep:
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

    def __init__(self, n=10, work=0.01, value=5.0):
        self.n, self.work, self.value = n, work, value

    def create_handle(self, instance, node, params, seed, incumbent):
        return CountdownHandle(self.n, self.work, self.value)


def build(engine_cls, n_solvers=2, plugins=None, **cfg):
    config = UGConfig(**cfg)
    lc = LoadCoordinator("inst", plugins or CountdownPlugins(), ParamSet(), config, n_solvers)
    solvers = {
        r: ParaSolver(r, lc.instance, lc.user_plugins, ParamSet(), 0,
                      status_interval_work=config.status_interval_work)
        for r in range(1, n_solvers + 1)
    }
    return engine_cls(lc, solvers, config), lc


# -- Tracer ----------------------------------------------------------------------


class TestTracer:
    def test_disabled_is_noop(self):
        tr = Tracer(enabled=False)
        tr.emit(0.0, "send", 1, dst=2)
        assert len(tr) == 0 and tr.to_jsonl() == ""

    def test_null_tracer_shared_and_disabled(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(0.0, "anything", 5)
        assert len(NULL_TRACER) == 0

    def test_ring_overflow_counts_drops(self):
        tr = Tracer(capacity=3)
        for i in range(5):
            tr.emit(float(i), "e")
        assert len(tr) == 3
        assert tr.dropped == 2
        assert [e.t for e in tr.events()] == [2.0, 3.0, 4.0]

    def test_filtering_and_canonical_jsonl(self):
        tr = Tracer()
        tr.emit(0.5, "send", 1, dst=2, tag="status")
        tr.emit(0.7, "wake", 2)
        assert len(tr.events("send")) == 1
        assert len(tr.events(rank=2)) == 1
        lines = tr.to_jsonl().splitlines()
        assert json.loads(lines[0]) == {
            "data": {"dst": 2, "tag": "status"}, "kind": "send", "rank": 1, "t": 0.5
        }
        # canonical encoding: sorted keys, compact separators
        assert lines[0] == '{"data":{"dst":2,"tag":"status"},"kind":"send","rank":1,"t":0.5}'

    def test_dump_roundtrip(self, tmp_path):
        tr = Tracer()
        tr.emit(1.0, "assign", 1, lc_id=0)
        p = tr.dump(tmp_path / "trace.jsonl")
        assert p.read_text() == tr.to_jsonl()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# -- the counter store -----------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_mirror_to_sink(self):
        # the dataclass is the store: counts and peaks land on its fields
        stats = UGStatistics()
        stats.bump("transferred_nodes")
        stats.bump("transferred_nodes", 2)
        stats.peak("max_active_solvers", 4)
        assert stats.transferred_nodes == 3
        assert stats.as_dict()["max_active_solvers"] == 4

    def test_maximize_reports_new_max(self):
        stats = UGStatistics()
        assert stats.peak("max_active_solvers", 2)
        assert not stats.peak("max_active_solvers", 1)
        assert stats.peak("max_active_solvers", 5)
        assert stats.max_active_solvers == 5

    def test_unknown_name_raises(self):
        # a typo must not file a new counter beside the dataclass fields
        stats = UGStatistics()
        with pytest.raises(AttributeError):
            stats.bump("no_such_attribute")
        with pytest.raises(AttributeError):
            ServeStatistics().peak("peak_queue_dept", 3)
        assert "no_such_attribute" not in stats.as_dict()

    def test_concurrent_bumps_and_peaks_lose_nothing(self):
        stats = ServeStatistics()
        n_threads, n_bumps = 8, 10_000

        def worker(k: int) -> None:
            for i in range(n_bumps):
                stats.bump("stream_events_sent")
                stats.peak("peak_queue_depth", k * n_bumps + i)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost update shows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stats.stream_events_sent == n_threads * n_bumps
        assert stats.peak_queue_depth == n_threads * n_bumps - 1

    def test_timer_aggregates(self):
        t = Timer()
        t.observe(0.2)
        t.observe(0.4)
        d = t.as_dict()
        assert d["count"] == 2
        assert d["total"] == pytest.approx(0.6)
        assert d["mean"] == pytest.approx(0.3)
        assert d["min"] == pytest.approx(0.2) and d["max"] == pytest.approx(0.4)
        assert Timer().as_dict()["min"] == 0.0

    def test_threads_run_counts_every_frame_of_both_ends(self):
        """The rank-side channels of the threads engine count from their
        own threads: the run's totals must equal the per-channel counters
        summed over both ends of every wire, decode errors included."""
        config = UGConfig(
            time_limit=1e9, objective_epsilon=1 - 1e-6, heartbeat_timeout=2.0,
            fault_plan=FaultPlan(frame_faults=(FrameFault(src=1, action="corrupt", count=2),)),
        )
        graph = hypercube_instance(4, perturbed=False, seed=1)
        lc = LoadCoordinator(graph, SteinerUserPlugins(), ParamSet(), config, 3)
        solvers = {
            r: build_para_solver(r, lc.instance, lc.user_plugins, ParamSet(), 0, config)
            for r in (1, 2, 3)
        }
        engine = ThreadEngine(lc, solvers, config)
        engine.wall_clock_limit = 60.0
        engine.run()
        ends = [*engine.channels.values(), *engine.rank_channels.values()]
        assert len(ends) == 6
        s = lc.stats
        assert s.net_decode_errors == sum(c.decode_errors for c in ends) == 2
        assert s.net_frames_sent == sum(c.frames_sent for c in ends) > 0
        assert s.net_frames_received == sum(c.frames_received for c in ends)
        assert s.net_bytes_sent == sum(c.bytes_sent for c in ends) > 0
        assert s.net_bytes_received == sum(c.bytes_received for c in ends)


class TestTimelines:
    def test_busy_timelines_merge_overlaps(self):
        events = [
            TraceEvent(0.0, "work", 1, {"work": 0.5}),
            TraceEvent(0.4, "work", 1, {"work": 0.2}),  # overlaps the first
            TraceEvent(1.0, "work", 1, {"work": 0.1}),
            TraceEvent(0.0, "work", 2, {"work": 0.1}),
            TraceEvent(0.0, "wake", 1, {}),  # ignored: not a work event
        ]
        tl = busy_timelines(events)
        assert len(tl[1]) == 2  # the two overlapping intervals merged
        assert tl[1][0][0] == 0.0 and tl[1][0][1] == pytest.approx(0.6)
        assert tl[1][1] == (1.0, 1.1)
        assert tl[2] == [(0.0, 0.1)]

    def test_idle_ratios_cover_silent_ranks(self):
        tl = {1: [(0.0, 0.5)]}
        ratios = timeline_idle_ratios(tl, span=1.0, ranks=[1, 2])
        assert ratios[1] == pytest.approx(0.5)
        assert ratios[2] == pytest.approx(1.0)  # never worked

    def test_timelines_from_tracer(self):
        tr = Tracer()
        tr.emit(0.0, "work", 3, work=0.25)
        assert busy_timelines(tr) == {3: [(0.0, 0.25)]}


# -- reporters -------------------------------------------------------------------


class TestReporters:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [10, float("nan")]])
        lines = text.splitlines()
        assert lines[0] == "\n=== T ===".strip("\n") or "=== T ===" in lines[0] or "=== T ===" in lines[1]
        assert any("2.5" in ln for ln in lines)
        assert any("-" in ln for ln in lines)  # nan renders as "-"

    def test_scaling_report_shape(self):
        results = {
            "cc3-4p": {"times": {1: 0.5, 2: 0.4}, "root_time": 0.1, "max_solvers": 2,
                       "first_max_active": 0.2},
            "hc5u": {"times": {1: 1.5, 2: 0.9}, "root_time": 0.05, "max_solvers": 2,
                     "first_max_active": 0.3},
        }
        rep = scaling_report("Table 1", results, [1, 2])
        assert rep.header == ["", "cc3-4p", "hc5u"]
        assert rep.rows[0] == ["1 solvers", 0.5, 1.5]
        assert rep.rows[1] == ["2 solvers", 0.4, 0.9]
        labels = [r[0] for r in rep.rows]
        assert "root time" in labels and "max # solvers" in labels and "first max active" in labels
        assert "Table 1" in rep.render()

    def test_winner_histogram_counts(self):
        counts = winner_histogram({"CLS": [2, 2, 4], "Mk-P": [1, 3]}, n_settings=4)
        assert counts["CLS"] == {1: 0, 2: 2, 3: 0, 4: 1}
        assert counts["Mk-P"] == {1: 1, 2: 0, 3: 1, 4: 0}

    def test_winner_histogram_report_bars_and_kinds(self):
        rep = winner_histogram_report(
            "Figure 1", {"CLS": [2, 2], "Mk-P": [1]}, n_settings=2,
            setting_kind=lambda k: "SDP" if k % 2 == 1 else "LP", bar_width=4,
        )
        assert rep.header == ["setting", "kind", "CLS", "Mk-P", ""]
        assert rep.rows[0][:2] == [1, "SDP"]
        assert rep.rows[1][:2] == [2, "LP"]
        assert rep.rows[1][-1] == "####"  # setting 2 holds the peak
        assert rep.extra["counts"]["CLS"][2] == 2

    def test_progress_report_derives_percentages(self):
        rep = progress_report("Table 2", [
            {"run": "1.1", "cores": 4, "time": 1.2, "idle": 0.25, "gap": 0.1,
             "nodes": 100, "open_final": 7},
            {"run": "1.2", "cores": 8, "time": 1.0, "idle": 0.5, "gap": math.inf,
             "nodes": 50, "open_final": 0, "restarted_from": 7},
        ])
        assert rep.header[0] == "run"
        idle_col = rep.header.index("idle%")
        gap_col = rep.header.index("gap%")
        assert rep.rows[0][idle_col] == pytest.approx(25.0)
        assert rep.rows[0][gap_col] == pytest.approx(10.0)
        assert rep.rows[1][gap_col] is None  # infinite gap renders as "-"

    def test_write_bench_json_sanitizes_and_uses_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path / "artifacts"))
        rep = Report("t", ["a"], [[float("inf")]])
        path = write_bench_json("demo", {"report": rep, "nan": float("nan"),
                                         "stats": UGStatistics()})
        assert path == tmp_path / "artifacts" / "BENCH_demo.json"
        doc = json.loads(path.read_text())  # strictly-valid JSON
        assert doc["report"]["rows"] == [["inf"]]
        assert doc["nan"] == "nan"
        assert doc["stats"]["primal_initial"] == "inf"


# -- satellite fixes -------------------------------------------------------------


class TestStaleStatus:
    def _racing_lc(self, n=3):
        config = UGConfig(ramp_up="racing", racing_deadline=100.0, racing_open_node_threshold=5)
        lc = LoadCoordinator("inst", CountdownPlugins(), ParamSet(), config, n)
        sent: list[tuple[int, MessageTag, object]] = []
        lc.start(lambda d, t, p: sent.append((d, t, p)), 0.0)
        return lc, sent

    def test_stale_status_cannot_crown_a_winner(self):
        """A delayed STATUS from a rank that already left the race must not
        re-enter _last_status and trip the open-node threshold."""
        lc, sent = self._racing_lc()
        send = lambda d, t, p: sent.append((d, t, p))  # noqa: E731
        # rank 3 drops out of the race
        lc.handle_message(
            Message(tag=MessageTag.TERMINATED, src=3, dst=0,
                    payload={"rank": 3, "racing_loser": True}),
            send, 0.01,
        )
        assert 3 not in lc.active
        # ...then its delayed STATUS (huge open count) arrives
        lc.handle_message(
            Message(tag=MessageTag.STATUS, src=3, dst=0,
                    payload={"rank": 3, "dual_bound": 99.0, "n_open": 10**6,
                             "nodes_processed": 1, "state": "racing"}),
            send, 0.02,
        )
        assert 3 not in lc._last_status
        assert lc._racing  # the race goes on — no spurious winner
        assert lc.stats.racing_winner is None

    def test_live_status_still_tracked(self):
        lc, sent = self._racing_lc()
        send = lambda d, t, p: sent.append((d, t, p))  # noqa: E731
        lc.handle_message(
            Message(tag=MessageTag.STATUS, src=1, dst=0,
                    payload={"rank": 1, "dual_bound": 4.0, "n_open": 2,
                             "nodes_processed": 1, "state": "racing"}),
            send, 0.01,
        )
        assert lc._last_status[1]["n_open"] == 2

    def test_stale_status_emits_trace_event(self):
        lc, sent = self._racing_lc()
        lc.tracer = Tracer()
        send = lambda d, t, p: sent.append((d, t, p))  # noqa: E731
        lc.handle_message(
            Message(tag=MessageTag.TERMINATED, src=2, dst=0,
                    payload={"rank": 2, "racing_loser": True}), send, 0.01,
        )
        lc.handle_message(
            Message(tag=MessageTag.STATUS, src=2, dst=0,
                    payload={"rank": 2, "dual_bound": 0.0, "n_open": 10**6,
                             "nodes_processed": 0, "state": "racing"}), send, 0.02,
        )
        assert lc.tracer.events("stale_status")[0].rank == 2


class TestGapSign:
    def test_opposite_sign_bounds_give_infinite_gap(self):
        st = UGStatistics(primal_final=5.0, dual_final=-5.0,
                          primal_initial=5.0, dual_initial=-5.0)
        assert math.isinf(st.gap_final)
        assert math.isinf(st.gap_initial)

    def test_same_sign_gap_finite(self):
        st = UGStatistics(primal_final=10.0, dual_final=8.0)
        assert st.gap_final == pytest.approx(0.2)

    def test_zero_bound_gap(self):
        st = UGStatistics(primal_final=0.5, dual_final=0.0)
        assert st.gap_final == pytest.approx(0.5)  # max(|p|,|d|,1) denominator

    def test_as_dict_contains_derived(self):
        d = UGStatistics(primal_final=4.0, dual_final=4.0, n_solvers=3).as_dict()
        assert d["gap_final"] == 0.0
        assert d["surviving_solvers"] == 3


class TestObjectiveEpsilon:
    def _solver(self, eps: float):
        sol_a = ParaSolution(10.0)
        sol_b = ParaSolution(10.0 - 0.3)  # improves by 0.3 only
        script = [
            HandleStep(False, 0.01, 1.0, 2, [sol_a], 1),
            HandleStep(False, 0.01, 1.0, 2, [sol_b], 1),
            HandleStep(True, 0.01, 1.0, 0, [], 1),
        ]

        class P(UserPlugins):
            base_solver_name = "Scripted"

            def create_handle(self, instance, node, params, seed, incumbent):
                class H(SolverHandle):
                    def step(self_h):
                        return script.pop(0)

                    def extract_para_node(self_h):
                        return None

                    def inject_incumbent_value(self_h, value):
                        pass

                return H()

        solver = ParaSolver(1, "inst", P(), ParamSet(), 0, objective_epsilon=eps)
        sent: list[tuple[int, MessageTag, object]] = []
        send = lambda d, t, p: sent.append((d, t, p))  # noqa: E731
        solver.handle_message(
            Message(tag=MessageTag.SUBPROBLEM, src=0, dst=1,
                    payload={"node": ParaNode({}), "incumbent": None, "settings": None}),
            send,
        )
        while solver.is_busy:
            solver.do_work(send)
        return [p for _d, t, p in sent if t is MessageTag.SOLUTION_FOUND]

    def test_wide_epsilon_filters_marginal_improvement(self):
        found = self._solver(eps=0.5)
        assert len(found) == 1  # the 0.3 improvement is below the 0.5 epsilon

    def test_tight_epsilon_reports_it(self):
        found = self._solver(eps=1e-9)
        assert len(found) == 2

    def test_config_epsilon_threaded_into_solvers(self, monkeypatch):
        import repro.ug.engine_core as inst  # the one place ParaSolvers are built

        seen: list[float] = []
        real = inst.ParaSolver

        class Recording(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.objective_epsilon)

        monkeypatch.setattr(inst, "ParaSolver", Recording)
        cfg = UGConfig(objective_epsilon=0.123)
        ug("inst", CountdownPlugins(n=2), n_solvers=2, comm="sim", config=cfg).run()
        assert seen == [0.123, 0.123]


class TestRunningNodeTotals:
    def test_sim_engine_total_matches_solvers(self):
        engine, lc = build(SimEngine, n_solvers=2, plugins=CountdownPlugins(n=8))
        engine.run()
        assert engine._nodes_total == sum(
            s.nodes_processed_total for s in engine.solvers.values()
        )
        assert engine._nodes_total == lc.stats.nodes_generated

    def test_thread_engine_total_matches_solvers(self):
        engine, lc = build(ThreadEngine, n_solvers=2, time_limit=30.0,
                           plugins=CountdownPlugins(n=8))
        engine.run()
        # the wall-clock engines check the node limit against the total
        # the ranks reported, which is final once everyone terminated
        assert lc.nodes_processed_total() == sum(
            s.nodes_processed_total for s in engine.solvers.values()
        )
        assert lc.nodes_processed_total() == lc.stats.nodes_generated

    def test_sim_node_limit_still_interrupts(self):
        engine, lc = build(SimEngine, n_solvers=1, node_limit=3,
                           plugins=CountdownPlugins(n=1000, work=0.01))
        engine.run()
        assert lc.finished
        assert engine._nodes_total >= 3


# -- end-to-end tracing ----------------------------------------------------------


class TestTracedRuns:
    def test_sim_engine_emits_protocol_events(self):
        engine, lc = build(SimEngine, n_solvers=2, trace_enabled=True)
        engine.run()
        tr = engine.tracer
        kinds = {e.kind for e in tr.events()}
        assert {"assign", "send", "deliver", "wake", "work", "step", "terminate"} <= kinds
        # work timeline reconstructs the busy accounting
        tl = busy_timelines(tr)
        busy_1 = sum(e - s for s, e in tl.get(1, []))
        assert busy_1 == pytest.approx(engine._busy[1], abs=1e-9)

    def test_disabled_run_traces_nothing(self):
        engine, lc = build(SimEngine, n_solvers=2)
        engine.run()
        assert len(engine.tracer) == 0
        assert not engine.tracer.enabled

    def test_thread_engine_trace_has_work_events(self):
        engine, lc = build(ThreadEngine, n_solvers=2, time_limit=30.0, trace_enabled=True)
        engine.run()
        assert engine.tracer.events("work")
        assert engine.tracer.events("send")

    def test_ug_result_carries_trace(self):
        cfg = UGConfig(trace_enabled=True)
        res = ug("inst", CountdownPlugins(n=3), n_solvers=2, comm="sim", config=cfg).run()
        assert res.trace is not None and res.trace.enabled
        assert res.trace.events("assign")

    def test_racing_events_traced(self):
        engine, lc = build(
            SimEngine, n_solvers=3, trace_enabled=True, ramp_up="racing",
            racing_deadline=0.02, racing_open_node_threshold=10**6,
            plugins=CountdownPlugins(n=50, work=0.01),
        )
        engine.run()
        tr = engine.tracer
        assert len(tr.events("racing_start")) == 3
        assert len(tr.events("racing_winner")) == 1
        assert len(tr.events("racing_loser")) == 2


class TestTraceDeterminism:
    def _traced_run(self) -> str:
        plan = FaultPlan.random_plan(seed=3, n_solvers=3, n_crashes=1, n_message_drops=1)
        engine, lc = build(
            SimEngine, n_solvers=3, trace_enabled=True, ramp_up="racing",
            racing_deadline=0.05, racing_open_node_threshold=10**6,
            heartbeat_timeout=0.1, time_limit=5.0,
            plugins=CountdownPlugins(n=120, work=0.01), fault_plan=plan,
        )
        engine.run()
        return engine.tracer.to_jsonl()

    def test_same_seed_same_faultplan_byte_identical(self):
        first = self._traced_run()
        second = self._traced_run()
        assert first  # the trace is non-trivial
        assert first == second

    def test_trace_survives_dump_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(self._traced_run())
        b.write_text(self._traced_run())
        assert a.read_bytes() == b.read_bytes()
