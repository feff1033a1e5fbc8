"""Tree auditors: replaying B&B runs from their traces, rejecting
tampered streams, and the checkpoint crash/restore round trip."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.params import ParamSet
from repro.cip.result import SolveStatus
from repro.obs.trace import TraceEvent, Tracer
from repro.steiner.instances import hypercube_instance
from repro.steiner.solver import SteinerSolver
from repro.ug import ug
from repro.ug.checkpoint import backup_path, load_checkpoint
from repro.ug.config import UGConfig
from repro.verify import audit_cip_trace, audit_ug_run


def branching_model(n: int = 8) -> Model:
    m = Model("parity")
    for i in range(n):
        m.add_variable(f"x{i}", VarType.BINARY, obj=-1.0)
    m.add_constraint({i: 1.0 for i in range(n)}, rhs=n / 2 + 0.5)
    return m


def traced_mip_solve(params: ParamSet | None = None):
    solver = make_mip_solver(branching_model(), params)
    solver.tracer = Tracer()
    res = solver.solve()
    return solver.tracer, res


def node_event(nid, parent, depth, b_in, b_out, outcome, *, t=0.0, cutoff=math.inf,
               processed=True, children=0, value=None, rank=0):
    data = dict(node=nid, parent=parent, depth=depth, bound_in=b_in, bound=b_out,
                outcome=outcome, children=children, cutoff=cutoff, processed=processed)
    if value is not None:
        data["value"] = value
    return TraceEvent(t, "bb_node", rank, data)


class TestCIPAudit:
    def test_genuine_traced_solve_accepted(self):
        tracer, res = traced_mip_solve()
        assert res.status is SolveStatus.OPTIMAL
        report = audit_cip_trace(tracer, res)
        assert not report.skipped
        assert report.ok, report.summary()

    def test_branching_heavy_solve_accepted(self):
        tracer, res = traced_mip_solve(ParamSet(heur_frequency=0, presolve=False))
        report = audit_cip_trace(tracer, res)
        assert report.ok, report.summary()
        audited = next(c for c in report.checks if c.name == "nodes_audited")
        assert audited.data["total"] > 1  # the run actually branched

    def test_untraced_solve_is_skipped(self):
        res = make_mip_solver(branching_model()).solve()
        report = audit_cip_trace([], res)
        assert report.skipped and report.ok

    def test_overflowed_ring_buffer_voids_audit(self):
        solver = make_mip_solver(branching_model(), ParamSet(heur_frequency=0, presolve=False))
        solver.tracer = Tracer(capacity=1)
        res = solver.solve()
        assert solver.tracer.dropped > 0
        report = audit_cip_trace(solver.tracer, res)
        assert any(c.name == "trace_complete" for c in report.failures)

    def test_dropped_override_voids_audit(self):
        tracer, res = traced_mip_solve()
        report = audit_cip_trace(tracer.events(), res, dropped=3)
        assert not report.ok


class TestCIPAuditRejectsTampering:
    def test_decreasing_bound_rejected(self):
        events = [node_event(0, -1, 0, 5.0, 3.0, "branched", children=2)]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("bound_monotone") for c in report.failures)

    def test_child_below_parent_bound_rejected(self):
        events = [
            node_event(0, -1, 0, 0.0, 10.0, "branched", children=2),
            node_event(1, 0, 1, 4.0, 12.0, "branched", children=2),
        ]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("parent_bound") for c in report.failures)

    def test_unjustified_prune_rejected(self):
        events = [node_event(0, -1, 0, 2.0, 3.0, "pruned_bound", cutoff=7.0)]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("prune_justified") for c in report.failures)

    def test_cutoff_above_incumbent_rejected(self):
        events = [
            TraceEvent(0.0, "bb_incumbent", 0, {"value": 5.0, "source": "solution"}),
            node_event(0, -1, 0, 9.0, 9.0, "pruned_bound", cutoff=8.0),
        ]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("cutoff_vs_incumbent") for c in report.failures)

    def test_worsening_incumbent_rejected(self):
        events = [
            TraceEvent(0.0, "bb_incumbent", 0, {"value": 5.0, "source": "solution"}),
            TraceEvent(1.0, "bb_incumbent", 0, {"value": 6.0, "source": "solution"}),
        ]
        report = audit_cip_trace(events)
        assert any(c.name == "incumbent_improving" for c in report.failures)

    def test_duplicate_node_rejected(self):
        events = [
            node_event(0, -1, 0, 0.0, 1.0, "branched", children=2),
            node_event(1, 0, 1, 1.0, 2.0, "infeasible"),
            node_event(1, 0, 1, 1.0, 2.0, "infeasible"),
        ]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("node_unique") for c in report.failures)

    def test_unknown_outcome_rejected(self):
        events = [node_event(0, -1, 0, 0.0, 1.0, "vanished")]
        report = audit_cip_trace(events)
        assert any(c.name.startswith("outcome_known") for c in report.failures)

    def test_fresh_root_resets_node_ids(self):
        # UG ParaSolvers build one CIPSolver per subproblem: a second root
        # restarts the id space, which must NOT count as a duplicate
        events = [
            node_event(0, -1, 0, 0.0, 1.0, "infeasible"),
            node_event(0, -1, 0, 2.0, 3.0, "infeasible"),
        ]
        report = audit_cip_trace(events)
        assert report.ok, report.summary()

    def test_optimal_claim_with_unresolved_node_rejected(self):
        events = [node_event(0, -1, 0, 0.0, 1.0, "unresolved")]
        result = SimpleNamespace(status=SimpleNamespace(value="optimal"),
                                 best_solution=None, objective=math.inf,
                                 dual_bound=1.0, stats=None)
        report = audit_cip_trace(events, result)
        assert any(c.name == "complete_claim_vs_unresolved" for c in report.failures)

    def test_mismatched_final_incumbent_rejected(self):
        tracer, res = traced_mip_solve()
        events = tracer.events()
        fake = SimpleNamespace(status=res.status, best_solution=res.best_solution,
                               objective=res.objective - 1.0, dual_bound=res.dual_bound,
                               stats=None)
        report = audit_cip_trace(events, fake)
        assert any(c.name == "final_incumbent_matches" for c in report.failures)

    def test_wrong_node_accounting_rejected(self):
        tracer, res = traced_mip_solve()
        fake_stats = SimpleNamespace(nodes_processed=res.stats.nodes_processed + 7,
                                     extra=res.stats.extra)
        fake = SimpleNamespace(status=res.status, best_solution=res.best_solution,
                               objective=res.objective, dual_bound=res.dual_bound,
                               stats=fake_stats)
        report = audit_cip_trace(tracer, fake)
        assert any(c.name == "nodes_processed_accounting" for c in report.failures)


class TestUGAudit:
    @pytest.fixture(scope="class")
    def run(self):
        # hc5 resists the layered presolve, so the ParaSolvers genuinely
        # branch and their kernels emit bb_node streams
        g = hypercube_instance(5, perturbed=False, seed=1)
        solver = ug(g.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim",
                    config=UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6,
                                    trace_enabled=True),
                    seed=7, wall_clock_limit=120.0)
        return solver.run()

    def test_genuine_run_accepted(self, run):
        assert run.solved
        report = audit_ug_run(run)
        assert report.ok, report.summary()
        names = {c.name for c in report.checks}
        # the strict accounting tier must have run on this fault-free run
        assert {"transferred_nodes_accounting", "nodes_generated_accounting"} <= names

    def test_per_rank_cip_audits_accepted(self, run):
        events = run.trace.events()
        ranks = sorted({e.rank for e in events if e.kind == "bb_node"})
        assert ranks  # the ParaSolvers traced their kernels
        for rank in ranks:
            report = audit_cip_trace(events, rank=rank)
            assert report.ok, report.summary()

    def test_untraced_run_is_reported_not_audited(self):
        g = hypercube_instance(3, perturbed=True, seed=1)
        res = ug(g.copy(), SteinerUserPlugins(), n_solvers=2, comm="sim",
                 config=UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6),
                 seed=1, wall_clock_limit=90.0).run()
        report = audit_ug_run(res)
        # result-level invariants still checked, accounting skipped
        assert report.ok
        assert not any(c.name == "transferred_nodes_accounting" for c in report.checks)

    def test_tampered_statistics_rejected(self, run):
        import dataclasses

        bad_stats = dataclasses.replace(run.stats, nodes_generated=run.stats.nodes_generated + 3)
        bad = dataclasses.replace(run, stats=bad_stats)
        report = audit_ug_run(bad)
        assert any(c.name == "nodes_generated_accounting" for c in report.failures)

    def test_tampered_incumbent_rejected(self, run):
        import dataclasses

        bad = dataclasses.replace(
            run, incumbent=dataclasses.replace(run.incumbent, value=run.incumbent.value + 2.0))
        report = audit_ug_run(bad)
        assert not report.ok


@pytest.mark.slow
class TestCheckpointRoundTrip:
    def test_crash_corrupt_restore_identical(self, tmp_path):
        g = hypercube_instance(5, perturbed=False, seed=1)
        path = tmp_path / "cp.json"
        cfg = UGConfig(time_limit=0.4, checkpoint_path=str(path),
                       checkpoint_interval=0.05, objective_epsilon=1 - 1e-6)
        r1 = ug(g.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim", config=cfg,
                seed=0, wall_clock_limit=90).run()
        assert not r1.solved  # interrupted mid-campaign, checkpoint written
        assert path.exists()

        # simulate a crash mid-write: truncate the primary checkpoint
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        cp = load_checkpoint(path)
        assert cp.recovered and cp.source == str(backup_path(path, 1))

        cfg2 = UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6, trace_enabled=True)
        r2 = ug(g.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim", config=cfg2,
                seed=0, wall_clock_limit=120).run(restart_from=str(path))
        assert r2.solved

        # the restored campaign's answer matches the sequential reference
        seq = SteinerSolver(g.copy(), seed=0).solve()
        assert r2.objective == pytest.approx(seq.cost)

        # and the restarted run itself withstands the tree audit
        report = audit_ug_run(r2)
        assert report.ok, report.summary()


class TestStandaloneCLI:
    """``python -m repro.verify`` over a dumped trace + bench artifact."""

    def test_trace_roundtrip_and_audit(self, tmp_path):
        from repro.obs.trace import load_trace_jsonl
        from repro.verify.__main__ import audit_trace_file, main

        tracer, res = traced_mip_solve()
        path = tracer.dump(tmp_path / "run.jsonl")
        events = load_trace_jsonl(path)
        assert [e.kind for e in events] == [e.kind for e in tracer.events()]
        reports = audit_trace_file(path)
        assert reports and all(r.ok for r in reports)
        assert main(["--trace", str(path)]) == 0

    def test_malformed_trace_line_raises(self, tmp_path):
        from repro.obs.trace import load_trace_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0.0,"kind":"step","rank":1,"data":{}}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_trace_jsonl(path)

    def test_tampered_trace_fails_cli(self, tmp_path):
        from repro.verify.__main__ import main

        tracer, res = traced_mip_solve()
        text = tracer.to_jsonl().replace('"outcome":"branched"', '"outcome":"vanished"')
        path = tmp_path / "tampered.jsonl"
        path.write_text(text)
        assert main(["--trace", str(path)]) == 1

    def test_bench_scan_accepts_and_rejects(self, tmp_path):
        import json

        from repro.verify.__main__ import check_bench_file, main

        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps({"rows": [{"primal": 10.0, "dual": 9.5}]}))
        assert check_bench_file(good).ok
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"rows": [{"primal": 10.0, "dual": 11.0}]}))
        report = check_bench_file(bad)
        assert not report.ok
        assert main(["--bench", str(bad)]) == 1
