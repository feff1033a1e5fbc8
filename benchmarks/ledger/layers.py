"""Per-layer metrics of one traced run, from its spans and the program's counters.

Every name computed here is listed in ``BENCHMARK.json``; a workload that
does not exercise a layer reports its metrics as 0.  README.md says which
end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import statistics

from benchmarks.ledger.spans import Recorder, summarize
from benchmarks.ledger.stats import ratio, tail_ms
from benchmarks.ledger.workloads import Section, Workload

LP_BACKENDS = ("lp.scipy_backend.solve_with_scipy", "lp.simplex.solve_with_simplex")
ENCODERS = ("ug.net.codec.encode_message", "ug.net.codec.encode_batch")
RUN = "ug.instantiation.UGSolver.run"
LC = (
    "ug.load_coordinator.LoadCoordinator.handle_message",
    "ug.load_coordinator.LoadCoordinator.on_tick",
)
RELAX = "sdp.admm.solve_sdp_relaxation"
REDUCE = "steiner.reductions.pipeline.reduce_graph"


def per_layer(
    w: Workload, sec: Section, untraced: Section, rec: Recorder, extra: dict[str, float]
) -> dict[str, float]:
    """``extra`` holds what the workload measured beside its timed section."""
    sm = summarize(rec)
    calls, total, layer = sm.calls, sm.total, sm.self_by_layer
    c = sec.counts
    n_ops = len(sec.ops)
    op_wall = sum(op.seconds for op in sec.ops)  # with concurrent clients: client-seconds

    def calls_of(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def total_of(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def plugin_share(method: str) -> float:
        return ratio(sum(t for n, t in total.items() if n.startswith(f"plugin.{method}.")), op_wall)

    def median_ms(tagged: bool) -> float:
        values = [op.seconds for op in sec.ops if op.tag.endswith("+hit") == tagged]
        return statistics.median(values) * 1e3 if values else 0.0

    latencies = [op.seconds for op in sec.ops]
    # workers are separate processes: the time they spent solving shows up in
    # the parent as UGSolver.run waiting, so take it out of the ug layer
    busy = rec.sums.get(RUN, 0.0)
    ranks = getattr(w, "n_solvers", 1)
    ug_self = max(0.0, layer.get("ug", 0.0) - busy / ranks)
    nodes = c.get("cip.nodes", 0.0)
    ug_nodes, ug_runs = c.get("ug.nodes", 0.0), c.get("ug.runs", 0.0)
    frames = c.get("net.frames", 0.0)
    hits, misses = c.get("daemon.cache_hits", 0.0), c.get("daemon.cache_misses", 0.0)
    rejected = sum(c.get(f"daemon.jobs_rejected_{k}", 0.0) for k in ("queue_full", "quota", "invalid"))
    # what the parent's spans account for, plus the workers' busy time they wait on
    attributed = sum(t for name, t in layer.items() if name not in ("client", "ug")) + ug_self + busy / ranks

    sdp_ops = {i for i, op in enumerate(sec.ops) if op.tag == "/sdp"}
    sdp_self = sum(
        sm.own[sid] for sid, name, _s, _e, _p, op in rec.spans
        if op in sdp_ops and rec.layer_of[name] == "sdp"
    )  # fmt: skip
    sdp_wall = sum(sec.ops[i].seconds for i in sdp_ops)

    # the same ops ran untraced just before: the difference is the wrappers' cost
    common = min(len(untraced.ops), n_ops)
    paired = [op.key for op in untraced.ops[:common]] == [op.key for op in sec.ops[:common]]
    if paired:
        slow = ratio(sum(op.seconds for op in sec.ops[:common]),
                     sum(op.seconds for op in untraced.ops[:common]))  # fmt: skip
    else:
        slow = ratio(statistics.median(latencies), statistics.median(op.seconds for op in untraced.ops))

    return {
        # serve
        "serve.submit_ms": sm.mean_ms("serve.client.ServeClient.submit"),
        "serve.journal_append_ms": sm.mean_ms("serve.journal.JobJournal.append"),
        "serve.journal_appends_per_job": ratio(calls_of("serve.journal.JobJournal.append"), n_ops),
        "serve.journal_bytes_per_job": ratio(c.get("serve.journal_bytes", 0.0), n_ops),
        "serve.fingerprint_ms": sm.mean_ms("serve.runner.instance_cache_key"),
        "serve.build_instance_ms": sm.mean_ms("serve.runner.build_instance"),
        "serve.queue_wait_ms": ratio(c.get("serve.queue_wait_s", 0.0), c.get("serve.ran_jobs", 0.0)) * 1e3,
        "serve.solve_job_ms": sm.mean_ms("serve.runner.solve_job"),
        "serve.verify_ms": sm.mean_ms("serve.runner.verify_certificate"),
        "serve.self_share": ratio(layer.get("serve", 0.0), op_wall),
        "serve.cache_hit_share": ratio(hits, hits + misses),
        "serve.cache_hit_ms": median_ms(True) if hits else 0.0,
        "serve.cache_miss_ms": median_ms(False) if hits + misses else 0.0,
        "serve.status_polls_per_job": ratio(calls_of("serve.client.ServeClient.status"), n_ops),
        "serve.op_p90_ms": tail_ms(latencies, 0.90) if hits + misses else 0.0,
        "serve.op_p99_ms": tail_ms(latencies, 0.99) if hits + misses else 0.0,
        "serve.rejected_share": ratio(rejected, c.get("daemon.jobs_submitted", 0.0)),
        # ug
        "ug.nodes_per_s": ratio(ug_nodes, c.get("ug.wall", 0.0)),
        "ug.rank_efficiency": extra.get("ug.rank_efficiency", 0.0),
        "ug.idle_ratio": ratio(c.get("ug.idle_ratio", 0.0), ug_runs),
        "ug.ramp_up_s": ratio(c.get("ug.ramp_up_s", 0.0), ug_runs),
        "ug.root_time_s": ratio(c.get("ug.root_time_s", 0.0), ug_runs),
        "ug.max_active_solvers": ratio(c.get("ug.max_active", 0.0), ug_runs),
        "ug.transferred_nodes_per_run": ratio(c.get("ug.transferred", 0.0), ug_runs),
        "ug.lc_handle_us": sm.mean_ms(LC[0]) * 1e3,
        "ug.lc_busy_share": ratio(total_of(*LC), total_of(RUN)),
        "ug.run_ms": sm.mean_ms(RUN),
        "ug.run_overhead_ms": ratio(total_of(RUN) - busy / ranks, calls_of(RUN)) * 1e3,
        "ug.self_share": ratio(ug_self, op_wall),
        "ug.worker_busy_share": ratio(busy / ranks, op_wall),
        "ug.warm_pool_reuse_share": ratio(c.get("ug.pool_reuses", 0.0), c.get("ug.ranks", 0.0)),
        "ug.time_to_opt_speedup": extra.get("ug.time_to_opt_speedup", 0.0),
        "ug.node_inflation": extra.get("ug.node_inflation", 0.0),
        # ug.net
        "ug.net.frames_per_node": ratio(frames, ug_nodes),
        "ug.net.bytes_per_node": ratio(c.get("net.bytes", 0.0), ug_nodes),
        "ug.net.encode_us_per_frame": ratio(total_of(*ENCODERS), calls_of(*ENCODERS)) * 1e6,
        "ug.net.decode_us_per_frame": sm.mean_ms("ug.net.codec.decode_frame") * 1e3,
        "ug.net.coalesced_share": ratio(c.get("net.coalesced", 0.0), frames),
        "ug.net.decode_errors": c.get("net.decode_errors", 0.0),
        "ug.net.self_share": ratio(layer.get("ug.net", 0.0), op_wall),
        "ug.net.warm_pool_s": extra.get("ug.net.warm_pool_s", 0.0),
        # cip
        "cip.nodes": nodes,
        "cip.nodes_per_s": ratio(nodes, op_wall) if nodes else 0.0,
        "cip.self_share": ratio(layer.get("cip", 0.0), op_wall),
        "cip.lp_solves_per_node": ratio(c.get("lp.solves", 0.0), nodes),
        "cip.cuts_per_node": ratio(c.get("cip.cuts", 0.0), nodes),
        "cip.sepa_share": plugin_share("separate"),
        "cip.heur_share": plugin_share("run"),
        "cip.prop_share": plugin_share("propagate"),
        "cip.presolve_share": ratio(total_of("cip.solver.CIPSolver.presolve"), op_wall),
        "cip.root_work_share": ratio(c.get("cip.root_work", 0.0), c.get("cip.total_work", 0.0)),
        # lp
        "lp.solves": c.get("lp.solves", 0.0),
        "lp.iterations": c.get("lp.iterations", 0.0),
        "lp.iterations_per_solve": ratio(c.get("lp.iterations", 0.0), c.get("lp.solves", 0.0)),
        "lp.solve_ms": ratio(total_of(*LP_BACKENDS), calls_of(*LP_BACKENDS)) * 1e3,
        "lp.share": ratio(layer.get("lp", 0.0), op_wall),
        "lp.models_built_per_node": ratio(calls_of("lp.model.LinearProgram.__init__"), nodes),
        "lp.rows_built_per_solve": ratio(calls_of("lp.model.LinearProgram.add_row"), calls_of(*LP_BACKENDS)),
        "lp.failovers": c.get("lp.failovers", 0.0),
        # steiner
        "steiner.reduce_share": ratio(total_of(REDUCE), op_wall),
        "steiner.reduce_ms_per_kedge": ratio(total_of(REDUCE) * 1e3, c.get("steiner.edges_in", 0.0) / 1e3),
        "steiner.edges_eliminated_share": (
            1.0 - ratio(c.get("steiner.edges_out", 0.0), c["steiner.edges_in"])
            if c.get("steiner.edges_in") else 0.0
        ),  # fmt: skip
        "steiner.dual_ascent_calls": float(calls_of("steiner.dual_ascent.dual_ascent")),
        "steiner.dual_ascent_ms": sm.mean_ms("steiner.dual_ascent.dual_ascent"),
        "steiner.shortest_path_calls": float(
            calls_of("steiner.shortest_paths.dijkstra", "steiner.shortest_paths.voronoi")
        ),
        "steiner.heuristic_ms": ratio(total.get("plugin.run.steiner", 0.0) * 1e3, n_ops),
        "steiner.self_share": ratio(layer.get("steiner", 0.0), op_wall),
        # sdp
        "sdp.relax_solves": float(calls_of(RELAX)),
        "sdp.admm_iterations_per_solve": ratio(rec.sums.get(RELAX, 0.0), calls_of(RELAX)),
        "sdp.relax_ms": sm.mean_ms(RELAX),
        "sdp.share": ratio(sdp_self, sdp_wall),
        # verify, instances, the observer itself
        "verify.check_ms": ratio(layer.get("verify", 0.0) * 1e3, n_ops),
        "verify.share": ratio(layer.get("verify", 0.0), op_wall),
        "verify.checks_failed": float(sum(1 for op in sec.ops if not op.ok)),
        "instances.generate_s": w.generate_s,
        "instances.bytes": float(w.input_bytes),
        "obs.wrapper_overhead_share": slow - 1.0,
        "obs.ug_trace_overhead_share": extra.get("obs.ug_trace_overhead_share", 0.0),
        "obs.unattributed_share": max(0.0, 1.0 - ratio(attributed, op_wall)),
        "obs.spans": float(len(rec.spans)),
        "obs.op_mean_ms": ratio(op_wall * 1e3, n_ops),
    }
