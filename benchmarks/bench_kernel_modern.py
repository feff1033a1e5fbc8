"""Modern-kernel ablation: conflict analysis + orbital fixing + restarts.

Solves the single-commodity flow MIP (:mod:`repro.steiner.milp`) of
small STP instances twice — features off (classical ParamSet) vs the
``modern`` emphasis preset — and reports the per-family median ratio of
branch-and-bound nodes.  The headline series is the parity-terminal
3-cube, whose coordinate-permutation automorphisms survive into the flow
formulation: orbital fixing plus learned conflicts must cut the node
count at least in half (the bench asserts a median ratio of at most
:data:`MAX_HYPERCUBE_RATIO`; the reference run measured 0.271).  The breadth families (orlib_random, pace,
grid_holes) carry no such symmetry and are reported unaggregated —
they exist so the preset is exercised on asymmetric shapes too.

Every feature-on solve is audited (``audit_cip_trace``) and its tree
certificate-checked (``check_steiner_tree``) before a row is written —
a node-count win from an unsound reduction must never become a baseline.
One extra run forces an in-solve restart (``restart_min_nodes=10``,
``restart_node_factor=1.5``) and requires the audit's
``restart_accounting`` check to pass across the tree reset.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.common import emit_bench_json, print_table
from repro.cip.mip import make_mip_solver
from repro.cip.params import ParamSet, emphasis
from repro.instances import generate_family
from repro.instances.stp import hypercube
from repro.obs.trace import Tracer
from repro.steiner.milp import stp_flow_mip
from repro.verify import audit_cip_trace
from repro.verify.differential import brute_force_steiner
from repro.verify.steiner import check_steiner_tree

PERMUTATION_SEEDS = (0, 1, 2, 3, 4)
MAX_HYPERCUBE_RATIO = 0.5

BREADTH_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("orlib_random", {"n": 8, "m": 13, "n_terminals": 3}),
    ("pace", {"n": 9, "n_chords": 4, "n_terminals": 4}),
    ("grid_holes", {"rows": 2, "cols": 4, "n_holes": 1, "n_terminals": 3}),
)


def traced_flow_solve(graph, params):
    """Flow-MIP solve with a tracer attached; returns (result, edges, tracer)."""
    fm = stp_flow_mip(graph)
    solver = make_mip_solver(fm.model, params)
    solver.tracer = Tracer(capacity=200000)
    result = solver.solve()
    edges = fm.tree_edges(result.best_solution.x)
    return result, edges, solver.tracer


def ablation_row(name, family, graph, seed):
    """One off-vs-modern pair on the same instance; both exact, on audited."""
    optimum = brute_force_steiner(graph) + graph.fixed_cost
    off_params = ParamSet(permutation_seed=seed)
    on_params = emphasis("modern").with_changes(permutation_seed=seed)
    off, _, _ = traced_flow_solve(graph, off_params)
    on, edges, tracer = traced_flow_solve(graph, on_params)
    audit = audit_cip_trace(tracer, on)
    cert = check_steiner_tree(graph, edges, on.objective)
    row = {
        "instance": name,
        "family": family,
        "seed": seed,
        "optimum": optimum,
        "off_nodes": off.nodes_processed,
        "on_nodes": on.nodes_processed,
        "node_ratio": on.nodes_processed / max(off.nodes_processed, 1),
        "off_exact": abs(off.objective - optimum) <= 1e-6,
        "on_exact": abs(on.objective - optimum) <= 1e-6,
        "audited": bool(audit.ok and not audit.skipped),
        "certified": bool(cert.ok),
        "conflicts": int(on.stats.extra.get("conflicts_learned", 0)),
        "orbital_fixings": int(on.stats.extra.get("orbital_fixings", 0)),
    }
    return row


def restart_probe():
    """Force an in-solve restart and hold it to the audit's accounting."""
    g = hypercube(dim=3, parity_terminals=True, perturbed=False, seed=0)
    optimum = brute_force_steiner(g) + g.fixed_cost
    params = emphasis("modern").with_changes(restart_min_nodes=10, restart_node_factor=1.5)
    result, edges, tracer = traced_flow_solve(g, params)
    audit = audit_cip_trace(tracer, result)
    accounting = next((c for c in audit.checks if c.name == "restart_accounting"), None)
    return {
        "restarts": int(result.stats.extra.get("restarts", 0)),
        "nodes": result.nodes_processed,
        "exact": abs(result.objective - optimum) <= 1e-6,
        "audited": bool(audit.ok and not audit.skipped),
        "restart_accounting_ok": bool(accounting is not None and accounting.ok),
        "certified": bool(check_steiner_tree(g, edges, result.objective).ok),
    }


def run_kernel_modern_ablation(permutation_seeds=PERMUTATION_SEEDS) -> dict:
    rows = []
    for seed in permutation_seeds:
        g = hypercube(dim=3, parity_terminals=True, perturbed=False, seed=0)
        rows.append(ablation_row(f"hc3u-parity-p{seed}", "hypercube", g, seed))
    for family, config in BREADTH_CONFIGS:
        gi = generate_family(family, seed=0, configs=(config,))[0]
        rows.append(ablation_row(gi.name, family, gi.instance, 0))
    ratios: dict[str, float] = {}
    for family in {r["family"] for r in rows}:
        ratios[family] = statistics.median(
            r["node_ratio"] for r in rows if r["family"] == family
        )
    return {
        "rows": rows,
        "median_ratio_by_family": ratios,
        "hypercube_median_ratio": ratios["hypercube"],
        "all_exact": all(r["off_exact"] and r["on_exact"] for r in rows),
        "all_certified": all(r["certified"] for r in rows),
        "all_audited": all(r["audited"] for r in rows),
        "restart_probe": restart_probe(),
    }


@pytest.mark.benchmark(group="kernel_modern")
def test_kernel_modern_ablation(benchmark):
    t0 = time.time()
    out = benchmark.pedantic(run_kernel_modern_ablation, rounds=1, iterations=1)
    print_table(
        "Modern kernel ablation: B&B nodes, features off vs `modern` preset",
        ["instance", "off", "modern", "ratio", "conflicts", "orb.fix", "audited"],
        [
            [r["instance"], r["off_nodes"], r["on_nodes"], f"{r['node_ratio']:.2f}",
             r["conflicts"], r["orbital_fixings"], "yes" if r["audited"] else "NO"]
            for r in out["rows"]
        ],
    )
    probe = out["restart_probe"]
    print(
        f"[bench] restart probe: {probe['restarts']} restart(s) over {probe['nodes']} nodes, "
        f"accounting {'ok' if probe['restart_accounting_ok'] else 'FAILED'}"
    )
    assert out["all_exact"], "an ablation arm missed the brute-force optimum"
    assert out["all_certified"] and out["all_audited"]
    assert probe["exact"] and probe["certified"] and probe["audited"]
    assert out["hypercube_median_ratio"] <= MAX_HYPERCUBE_RATIO, out["hypercube_median_ratio"]
    assert probe["restarts"] >= 1 and probe["restart_accounting_ok"], probe
    emit_bench_json("kernel_modern", {"wall_seconds": time.time() - t0, **out})
