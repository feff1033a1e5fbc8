"""Recompute ``reference.json``: the optimum of every base instance.

Twins share their base's optimum, so one objective per base checks every
seed of the solver workloads; the serving streams differ by seed and are
committed for seeds 0 and 1.  Everything is solved sequentially, straight
through ``SteinerSolver`` / ``MISDPSolver`` with both approaches agreeing,
and certificate-checked before it is written.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.ledger import inputs, workloads
from repro.cip.result import SolveStatus
from repro.sdp.solver import MISDPSolver
from repro.steiner.solver import SteinerSolver
from repro.verify import check_misdp_result, check_steiner_tree

REFERENCE_SEEDS = (0, 1)


def stp_optimum(key: str, graph) -> float:
    sol = SteinerSolver(graph, seed=0).solve()
    report = check_steiner_tree(graph, sol.edges, sol.cost, original=True)
    if sol.status is not SolveStatus.OPTIMAL or not report.ok:
        raise RuntimeError(f"{key}: {sol.status.name}, certificate ok={report.ok}")
    return sol.cost


def misdp_optimum(key: str, inst) -> float:
    values = []
    for approach in ("sdp", "lp"):
        sol = MISDPSolver(inst, approach=approach, seed=0).solve(node_limit=workloads.MISDP_NODE_LIMIT)
        closed = sol.status in (SolveStatus.OPTIMAL, SolveStatus.GAP_LIMIT)
        if not closed or not check_misdp_result(inst, sol).ok:
            raise RuntimeError(f"{key}/{approach}: {sol.status.name}")
        values.append(sol.objective)
    if not workloads.agrees(values[0], values[1], 2e-4):
        raise RuntimeError(f"{key}: approaches disagree {values}")
    return round(values[1], 9)  # the lp approach closes the gap exactly more often


def write_reference() -> int:
    par_base = ((workloads.PAR_BASE[0], (workloads.PAR_BASE[1],)),)
    stp_pool = workloads.BNB_POOL + workloads.PRESOLVE_POOL + par_base
    doc = {
        "stp": {k: stp_optimum(k, g) for k, g in inputs.build_pool(stp_pool, inputs.STP_FAMILIES)},
        "misdp": {
            k: misdp_optimum(k, m)
            for k, m in inputs.build_pool(workloads.MISDP_POOL, inputs.MISDP_FAMILIES)
        },
        "serve": {
            str(seed): [stp_optimum(k, g) for k, g in inputs.serve_stream(seed, workloads.SERVE_STREAM)]
            for seed in REFERENCE_SEEDS
        },
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True).replace('},"', '},\n"') + "\n")
    print(f"wrote {path}: {len(doc['stp'])} stp, {len(doc['misdp'])} misdp, "
          f"{sum(len(v) for v in doc['serve'].values())} serve optima")  # fmt: skip
    return 0
