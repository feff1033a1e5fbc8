"""Table 4 — ug[MISDP, C++11] vs sequential SCIP-SDP over the CBLIB suite.

Paper shape to reproduce (§4.2, Table 4): per family (TTD / CLS / Mk-P)
and overall, the number of solved instances and the shifted geometric
mean (shift 10) of solve times for the sequential solver and the
UG-parallelized solver at 1..32 threads. The shapes that must hold:

* 1-thread ug is *slower* than the sequential base solver
  (parallelization overhead),
* CLS gains dramatically at 2 threads (the first LP-based setting enters
  the racing portfolio — these instances prefer the LP approach),
* Mk-P profits least (the paper's SDP-bound combinatorial family),
* overall the parallel solver overtakes the sequential one at moderate
  thread counts.

Sequential and simulated-parallel times are both read off the
deterministic work clock (virtual seconds): the sequential row sums its
solver's node work, and a parallel row is the virtual time at which its
last ParaSolver step ends (the end of the last ``work`` interval in the
run's trace).  The LoadCoordinator's ``computing_time`` is not that clock:
a step's messages carry the time the step started, so it ends before the
last step's work is paid for.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import emit_bench_json, print_table
from repro.apps.misdp_plugins import MISDPUserPlugins
from repro.cip.params import ParamSet
from repro.obs.metrics import busy_timelines
from repro.sdp.instances import cblib_collection
from repro.sdp.solver import MISDPSolver
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.utils import shifted_geometric_mean
from repro.verify import check_misdp_result, check_misdp_solution

THREAD_COUNTS = [1, 2, 4, 8]
TIME_BUDGET = 6.0  # virtual seconds per instance
NODE_BUDGET = 250
FAMILIES = ("TTD", "CLS", "Mk-P")


def _sequential_run(misdp) -> tuple[bool, float]:
    solver = MISDPSolver(misdp, approach="sdp", seed=0)
    sol = solver.solve(node_limit=NODE_BUDGET, time_limit=600)
    check_misdp_result(misdp, sol).raise_if_failed()
    solved = sol.status.value in ("optimal", "gap_limit")
    time = min(sol.stats.total_work, TIME_BUDGET) if sol.stats else TIME_BUDGET
    return solved, (time if solved else TIME_BUDGET)


def _parallel_run(misdp, n: int) -> tuple[bool, float]:
    cfg = UGConfig(
        ramp_up="racing" if n >= 2 else "normal",
        racing_deadline=0.05,
        racing_open_node_threshold=25,
        time_limit=TIME_BUDGET,
        trace_enabled=True,
    )
    solver = ug(misdp, MISDPUserPlugins(), n_solvers=n, comm="sim",
                params=ParamSet(), config=cfg, seed=0, wall_clock_limit=60.0)
    res = solver.run()
    if res.incumbent is not None and res.incumbent.payload is not None:
        # incumbents ship the raw y vector: re-check feasibility by a
        # fresh eigenvalue computation and recompute the objective (the
        # UG layer minimises -b'y, so negate back to the sup sense)
        check_misdp_solution(
            misdp, np.asarray(res.incumbent.payload, dtype=float),
            claimed_value=-res.incumbent.value,
        ).raise_if_failed()
    end = max((ivs[-1][1] for ivs in busy_timelines(res.trace).values()), default=0.0)
    return res.solved, (min(end, TIME_BUDGET) if res.solved else TIME_BUDGET)


def _run_table4() -> dict:
    suite = cblib_collection(n_ttd=3, n_cls=3, n_mkp=3, seed=0)
    rows: dict[str, dict] = {}

    def aggregate(results: list[tuple[str, bool, float]]) -> dict:
        agg: dict[str, tuple[int, float]] = {}
        for fam in FAMILIES + ("Total",):
            sub = [r for r in results if fam == "Total" or r[0] == fam]
            solved = sum(1 for _f, s, _t in sub if s)
            times = [t for _f, _s, t in sub]
            agg[fam] = (solved, shifted_geometric_mean(times))
        return agg

    seq_results = []
    for fam, name, misdp in suite:
        solved, t = _sequential_run(misdp)
        seq_results.append((fam, solved, t))
    rows["SCIP-SDP (seq)"] = aggregate(seq_results)

    for n in THREAD_COUNTS:
        par_results = []
        for fam, name, misdp in suite:
            solved, t = _parallel_run(misdp, n)
            par_results.append((fam, solved, t))
        rows[f"ug[MISDP] {n} thr."] = aggregate(par_results)
    return rows


@pytest.mark.benchmark(group="table4")
def test_table4_sdp_cblib(benchmark):
    rows = benchmark.pedantic(_run_table4, rounds=1, iterations=1)
    header = ["solver"]
    for fam in FAMILIES + ("Total",):
        header += [f"{fam} solved", f"{fam} time"]
    table = []
    for solver_name, agg in rows.items():
        row = [solver_name]
        for fam in FAMILIES + ("Total",):
            solved, t = agg[fam]
            row += [solved, t]
        table.append(row)
    print_table("Table 4 analogue: CBLIB suite (9 instances, shifted geomean times)", header, table)
    emit_bench_json("table4", {"header": header, "rows": table, "aggregates": rows})

    seq = rows["SCIP-SDP (seq)"]
    one = rows["ug[MISDP] 1 thr."]
    best_parallel_time = min(agg["Total"][1] for name, agg in rows.items() if name != "SCIP-SDP (seq)")
    # shape 1: single-threaded ug does not beat the sequential solver
    assert one["Total"][1] >= seq["Total"][1] * 0.9
    # shape 2: some parallel configuration beats single-threaded ug clearly
    assert best_parallel_time < one["Total"][1]
    # shape 3: everything still gets solved at the largest thread count
    assert rows[f"ug[MISDP] {THREAD_COUNTS[-1]} thr."]["Total"][0] >= seq["Total"][0] - 1
