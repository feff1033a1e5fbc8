"""Tree auditors — replay a finished solve from its ``repro.obs`` trace.

The CIP kernel emits one ``bb_node`` event per popped node (how it was
resolved) and one ``bb_incumbent`` event per accepted primal bound; the
UG layer emits ``assign``/``racing_start``/``incumbent``/``solution``/
``step`` events. From those streams alone — without trusting any solver
state — the auditors assert the branch-and-bound invariants:

* every popped node is branched, pruned by a bound that beats the
  cutoff, infeasible, resolved by a feasible solution, or explicitly
  forfeited (``unresolved``);
* node bounds never decrease along tree edges or within a node;
* the incumbent sequence is strictly improving and never worse than any
  solution the trace reports;
* a claimed OPTIMAL/solved status admits no unresolved node;
* UG node accounting is consistent with :class:`~repro.ug.statistics.UGStatistics`.

An overflowing ring buffer (``Tracer.dropped > 0``) voids the audit —
invariants cannot be certified from a partial stream, so the auditors
*refuse* (one failing ``trace_complete`` check) rather than guess.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.obs.trace import TraceEvent, Tracer
from repro.verify.result import CheckReport

BB_OUTCOMES = frozenset({"branched", "pruned_bound", "infeasible", "solution", "unresolved"})


def _as_events(trace: Tracer | Iterable[TraceEvent]) -> tuple[list[TraceEvent], int]:
    if isinstance(trace, Tracer):
        return trace.events(), trace.dropped
    return list(trace), 0


def audit_cip_trace(
    trace: Tracer | Iterable[TraceEvent],
    result: Any = None,
    *,
    rank: int | None = None,
    tol: float = 1e-6,
    dropped: int | None = None,
) -> CheckReport:
    """Audit the ``bb_node``/``bb_incumbent`` stream of one CIP solve.

    ``result`` (a :class:`~repro.cip.result.SolveResult`) tightens the
    audit with final-state cross-checks; ``rank`` restricts the audit to
    one solver's events inside a shared UG trace. ``dropped`` overrides
    the overflow count when auditing a plain event list.
    """
    events, trace_dropped = _as_events(trace)
    if dropped is not None:
        trace_dropped = dropped
    report = CheckReport(subject="cip-tree" if rank is None else f"cip-tree[rank {rank}]")
    if not report.require(
        "trace_complete",
        trace_dropped == 0,
        f"ring buffer overflowed: {trace_dropped} events dropped (Tracer.dropped="
        f"{trace_dropped}, mirrored on UGResult.trace_dropped / "
        f"stats.trace_events_dropped); invariants cannot be certified from a "
        f"partial stream — raise UGConfig.trace_capacity; audit void",
    ):
        return report
    if rank is not None:
        events = [e for e in events if e.rank == rank]
    nodes = [e for e in events if e.kind == "bb_node"]
    incumbents = [e for e in events if e.kind == "bb_incumbent"]
    if not nodes and not incumbents:
        return report.mark_skipped("no bb events in trace (tracer disabled or solve untraced)")

    # incumbent sequence: strictly improving, per event timestamp order
    inc_value = math.inf
    inc_ok = True
    for e in incumbents:
        v = float(e.data["value"])
        if v >= inc_value + tol:
            inc_ok = False
            report.add("incumbent_improving", False,
                       f"incumbent went from {inc_value:.9g} to {v:.9g} at t={e.t:.6g}")
            break
        inc_value = min(inc_value, v)
    if inc_ok:
        report.add("incumbent_improving", True, count=len(incumbents))

    bound_out: dict[int, float] = {}  # node id -> final bound at resolution
    n_unresolved = 0
    n_processed = 0
    seen: set[int] = set()
    # replay in emission order (the tracer preserves it): timestamps alone
    # cannot order an incumbent found *during* a node against that node
    inc_running = math.inf
    for e in events:
        if e.kind == "bb_incumbent":
            inc_running = min(inc_running, float(e.data["value"]))
            continue
        if e.kind != "bb_node":
            continue
        d = e.data
        nid = int(d["node"])
        if nid == 0 and int(d["depth"]) == 0 and nid in seen:
            # a fresh root: the solver started a new tree (UG ParaSolvers
            # build one CIPSolver per received subproblem) — node ids and
            # parent bounds reset, the incumbent carries across
            seen.clear()
            bound_out.clear()
        outcome = str(d["outcome"])
        b_in, b_out = float(d["bound_in"]), float(d["bound"])
        scale = max(1.0, abs(b_out) if math.isfinite(b_out) else 1.0)
        if not report.require(f"outcome_known[{nid}]", outcome in BB_OUTCOMES, f"outcome {outcome!r}"):
            continue
        if nid in seen:
            report.add(f"node_unique[{nid}]", False, "node resolved twice")
            continue
        seen.add(nid)
        if b_out < b_in - tol * scale:
            report.add(f"bound_monotone[{nid}]", False,
                       f"bound decreased from {b_in:.9g} to {b_out:.9g}")
        parent = int(d["parent"])
        if parent in bound_out and b_in < bound_out[parent] - tol * scale:
            report.add(f"parent_bound[{nid}]", False,
                       f"child bound_in {b_in:.9g} below parent bound {bound_out[parent]:.9g}")
        if outcome == "pruned_bound":
            cutoff = float(d["cutoff"])
            if not (b_out >= cutoff - tol * scale):
                report.add(f"prune_justified[{nid}]", False,
                           f"pruned with bound {b_out:.9g} below cutoff {cutoff:.9g}")
            if math.isfinite(inc_running) and cutoff > inc_running + tol * scale:
                report.add(f"cutoff_vs_incumbent[{nid}]", False,
                           f"cutoff {cutoff:.9g} above known incumbent {inc_running:.9g}")
        elif outcome == "solution":
            value = float(d.get("value", math.nan))
            if not (value >= b_out - tol * max(1.0, abs(value))):
                report.add(f"solution_respects_bound[{nid}]", False,
                           f"feasible value {value:.9g} below node bound {b_out:.9g}")
        elif outcome == "unresolved":
            n_unresolved += 1
        if outcome in ("branched", "solution", "infeasible", "unresolved") or d.get("processed"):
            bound_out[nid] = b_out
        if d.get("processed"):
            n_processed += 1
    report.add("nodes_audited", True, total=len(nodes), processed=n_processed,
               unresolved=n_unresolved)

    if result is not None:
        status = getattr(result.status, "value", str(result.status))
        if status in ("optimal", "infeasible"):
            report.add("complete_claim_vs_unresolved", n_unresolved == 0,
                       f"status {status} claimed with {n_unresolved} unresolved nodes")
        if incumbents and result.best_solution is not None:
            final = float(incumbents[-1].data["value"])
            scale = max(1.0, abs(final))
            report.add("final_incumbent_matches", abs(final - result.objective) <= tol * scale,
                       f"trace incumbent {final:.9g} vs result {result.objective:.9g}")
        if result.best_solution is not None and math.isfinite(result.dual_bound):
            scale = max(1.0, abs(result.objective))
            report.add("weak_duality", result.dual_bound <= result.objective + tol * scale,
                       f"dual {result.dual_bound:.9g} above primal {result.objective:.9g}")
        stats = getattr(result, "stats", None)
        if stats is not None:
            report.add("nodes_processed_accounting", n_processed == stats.nodes_processed,
                       f"trace saw {n_processed} processed nodes, stats say {stats.nodes_processed}")
            traced_unresolved = int(stats.extra.get("unresolved_nodes", 0))
            report.add("unresolved_accounting", n_unresolved == traced_unresolved,
                       f"trace saw {n_unresolved}, stats say {traced_unresolved}")
    return report


def audit_ug_run(result: Any, *, tol: float = 1e-6) -> CheckReport:
    """Audit a :class:`~repro.ug.instantiation.UGResult` against its trace.

    Fault-free runs get strict node accounting (every transfer and every
    processed node reconciled with :class:`UGStatistics`); runs with
    injected faults or dead solvers keep only the sound-by-construction
    invariants (incumbent monotonicity, weak duality, solved-claim gap).
    """
    report = CheckReport(subject=f"ug-audit[{getattr(result, 'name', '?')}]")
    stats = result.stats
    primal = result.objective
    scale = max(1.0, abs(primal) if math.isfinite(primal) else 1.0)

    if math.isfinite(result.dual_bound) and math.isfinite(primal):
        report.add("weak_duality", result.dual_bound <= primal + tol * scale,
                   f"dual {result.dual_bound:.9g} above primal {primal:.9g}")
    if result.solved:
        report.add("solved_has_incumbent", result.incumbent is not None)
        gap_tol = max(tol * scale, 1.0 - 1e-9)  # integral objectives close within one unit
        report.add("solved_gap_closed",
                   math.isfinite(result.dual_bound) and primal - result.dual_bound <= gap_tol,
                   f"solved with dual {result.dual_bound:.9g} vs primal {primal:.9g}")
    report.add("primal_final_matches", stats.primal_final == primal
               or abs(stats.primal_final - primal) <= tol * scale,
               f"stats.primal_final {stats.primal_final:.9g} vs incumbent {primal:.9g}")

    trace = result.trace
    if trace is None or (not trace.enabled and len(trace) == 0):
        return report.mark_skipped("run was not traced") if not report.checks else report
    if not report.require(
        "trace_complete",
        trace.dropped == 0,
        f"ring buffer overflowed: {trace.dropped} events dropped (Tracer.dropped="
        f"{trace.dropped}, mirrored on UGResult.trace_dropped); raise "
        f"UGConfig.trace_capacity; accounting audit void",
    ):
        return report
    events = trace.events()

    inc_events = [e for e in events if e.kind == "incumbent"]
    inc_ok = True
    prev = math.inf
    for e in inc_events:
        v = float(e.data["value"])
        if v >= prev + tol:
            inc_ok = False
            report.add("incumbent_improving", False,
                       f"LC incumbent went from {prev:.9g} to {v:.9g} at t={e.t:.6g}")
            break
        prev = min(prev, v)
    if inc_ok:
        report.add("incumbent_improving", True, count=len(inc_events))
    if inc_events and result.incumbent is not None:
        final = float(inc_events[-1].data["value"])
        report.add("final_incumbent_matches", abs(final - primal) <= tol * scale,
                   f"trace incumbent {final:.9g} vs result {primal:.9g}")

    sol_values = [float(e.data["value"]) for e in events if e.kind == "solution"]
    if sol_values and result.incumbent is not None:
        best_seen = min(sol_values)
        report.add("incumbent_not_worse_than_solutions", primal <= best_seen + tol * scale,
                   f"incumbent {primal:.9g} worse than reported solution {best_seen:.9g}")

    # elastic-membership reconciliation (repro.ug.cluster): graceful churn
    # — runtime joins and drains — is NOT a fault, and its trace events
    # are emitted by the LoadCoordinator in lockstep with the statistics, so
    # these checks stay sound even on otherwise-faulty runs
    joins = [e for e in events if e.kind == "rank_join"]
    drained = [e for e in events if e.kind == "rank_drained"]
    if joins or drained or stats.ranks_joined or stats.ranks_drained:
        report.add("ranks_joined_accounting", len(joins) == stats.ranks_joined,
                   f"trace saw {len(joins)} joins, stats say {stats.ranks_joined}")
        report.add("ranks_drained_accounting", len(drained) == stats.ranks_drained,
                   f"trace saw {len(drained)} drains, stats say {stats.ranks_drained}")
        n_returned = sum(1 for e in drained if e.data.get("requeued"))
        report.add("nodes_returned_accounting", n_returned == stats.nodes_returned,
                   f"trace saw {n_returned} returned nodes, stats say {stats.nodes_returned}")
        # a drained rank is gone: nothing may be assigned to it afterwards
        drained_at = {e.rank: e.t for e in drained}
        late = [e for e in events
                if e.kind == "assign" and e.rank in drained_at and e.t > drained_at[e.rank]]
        report.add("no_assign_after_drain", not late,
                   "" if not late else
                   f"rank {late[0].rank} assigned at t={late[0].t:.6g} after draining")

    faulty = (
        stats.solver_failures > 0
        or stats.step_failures > 0
        or stats.faults_injected > 0
        or stats.messages_dropped > 0
        or any(e.kind == "crash" for e in events)
    )
    if faulty:
        report.add("fault_tolerant_run", True,
                   "accounting audit skipped: faults observed", strict=False)
        return report

    n_transfers = sum(1 for e in events if e.kind in ("assign", "racing_start"))
    report.add("transferred_nodes_accounting", n_transfers == stats.transferred_nodes,
               f"trace saw {n_transfers} transfers, stats say {stats.transferred_nodes}")

    # each step event carries its per-step node count; the per-rank sums
    # must reconcile with the cumulative totals solvers report on
    # STATUS/TERMINATED, which is what UGStatistics.nodes_generated sums.
    # Under the ProcessEngine the steps happen inside worker processes
    # whose tracers cannot feed the parent's ring buffer: the parent
    # trace then has no step events at all while nodes were genuinely
    # processed — the LC-side checks above still hold, but node-level
    # reconciliation is not available.
    step_events = [e for e in events if e.kind == "step"]
    if not step_events and stats.nodes_generated > 0:
        report.add("remote_solver_steps", True,
                   "solver steps ran in worker processes; node accounting skipped",
                   strict=False)
        return report
    traced_nodes = sum(int(e.data.get("nodes", 0)) for e in step_events)
    report.add("nodes_generated_accounting", traced_nodes == stats.nodes_generated,
               f"trace saw {traced_nodes} processed nodes, stats say {stats.nodes_generated}")
    return report
