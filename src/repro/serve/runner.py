"""Job execution: build the instance, run ug[...], certify the answer.

This module is deliberately stateless — the daemon calls it from worker
threads, the verified-result cache calls :func:`verify_certificate` on
insert, and the crash-recovery tests call it *offline* (rebuilding the
instance from the journal's submitted record) to prove that no served
answer lacks a passing ``repro.verify`` certificate.

The degradation contract lives in :func:`outcome_from_result`: a run
that ends unsolved (deadline, node budget, virtual time limit) is served
as ``DEGRADED`` with the incumbent *and* the dual bound, and only after
the certificate check passed; anything unverifiable becomes ``FAILED``
with the checker's reason — never a silently served answer.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable

from repro.obs.trace import Tracer
from repro.serve.jobs import InvalidJobError, JobOutcome, JobRequest, JobState
from repro.ug.config import UGConfig
from repro.ug.instantiation import UGResult, ug
from repro.ug.statistics import _gap
from repro.verify.result import CheckReport

# -- instance construction ------------------------------------------------------

_STP_GENERATORS: dict[str, Callable[..., Any]] = {}
_MISDP_GENERATORS: dict[str, Callable[..., Any]] = {}


def _stp_generators() -> dict[str, Callable[..., Any]]:
    if not _STP_GENERATORS:
        from repro.steiner.instances import (
            grid_instance,
            hypercube_instance,
            random_instance,
        )

        _STP_GENERATORS.update(
            hypercube=hypercube_instance, grid=grid_instance, random=random_instance
        )
    return _STP_GENERATORS


def _misdp_generators() -> dict[str, Callable[..., Any]]:
    if not _MISDP_GENERATORS:
        from repro.sdp.instances import (
            cardinality_least_squares,
            min_k_partitioning,
            truss_topology_design,
        )

        _MISDP_GENERATORS.update(
            truss=truss_topology_design,
            cardls=cardinality_least_squares,
            partition=min_k_partitioning,
        )
    return _MISDP_GENERATORS


def build_instance(request: JobRequest) -> Any:
    """Turn a request payload into a solver-ready instance object."""
    payload = request.payload
    if request.kind == "stp":
        if "stp" in payload:
            from repro.steiner.stp_io import parse_stp

            try:
                return parse_stp(str(payload["stp"]))
            except Exception as exc:
                raise InvalidJobError(f"cannot parse STP payload: {exc}") from exc
        generators = _stp_generators()
    else:
        generators = _misdp_generators()
    name = str(payload.get("generator", ""))
    gen = generators.get(name)
    if gen is None:
        raise InvalidJobError(
            f"unknown {request.kind} generator {name!r}; choose from {sorted(generators)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise InvalidJobError("generator params must be an object")
    try:
        return gen(**params)
    except TypeError as exc:
        raise InvalidJobError(f"bad params for generator {name!r}: {exc}") from exc
    except Exception as exc:
        raise InvalidJobError(f"generator {name!r} failed: {exc}") from exc


# -- instance fingerprinting ----------------------------------------------------

_CANON_BUDGET = 4000  # refinement steps for canonical labeling; exhaustion falls back
_COST_ROUND = 9


def stp_canonical_labeling(instance: Any, budget: int = _CANON_BUDGET):
    """Canonical (certificate, vertex labeling) of an STP instance, or None.

    Vertices are colored by aliveness + terminal flag, edges labeled by
    the sorted multiset of parallel-edge costs, and the colored graph is
    run through :func:`repro.cip.symmetry.canonical_form`.  The
    certificate is invariant under vertex relabeling, so two isomorphic
    instances fingerprint equal; the labeling lets the daemon translate
    a cached solution into the query instance's own edge ids.  Budget
    exhaustion returns None and the caller falls back to the structural
    (labeling-sensitive) fingerprint.
    """
    from repro.cip.symmetry import canonical_form, colored_graph

    n = int(instance.n)
    colors = []
    for v in range(n):
        if not bool(instance.vertex_alive[v]):
            colors.append(("dead",))
        else:
            colors.append(("v", bool(instance.terminal_mask[v])))
    pair_costs: dict[tuple[int, int], list[float]] = {}
    for e in instance.edges:
        if not e.alive:
            continue
        key = (min(int(e.u), int(e.v)), max(int(e.u), int(e.v)))
        pair_costs.setdefault(key, []).append(round(float(e.cost), _COST_ROUND))
    edges = [(u, v, tuple(sorted(costs))) for (u, v), costs in pair_costs.items()]
    return canonical_form(colored_graph(n, colors, edges), budget=budget)


def stp_solution_to_canonical(
    instance: Any, labeling: list[int], edge_ids: Any
) -> list[list[Any]]:
    """Express a solution's edge ids as relabeling-invariant triples."""
    pos = {v: i for i, v in enumerate(labeling)}
    triples = []
    for eid in edge_ids:
        e = instance.edges[int(eid)]
        cu, cv = pos[int(e.u)], pos[int(e.v)]
        triples.append([min(cu, cv), max(cu, cv), round(float(e.cost), _COST_ROUND)])
    return sorted(triples)


def stp_solution_from_canonical(
    instance: Any, labeling: list[int], triples: Any
) -> list[int] | None:
    """Map canonical triples onto this instance's edge ids, or None.

    Parallel edges with equal cost are interchangeable (same endpoints,
    same cost), so any one-to-one matching is valid; an unmatchable
    triple means the instances were not isomorphic after all and the
    caller must treat the lookup as a miss.
    """
    pos = {v: i for i, v in enumerate(labeling)}
    buckets: dict[tuple[int, int, float], list[int]] = {}
    for eid, e in enumerate(instance.edges):
        if not e.alive:
            continue
        cu, cv = pos[int(e.u)], pos[int(e.v)]
        key = (min(cu, cv), max(cu, cv), round(float(e.cost), _COST_ROUND))
        buckets.setdefault(key, []).append(eid)
    out = []
    for t in triples:
        key = (int(t[0]), int(t[1]), round(float(t[2]), _COST_ROUND))
        bucket = buckets.get(key)
        if not bucket:
            return None
        out.append(bucket.pop())
    return out


def instance_cache_key(kind: str, instance: Any) -> tuple[str, list[int] | None]:
    """Fingerprint plus (for STP) the canonical labeling used to build it.

    The labeling is ``None`` for MISDP instances and when the canonical
    search exhausted its budget — in both cases the fingerprint is the
    structural one and cached solutions need no translation.
    """
    if kind == "stp":
        canon = stp_canonical_labeling(instance)
        if canon is not None:
            cert, labeling = canon
            digest = hashlib.sha256(b"stp-canon:" + cert).hexdigest()
            return digest, list(labeling)
    return instance_fingerprint(kind, instance, _structural=True), None


def instance_fingerprint(kind: str, instance: Any, _structural: bool = False) -> str:
    """Canonical content hash of a parsed instance.

    Two requests describing the same mathematical instance — whether
    shipped as literal STP text or as a generator spec — hash equal, so
    the cache serves repeat queries instantly.  For STP the hash is
    additionally *isomorphism-invariant*: the instance is canonically
    labeled first (:func:`stp_canonical_labeling`), so a vertex-relabeled
    copy of a cached instance is still a cache hit.  MISDP instances —
    and STP instances whose canonical search exhausts its budget — use a
    structural encoding (sorted edge/terminal lists, full matrix
    entries), which is formatting-independent but labeling-sensitive.
    """
    if kind == "stp":
        if not _structural:
            canon = stp_canonical_labeling(instance)
            if canon is not None:
                return hashlib.sha256(b"stp-canon:" + canon[0]).hexdigest()
        doc = {
            "n": int(instance.n),
            "terminals": sorted(int(t) for t in instance.terminals),
            "edges": sorted(
                (min(int(e.u), int(e.v)), max(int(e.u), int(e.v)), float(e.cost))
                for e in instance.edges
                if e.alive
            ),
        }
    else:  # misdp
        doc = {
            "b": [float(x) for x in instance.b],
            "lb": [float(x) for x in instance.lb],
            "ub": [float(x) for x in instance.ub],
            "integers": sorted(int(i) for i in instance.integers),
            "blocks": [
                {
                    "C": [[float(x) for x in row] for row in blk.C],
                    "coefs": {
                        str(i): [[float(x) for x in row] for row in A]
                        for i, A in sorted(blk.coefs.items())
                    },
                }
                for blk in instance.blocks
            ],
            "rows": [
                {
                    "coefs": {str(i): float(c) for i, c in sorted(row.coefs.items())},
                    "lhs": _enc(row.lhs),
                    "rhs": _enc(row.rhs),
                }
                for row in instance.linear_rows
            ],
        }
    blob = json.dumps({"kind": kind, "doc": doc}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _enc(x: float) -> float | str:
    return ("inf" if x > 0 else "-inf") if math.isinf(x) else float(x)


# -- solving --------------------------------------------------------------------

#: trace ring of one job's run: the live progress stream and the tree audits
TRACE_CAPACITY = 4096


def build_config(request: JobRequest) -> UGConfig:
    """The UGConfig for one job: tracing on (streams + audits), limits set
    at construction so UGConfig validates them."""
    limits = {
        "objective_epsilon": request.objective_epsilon,
        "node_limit": request.node_limit,
        "time_limit": request.virtual_time_limit,
    }
    return UGConfig(
        trace_enabled=True,
        trace_capacity=TRACE_CAPACITY,
        **{name: value for name, value in limits.items() if value is not None},
    )


def solve_job(
    request: JobRequest,
    instance: Any,
    *,
    engine: str = "sim",
    deadline: float | None = None,
    tracer: Tracer | None = None,
) -> UGResult:
    """Run the ug[...] solve for one job (blocking; call from a worker).

    ``deadline`` is the remaining wall-clock budget; it maps onto the
    engine's wall-clock limit so expiry degrades the run (incumbent +
    bound survive) instead of killing it.
    """
    if request.kind == "stp":
        from repro.apps.stp_plugins import SteinerUserPlugins

        plugins: Any = SteinerUserPlugins()
        work_instance = instance.copy()
    else:
        from repro.apps.misdp_plugins import MISDPUserPlugins

        plugins = MISDPUserPlugins()
        work_instance = instance
    solver = ug(
        work_instance,
        plugins,
        n_solvers=request.n_solvers,
        comm=engine,
        config=build_config(request),
        seed=request.seed,
        wall_clock_limit=math.inf if deadline is None else max(0.05, deadline),
    )
    return solver.run(tracer=tracer)


# -- certification --------------------------------------------------------------


def verify_certificate(
    kind: str,
    instance: Any,
    solution: Any,
    objective: float,
    bound: float,
    *,
    solved: bool = False,
    tol: float = 1e-6,
    gap_slack: float = 0.0,
) -> CheckReport:
    """Certificate-check a served answer, independent of who produced it.

    ``objective``/``bound`` are in the problem's natural sense (min cost
    for STP, sup ``b'y`` for MISDP).  Checks: solution validity +
    objective recomputation (via the PR-4 checkers), weak duality, and —
    when ``solved`` is claimed — gap closure within ``gap_slack`` (the
    run's objective epsilon; integral instances legitimately stop with
    the bounds one unit apart).
    """
    if kind == "stp":
        from repro.verify.steiner import check_steiner_tree

        report = check_steiner_tree(
            instance, list(solution or ()), objective, original=True, tol=tol, subject="serve:stp"
        )
        scale = max(1.0, abs(objective))
        if math.isfinite(bound):
            report.add(
                "weak_duality",
                bound <= objective + tol * scale,
                f"dual {bound:.9g} exceeds primal {objective:.9g}",
            )
        primal, dual = objective, bound
    else:
        import numpy as np

        from repro.verify.sdp import check_misdp_solution

        report = check_misdp_solution(
            instance,
            None if solution is None else np.asarray(solution, dtype=float),
            objective,
            tol=tol,
            subject="serve:misdp",
        )
        scale = max(1.0, abs(objective))
        if math.isfinite(bound):
            report.add(
                "weak_duality",
                objective <= bound + tol * scale,
                f"objective {objective:.9g} above upper bound {bound:.9g}",
            )
        # gap closure below works on the min-sense pair
        primal, dual = -objective, -bound
    if solved:
        closed = (
            math.isfinite(dual)
            and math.isfinite(primal)
            and primal - dual <= max(tol * scale, gap_slack + tol)
        )
        report.add(
            "solved_gap_closed",
            closed,
            f"solved claimed with dual {dual:.9g} vs primal {primal:.9g} "
            f"(slack {gap_slack:.6g})",
        )
    return report


def outcome_from_result(
    request: JobRequest,
    instance: Any,
    result: UGResult,
    *,
    tol: float = 1e-6,
) -> tuple[JobOutcome, CheckReport | None]:
    """Apply the degradation contract to a finished run.

    Returns the outcome plus the certificate report (``None`` when there
    was nothing to certify — no incumbent at the limit).
    """
    inc = result.incumbent
    if inc is None:
        return (
            JobOutcome(
                state=JobState.FAILED,
                solved=False,
                detail="no incumbent found within the job limits; nothing servable",
            ),
            None,
        )
    if request.kind == "stp":
        solution = list(inc.payload.get("edges", [])) if isinstance(inc.payload, dict) else None
        objective = float(inc.value)
        bound = float(result.dual_bound)
        gap = _gap(inc.value, result.dual_bound)
    else:
        solution = None if inc.payload is None else [float(v) for v in inc.payload]
        objective = -float(inc.value)  # sup sense
        bound = -float(result.dual_bound)  # upper bound in sup sense
        gap = _gap(inc.value, result.dual_bound)
    gap_slack = request.objective_epsilon or 0.0
    report = verify_certificate(
        request.kind,
        instance,
        solution,
        objective,
        bound,
        solved=result.solved,
        tol=tol,
        gap_slack=gap_slack,
    )
    checks = {"passed": report.passed, "failed": report.failed}
    if not report.ok:
        failures = "; ".join(str(c) for c in report.failures)
        return (
            JobOutcome(
                state=JobState.FAILED,
                solved=False,
                certified=False,
                detail=f"certificate check refused the answer: {failures}",
                checks=checks,
            ),
            report,
        )
    state = JobState.SUCCEEDED if result.solved else JobState.DEGRADED
    detail = (
        "solved to proven optimality"
        if result.solved
        else f"limit expired; serving incumbent with certified gap {gap:.6g}"
    )
    return (
        JobOutcome(
            state=state,
            objective=objective,
            bound=bound,
            gap=gap,
            solved=result.solved,
            certified=True,
            solution=solution,
            detail=detail,
            checks=checks,
        ),
        report,
    )
