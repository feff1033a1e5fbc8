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
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.misdp_plugins import MISDPUserPlugins
from repro.apps.stp_plugins import SteinerUserPlugins
from repro.obs.trace import Tracer
from repro.sdp.instances import cardinality_least_squares, min_k_partitioning, truss_topology_design
from repro.serve.canonical import canonical_form, colored_graph
from repro.serve.jobs import InvalidJobError, JobOutcome, JobRequest, JobState
from repro.steiner.instances import grid_instance, hypercube_instance, random_instance
from repro.steiner.stp_io import parse_stp
from repro.ug.config import UGConfig
from repro.ug.instantiation import UGResult, ug
from repro.ug.statistics import _gap
from repro.ug.user_plugins import UserPlugins
from repro.utils.records import canonical_json, encode_float
from repro.verify.result import CheckReport
from repro.verify.sdp import check_misdp_solution
from repro.verify.steiner import check_steiner_tree


# -- STP canonical labeling -----------------------------------------------------

_CANON_BUDGET = 4000  # canonical labeling search steps (see canonical_form); exhaustion falls back
_COST_ROUND = 9


def stp_canonical_labeling(instance: Any, budget: int = _CANON_BUDGET):
    """Canonical (certificate, vertex labeling) of an STP instance, or None.

    Vertices are colored by aliveness + terminal flag, edges labeled by
    the sorted multiset of parallel-edge costs, and the colored graph is
    run through :func:`repro.serve.canonical.canonical_form`.  The
    certificate is invariant under vertex relabeling, so two isomorphic
    instances fingerprint equal; the labeling lets the daemon translate
    a cached solution into the query instance's own edge ids.  Budget
    exhaustion returns None and the caller falls back to the structural
    (labeling-sensitive) fingerprint.
    """
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


def _stp_to_cache(instance: Any, labeling: list[int] | None, edge_ids: Any) -> Any:
    """Store a solution as relabeling-invariant ``(u, v, cost)`` triples
    in canonical positions; without a labeling its ids are stored as-is."""
    if labeling is None:
        return edge_ids
    pos = {v: i for i, v in enumerate(labeling)}
    triples = []
    for eid in edge_ids:
        e = instance.edges[int(eid)]
        cu, cv = pos[int(e.u)], pos[int(e.v)]
        triples.append([min(cu, cv), max(cu, cv), round(float(e.cost), _COST_ROUND)])
    return {"stp_canonical": sorted(triples)}


def _stp_from_cache(instance: Any, labeling: list[int] | None, cached: Any) -> Any:
    """A cached solution in the query's own edge ids, or None.

    Canonical fingerprints match *isomorphic* instances, whose edge ids
    differ, so triples are mapped through the query's labeling.
    Parallel edges with equal cost are interchangeable, so any
    one-to-one matching is valid; an untranslatable entry (no labeling,
    or a triple with no matching edge: the instances were not
    isomorphic after all) is a miss rather than an answer served wrong.
    """
    if not (isinstance(cached, dict) and "stp_canonical" in cached):
        return cached  # structural-fingerprint entry: ids are literal
    if labeling is None:
        return None
    pos = {v: i for i, v in enumerate(labeling)}
    buckets: dict[tuple[int, int, float], list[int]] = {}
    for eid, e in enumerate(instance.edges):
        if not e.alive:
            continue
        cu, cv = pos[int(e.u)], pos[int(e.v)]
        key = (min(cu, cv), max(cu, cv), round(float(e.cost), _COST_ROUND))
        buckets.setdefault(key, []).append(eid)
    out = []
    for t in cached["stp_canonical"]:
        bucket = buckets.get((int(t[0]), int(t[1]), round(float(t[2]), _COST_ROUND)))
        if not bucket:
            return None
        out.append(bucket.pop())
    return out


def _stp_structure(instance: Any) -> dict[str, Any]:
    return {
        "n": int(instance.n),
        "terminals": sorted(int(t) for t in instance.terminals),
        "edges": sorted(
            (min(int(e.u), int(e.v)), max(int(e.u), int(e.v)), float(e.cost))
            for e in instance.edges
            if e.alive
        ),
    }


def _misdp_structure(instance: Any) -> dict[str, Any]:
    return {
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
                "lhs": encode_float(row.lhs),
                "rhs": encode_float(row.rhs),
            }
            for row in instance.linear_rows
        ],
    }


def _check_stp(instance: Any, solution: Any, objective: float, tol: float) -> CheckReport:
    return check_steiner_tree(
        instance, list(solution or ()), objective, original=True, tol=tol, subject="serve:stp"
    )


def _check_misdp(instance: Any, solution: Any, objective: float, tol: float) -> CheckReport:
    y = None if solution is None else np.asarray(solution, dtype=float)
    return check_misdp_solution(instance, y, objective, tol=tol, subject="serve:misdp")


# -- the per-kind table ---------------------------------------------------------


def _unchanged(_instance: Any, _labeling: list[int] | None, solution: Any) -> Any:
    return solution


@dataclass(frozen=True)
class JobKind:
    """Everything the serving layer does differently for one job kind.

    ``sense`` maps the base solver's internal minimisation values onto
    the problem's natural sense, in which answers are served: +1 for
    min-cost STP, -1 for sup ``b'y`` MISDP.  ``canonical`` returns an
    isomorphism-invariant (certificate, vertex labeling) or None, in
    which case the ``structure`` document is fingerprinted instead;
    ``to_cache``/``from_cache`` translate a served solution into the
    cache's form and back into a query's own ids (None: untranslatable).
    """

    generators: dict[str, Callable[..., Any]]
    parse: Callable[[str], Any] | None  # literal payload ``{kind: text}``
    plugins: Callable[[], UserPlugins]
    sense: float
    served_solution: Callable[[Any], Any]  # incumbent payload -> served solution
    check: Callable[[Any, Any, float, float], CheckReport]  # instance, solution, objective, tol
    canonical: Callable[[Any], Any]
    structure: Callable[[Any], dict[str, Any]]
    to_cache: Callable[[Any, list[int] | None, Any], Any] = _unchanged
    from_cache: Callable[[Any, list[int] | None, Any], Any] = _unchanged


KINDS: dict[str, JobKind] = {
    "stp": JobKind(
        generators={"hypercube": hypercube_instance, "grid": grid_instance, "random": random_instance},
        parse=parse_stp,
        plugins=SteinerUserPlugins,
        sense=1.0,
        served_solution=lambda p: list(p.get("edges", [])) if isinstance(p, dict) else None,
        check=_check_stp,
        canonical=stp_canonical_labeling,
        structure=_stp_structure,
        to_cache=_stp_to_cache,
        from_cache=_stp_from_cache,
    ),
    "misdp": JobKind(
        generators={
            "truss": truss_topology_design,
            "cardls": cardinality_least_squares,
            "partition": min_k_partitioning,
        },
        parse=None,
        plugins=MISDPUserPlugins,
        sense=-1.0,
        served_solution=lambda p: None if p is None else [float(v) for v in p],
        check=_check_misdp,
        canonical=lambda _instance: None,
        structure=_misdp_structure,
    ),
}


# -- instance construction and fingerprint --------------------------------------


def build_instance(request: JobRequest) -> Any:
    """Turn a request payload into a solver-ready instance object."""
    payload = request.payload
    kind = KINDS[request.kind]
    if kind.parse is not None and request.kind in payload:
        try:
            return kind.parse(str(payload[request.kind]))
        except Exception as exc:
            raise InvalidJobError(f"cannot parse {request.kind.upper()} payload: {exc}") from exc
    name = str(payload.get("generator", ""))
    gen = kind.generators.get(name)
    if gen is None:
        raise InvalidJobError(
            f"unknown {request.kind} generator {name!r}; choose from {sorted(kind.generators)}"
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


def instance_cache_key(kind: str, instance: Any) -> tuple[str, list[int] | None]:
    """Canonical content hash of a parsed instance, plus its labeling.

    Two requests describing the same mathematical instance — whether
    shipped as literal text or as a generator spec — hash equal, so the
    cache serves repeat queries instantly.  For STP the hash is also
    *isomorphism-invariant*: the instance is canonically labeled first
    (:func:`stp_canonical_labeling`), so a vertex-relabeled copy of a
    cached instance is still a hit, and the returned labeling translates
    cached solutions into the query's edge ids.  MISDP instances — and
    STP instances whose canonical search exhausts its budget — hash a
    structural encoding (sorted edge/terminal lists, full matrix
    entries), formatting-independent but labeling-sensitive; their
    labeling is ``None``.
    """
    canon = KINDS[kind].canonical(instance)
    if canon is not None:
        cert, labeling = canon
        return hashlib.sha256(f"{kind}-canon:".encode() + cert).hexdigest(), list(labeling)
    blob = canonical_json({"kind": kind, "doc": KINDS[kind].structure(instance)})
    return hashlib.sha256(blob).hexdigest(), None


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
    solver = ug(
        instance,
        KINDS[request.kind].plugins(),
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
    objective recomputation (via the repro.verify checkers), weak duality, and —
    when ``solved`` is claimed — gap closure within ``gap_slack`` (the
    run's objective epsilon; integral instances legitimately stop with
    the bounds one unit apart).
    """
    sense = KINDS[kind].sense
    report = KINDS[kind].check(instance, solution, objective, tol)
    scale = max(1.0, abs(objective))
    if math.isfinite(bound):
        # weak duality in the natural sense: lower <= upper
        lower, upper = (bound, objective) if sense > 0 else (objective, bound)
        report.add(
            "weak_duality",
            lower <= upper + tol * scale,
            f"bound {bound:.9g} and objective {objective:.9g} violate weak duality",
        )
    # gap closure below works on the min-sense pair
    primal, dual = sense * objective, sense * bound
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
    kind = KINDS[request.kind]
    solution = kind.served_solution(inc.payload)
    objective = kind.sense * float(inc.value)
    bound = kind.sense * float(result.dual_bound)
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
