"""Differential oracles — cross-checks between independent solution paths.

Three families, all seeded and dependency-free:

* **brute force** — exhaustive enumeration for tiny STP / binary-MIP /
  all-integer MISDP instances; the B&B answer must match exactly;
* **backend cross-checks** — the bundled simplex vs the HiGHS backend on
  randomized LPs, each certificate independently verified;
* **engine equivalence** — a ug[...] run under the SimEngine and the
  ThreadEngine must prove the same optimum (timing differs, the
  mathematics may not).

The brute-force helpers are also re-exported through ``tests/conftest.py``
for direct use in the test suite.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from repro.lp.interface import solve_lp
from repro.lp.model import LinearProgram, LPSolution, LPStatus
from repro.lp.scipy_backend import HighsLP, solve_with_scipy
from repro.sdp.model import MISDP
from repro.steiner.graph import SteinerGraph
from repro.steiner.mst import mst_on_subgraph, prune_steiner_tree
from repro.verify.lp import check_lp_certificate
from repro.verify.result import CheckReport

# -- brute-force references ----------------------------------------------------


def brute_force_steiner(graph: SteinerGraph) -> float | None:
    """Exact SPG optimum by enumerating Steiner-vertex subsets (tiny graphs)."""
    terms = [int(t) for t in graph.terminals]
    if len(terms) <= 1:
        return 0.0
    nonterms = [int(v) for v in graph.alive_vertices() if not graph.is_terminal(int(v))]
    best: float | None = None
    for k in range(len(nonterms) + 1):
        for sub in itertools.combinations(nonterms, k):
            vs = set(terms) | set(sub)
            r = mst_on_subgraph(graph, vs)
            if r is None:
                continue
            _, cost = prune_steiner_tree(graph, r[0])
            if best is None or cost < best:
                best = cost
    return best


def brute_force_binary_mip(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> float | None:
    """min c'x s.t. Ax <= b, x binary — exhaustive."""
    n = len(c)
    best: float | None = None
    for k in range(2**n):
        x = np.array([(k >> i) & 1 for i in range(n)], dtype=float)
        if np.all(A @ x <= b + 1e-9):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def brute_force_misdp(misdp: MISDP, max_points: int = 1 << 20) -> tuple[float, np.ndarray] | None:
    """Exact optimum of an all-integer MISDP by integer-grid enumeration.

    Returns ``(b'y, y)`` of the best feasible point in the sup sense, or
    None if no grid point is feasible. Requires every variable integer
    with finite bounds and a grid no larger than ``max_points``.
    """
    n = misdp.num_vars
    if set(misdp.integers) != set(range(n)):
        raise ValueError("brute_force_misdp needs an all-integer instance")
    ranges = []
    total = 1
    for i in range(n):
        if not (math.isfinite(misdp.lb[i]) and math.isfinite(misdp.ub[i])):
            raise ValueError(f"variable {i} has unbounded domain")
        lo, hi = math.ceil(misdp.lb[i] - 1e-9), math.floor(misdp.ub[i] + 1e-9)
        ranges.append(range(int(lo), int(hi) + 1))
        total *= len(ranges[-1])
        if total > max_points:
            raise ValueError(f"grid larger than {max_points} points")
    best: tuple[float, np.ndarray] | None = None
    for point in itertools.product(*ranges):
        y = np.array(point, dtype=float)
        if not misdp.is_feasible(y):
            continue
        val = misdp.objective(y)
        if best is None or val > best[0]:
            best = (val, y)
    return best


# -- randomized LP generation + backend cross-check ----------------------------


def _random_row(rng: np.random.Generator, n_vars: int, x0: np.ndarray) -> tuple[dict[int, float], float, float]:
    """One random <=, >= or range row, slack against the point ``x0``."""
    support = rng.choice(n_vars, size=min(n_vars, int(rng.integers(2, 5))), replace=False)
    coefs = {int(j): float(rng.uniform(-3.0, 3.0)) for j in support}
    act0 = sum(v * x0[j] for j, v in coefs.items())
    kind = int(rng.integers(0, 3))
    slack = float(rng.uniform(0.1, 2.0))
    lhs = -math.inf if kind == 0 else act0 - slack
    rhs = math.inf if kind == 1 else act0 + slack
    return coefs, lhs, rhs


def random_lp(rng: np.random.Generator, n_vars: int = 6, n_rows: int = 5) -> LinearProgram:
    """A random bounded-feasible LP with a mix of <=, >= and range rows.

    Feasibility is guaranteed by construction: every row is calibrated
    against a random interior point; boundedness by finite variable
    bounds.
    """
    lp = LinearProgram()
    x0 = rng.uniform(0.2, 0.8, size=n_vars)
    for j in range(n_vars):
        lp.add_variable(0.0, float(rng.uniform(1.0, 4.0)), float(rng.uniform(-5.0, 5.0)), f"x{j}")
    for i in range(n_rows):
        coefs, lhs, rhs = _random_row(rng, n_vars, x0)
        lp.add_row(coefs, lhs, rhs, name=f"r{i}")
    return lp


def _random_delta(rng: np.random.Generator, lp: LinearProgram, warm: HighsLP) -> str:
    """Apply one random B&B-style change to ``lp`` and to ``warm`` alike:
    new bounds on a few columns, appended rows, or a truncated row tail."""
    n = lp.num_cols
    kind = int(rng.integers(0, 3)) if lp.num_rows else int(rng.integers(0, 2))
    if kind == 0:
        for j in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
            lo, hi = sorted(float(v) for v in rng.uniform(0.0, 4.0, size=2))
            if rng.random() < 0.4:  # a branching-style fixing
                hi = lo = float(round(lo))
            lp.set_bounds(int(j), lo, hi)
        lb, ub = (np.array(b) for b in zip(*(lp.get_bounds(j) for j in range(n))))
        warm.set_col_bounds(lb, ub)
        return "bounds"
    if kind == 1:
        first = lp.num_rows
        x0 = rng.uniform(0.2, 0.8, size=n)
        for _ in range(int(rng.integers(1, 4))):
            coefs, lhs, rhs = _random_row(rng, n, x0)
            lp.add_row(coefs, lhs, rhs)
        warm.add_rows(lp._rows[first:])
        return "add_rows"
    keep = int(rng.integers(0, lp.num_rows))
    lp.truncate_rows(keep)
    warm.truncate_rows(keep)
    return "truncate"


def cross_check_lp(
    lp: LinearProgram, tol: float = 1e-6, steps: int = 0, rng: np.random.Generator | None = None
) -> CheckReport:
    """Solve with both backends; statuses, objectives and certificates must agree.

    With ``steps > 0`` the check continues over a random *sequence* of
    bound changes, row appends and row truncations (drawn from ``rng``,
    applied to ``lp`` in place): after every step a :class:`HighsLP`
    kept loaded since the start — so carrying HiGHS's basis — must agree
    with a cold ``solve_with_simplex`` of the same LP.
    """
    report = CheckReport(subject="lp-cross-check")

    def compare(sols: dict[str, LPSolution], prefix: str) -> None:
        report.add(
            f"{prefix}status_agreement",
            sols["simplex"].status is sols["highs"].status,
            f"simplex={sols['simplex'].status.value} highs={sols['highs'].status.value}",
        )
        if all(s.status is LPStatus.OPTIMAL for s in sols.values()):
            a, b = sols["simplex"].objective, sols["highs"].objective
            scale = max(1.0, abs(a), abs(b))
            report.add(f"{prefix}objective_agreement", abs(a - b) <= tol * scale,
                       f"simplex {a:.9g} vs highs {b:.9g}")
            for backend, sol in sols.items():
                sub = check_lp_certificate(lp, sol, tol=tol, subject=f"lp[{backend}]")
                report.require(f"{prefix}certificate_{backend}", sub.ok, sub.summary())

    compare({backend: solve_lp(lp, backend) for backend in ("simplex", "highs")}, "")
    if steps:
        rng = rng if rng is not None else np.random.default_rng(0)
        warm = HighsLP.from_program(lp)
        solve_with_scipy(warm)  # leave a basis behind for the first step
        for k in range(1, steps + 1):
            what = _random_delta(rng, lp, warm)
            compare({"simplex": solve_lp(lp, "simplex"), "highs": solve_with_scipy(warm)},
                    f"step{k}_{what}_")
    return report


# -- engine equivalence --------------------------------------------------------


def cross_check_engines(
    graph: SteinerGraph,
    n_solvers: int = 2,
    seed: int = 0,
    *,
    tol: float = 1e-6,
    **config_kwargs: Any,
) -> CheckReport:
    """Run ug[SteinerJack] under both engines; the proven optimum must agree.

    The SimEngine result is bit-deterministic, the ThreadEngine one is
    schedule-dependent — but on instances both engines solve to proven
    optimality the *objective* is an invariant. Each incumbent is also
    certificate-checked against the input graph.
    """
    from repro.apps.stp_plugins import SteinerUserPlugins
    from repro.ug import ug
    from repro.ug.config import UGConfig
    from repro.verify.steiner import check_ug_steiner_result

    report = CheckReport(subject="engine-equivalence")
    config_kwargs.setdefault("time_limit", 1e9)
    config_kwargs.setdefault("objective_epsilon", 1 - 1e-6)
    results = {}
    for comm in ("sim", "threads"):
        solver = ug(
            graph.copy(),
            SteinerUserPlugins(),
            n_solvers=n_solvers,
            comm=comm,
            config=UGConfig(**config_kwargs),
            seed=seed,
            wall_clock_limit=120.0,
        )
        results[comm] = solver.run()
        report.require(f"solved_{comm}", results[comm].solved,
                       f"{comm} engine failed to prove optimality")
        sub = check_ug_steiner_result(graph, results[comm], tol=tol)
        report.require(f"certificate_{comm}", sub.ok, sub.summary())
    a, b = results["sim"].objective, results["threads"].objective
    if math.isfinite(a) and math.isfinite(b):
        scale = max(1.0, abs(a), abs(b))
        report.add("objective_agreement", abs(a - b) <= tol * scale,
                   f"sim {a:.9g} vs threads {b:.9g}")
    return report
