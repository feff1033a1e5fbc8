"""HiGHS backend: a persistent loaded model and the one function that solves it.

Plays the role Cplex/SoPlex play in the paper: the fast production LP
oracle under the branch-and-cut loop.  :class:`HighsLP` keeps one LP
loaded in a HiGHS handle and takes exactly the deltas branch-and-bound
produces (column bounds, appended rows, a truncated row tail); HiGHS
retains its basis across them, so the re-solve is dual simplex from the
previous vertex.  :func:`solve_with_scipy` is the only place a handle is
run: a :class:`HighsLP` is re-solved in place, a
:class:`~repro.lp.model.LinearProgram` is loaded into a throwaway one.
HiGHS takes ``lhs <= a'x <= rhs`` rows natively and reports row duals in
the sign convention of :class:`~repro.lp.model.LPSolution`.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Iterable

import numpy as np

from repro.lp.model import LinearProgram, LPSolution, LPStatus


@functools.cache
def highs_binding() -> Any:
    """The HiGHS binding module — the one place it is imported.

    ``highspy`` when installed, else the copy scipy (>= 1.15) vendors for
    its own LP front end; both expose the ``_Highs`` handle class.
    """
    try:
        import highspy._core as core
    except ImportError:
        import scipy.optimize._highspy._core as core
    return core


class HighsLP:
    """An LP ``min c'x, lhs <= Ax <= rhs, lb <= x <= ub`` loaded in HiGHS.

    Columns are fixed at construction; rows form a stack (append at the
    end, truncate from the end).  A binding call that reports an error
    marks the model ``failed`` and the next solve returns
    ``LPStatus.ERROR`` — callers fall back to a cold rebuild.
    """

    def __init__(self, cost: Iterable[float], lb: Iterable[float], ub: Iterable[float]) -> None:
        self._h = highs_binding()._Highs()
        self._h.setOptionValue("output_flag", False)
        self._lb = np.array(lb, dtype=float)
        self._ub = np.array(ub, dtype=float)
        cost = np.asarray(cost, dtype=float)
        self.num_cols = n = int(cost.size)
        self.num_rows = 0
        self.failed = False
        self._check(self._h.addVars(n, self._lb, self._ub))
        self._check(self._h.changeColsCost(n, np.arange(n, dtype=np.int32), cost))

    @classmethod
    def from_program(cls, lp: LinearProgram) -> "HighsLP":
        """Load a :class:`LinearProgram` (the cold path)."""
        cols = lp._cols
        loaded = cls([c.obj for c in cols], [c.lb for c in cols], [c.ub for c in cols])
        loaded.add_rows(lp._rows)
        return loaded

    def _check(self, status: Any) -> None:
        if status == highs_binding().HighsStatus.kError:
            self.failed = True

    def set_col_bounds(self, lb: np.ndarray, ub: np.ndarray) -> int:
        """Push the column bounds that differ from the loaded ones;
        returns how many columns changed."""
        changed = np.flatnonzero((lb != self._lb) | (ub != self._ub))
        if changed.size:
            self._lb[changed] = lb[changed]
            self._ub[changed] = ub[changed]
            self._check(
                self._h.changeColsBounds(
                    changed.size, changed.astype(np.int32), self._lb[changed], self._ub[changed]
                )
            )
        return int(changed.size)

    def add_rows(self, rows: Iterable[Any]) -> None:
        """Append rows; each has ``coefs`` (a dict or ``(col, value)``
        pairs), ``lhs`` and ``rhs`` — model constraints, cuts and
        :class:`LinearProgram` rows all qualify."""
        starts: list[int] = []
        index: list[int] = []
        value: list[float] = []
        lower: list[float] = []
        upper: list[float] = []
        for row in rows:
            coefs = dict(row.coefs)
            starts.append(len(index))
            index.extend(coefs.keys())
            value.extend(coefs.values())
            lower.append(row.lhs)
            upper.append(row.rhs)
        if not starts:
            return
        self._check(
            self._h.addRows(
                len(starts),
                np.array(lower, dtype=float),
                np.array(upper, dtype=float),
                len(index),
                np.array(starts, dtype=np.int32),
                np.array(index, dtype=np.int32),
                np.array(value, dtype=float),
            )
        )
        self.num_rows += len(starts)

    def truncate_rows(self, n: int) -> int:
        """Delete every row from index ``n`` on; returns how many went."""
        drop = self.num_rows - n
        if drop <= 0:
            return 0
        self._check(self._h.deleteRows(drop, np.arange(n, self.num_rows, dtype=np.int32)))
        self.num_rows = n
        return drop


def _no_solution(status: LPStatus, iterations: int = 0) -> LPSolution:
    empty = np.zeros(0)
    return LPSolution(status, empty, math.nan, empty, empty, iterations)


def solve_with_scipy(lp: LinearProgram | HighsLP, budget=None) -> LPSolution:
    """Solve ``lp`` with HiGHS; returns primal, row duals and reduced costs.

    A :class:`HighsLP` is re-solved in place (warm, from the basis HiGHS
    kept); a :class:`LinearProgram` is loaded into a throwaway one.
    ``budget`` (duck-typed :class:`repro.utils.budget.Budget`) maps onto
    HiGHS's native ``time_limit`` option, so a deadline interrupts the
    solve inside the backend.  Backend failure is reported as
    ``LPStatus.ERROR`` — never raised.
    """
    if isinstance(lp, LinearProgram):
        lp = HighsLP.from_program(lp)
    h, core = lp._h, highs_binding()
    time_limit = math.inf
    if budget is not None and budget.has_deadline:
        remaining = budget.remaining_time()
        if remaining <= 0.0:
            return _no_solution(LPStatus.TIME_LIMIT)
        # HiGHS measures time_limit against the handle's cumulative run time
        time_limit = h.getRunTime() + remaining
    h.setOptionValue("time_limit", time_limit)
    if lp.failed:
        return _no_solution(LPStatus.ERROR)

    run_status = h.run()
    model_status = h.getModelStatus()
    info = h.getInfo()
    iterations = int(info.simplex_iteration_count)
    statuses = core.HighsModelStatus
    if run_status == core.HighsStatus.kError:
        return _no_solution(LPStatus.ERROR, iterations)
    if model_status != statuses.kOptimal:
        status = {
            statuses.kInfeasible: LPStatus.INFEASIBLE,
            statuses.kUnbounded: LPStatus.UNBOUNDED,
            statuses.kTimeLimit: LPStatus.TIME_LIMIT,
            statuses.kIterationLimit: LPStatus.ITERATION_LIMIT,
        }.get(model_status, LPStatus.ERROR)
        return _no_solution(status, iterations)

    sol = h.getSolution()
    return LPSolution(
        LPStatus.OPTIMAL,
        np.array(sol.col_value, dtype=float),
        float(info.objective_function_value),
        np.array(sol.row_dual, dtype=float),
        np.array(sol.col_dual, dtype=float),
        iterations,
    )
