"""Linear program container shared by all backends.

An LP is ``min c'x  s.t.  lhs <= A x <= rhs,  lb <= x <= ub`` with
range rows (finite lhs *and* rhs) permitted. Rows and columns are added
incrementally — the cutting loop in :mod:`repro.cip` appends rows between
re-solves — and converted to dense arrays on demand.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError

INF = math.inf


class LPStatus(enum.Enum):
    """Termination status of an LP solve.

    Both backends report through this one enum — numerical failure is a
    status (ERROR), never a backend-specific exception, so callers can
    classify and recover uniformly.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


@dataclass(frozen=True)
class LPAttempt:
    """One link of a failover chain: which backend, which recovery
    strategy (``plain`` / ``scaled`` / ``perturbed`` / ``switched``),
    and how that attempt ended."""

    backend: str
    strategy: str
    status: LPStatus


@dataclass
class LPSolution:
    """Result of one LP solve.

    Attributes
    ----------
    status:
        Termination status; arrays below are only meaningful for OPTIMAL.
    x:
        Primal solution, one entry per column.
    objective:
        Objective value ``c'x``.
    duals:
        One dual multiplier per row (sign convention: for a binding
        ``a'x >= lhs`` row of a minimisation problem the dual is >= 0,
        for a binding ``a'x <= rhs`` row it is <= 0).
    reduced_costs:
        One reduced cost per column, ``c - A' duals``.
    iterations:
        Simplex iterations (or backend-reported iteration count); when a
        failover chain ran, the sum over all attempts.
    attempts:
        The failover path taken (empty for a plain single-backend solve
        that needed no recovery).
    """

    status: LPStatus
    x: np.ndarray
    objective: float
    duals: np.ndarray
    reduced_costs: np.ndarray
    iterations: int = 0
    attempts: list[LPAttempt] = field(default_factory=list)


@dataclass
class _Row:
    coefs: dict[int, float]
    lhs: float
    rhs: float
    name: str


@dataclass
class _Col:
    lb: float
    ub: float
    obj: float
    name: str


@dataclass
class LinearProgram:
    """Incrementally built LP in general row form.

    Examples
    --------
    >>> lp = LinearProgram()
    >>> x = lp.add_variable(lb=0.0, ub=10.0, obj=-1.0, name="x")
    >>> y = lp.add_variable(lb=0.0, ub=10.0, obj=-2.0, name="y")
    >>> _ = lp.add_row({x: 1.0, y: 1.0}, lhs=-math.inf, rhs=6.0)
    >>> lp.num_cols, lp.num_rows
    (2, 1)
    """

    _cols: list[_Col] = field(default_factory=list)
    _rows: list[_Row] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    def add_variable(
        self,
        lb: float = 0.0,
        ub: float = INF,
        obj: float = 0.0,
        name: str = "",
    ) -> int:
        """Add a column; returns its index."""
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self._cols.append(_Col(float(lb), float(ub), float(obj), name))
        return len(self._cols) - 1

    def add_row(
        self,
        coefs: dict[int, float],
        lhs: float = -INF,
        rhs: float = INF,
        name: str = "",
    ) -> int:
        """Add a row ``lhs <= sum coefs[j] * x_j <= rhs``; returns its index."""
        if lhs > rhs:
            raise ModelError(f"row {name!r}: lhs {lhs} > rhs {rhs}")
        n = len(self._cols)
        for j in coefs:
            if not 0 <= j < n:
                raise ModelError(f"row {name!r} references unknown column {j}")
        self._rows.append(_Row(dict(coefs), float(lhs), float(rhs), name))
        return len(self._rows) - 1

    def truncate_rows(self, n: int) -> None:
        """Drop every row from index ``n`` on."""
        del self._rows[n:]

    def set_objective(self, col: int, coef: float) -> None:
        """Overwrite the objective coefficient of one column."""
        self._cols[col].obj = float(coef)

    def set_bounds(self, col: int, lb: float, ub: float) -> None:
        """Overwrite the bounds of one column."""
        if lb > ub:
            raise ModelError(f"column {col}: lb {lb} > ub {ub}")
        self._cols[col].lb = float(lb)
        self._cols[col].ub = float(ub)

    def get_bounds(self, col: int) -> tuple[float, float]:
        c = self._cols[col]
        return c.lb, c.ub

    # -- inspection --------------------------------------------------------

    @property
    def num_cols(self) -> int:
        return len(self._cols)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def to_arrays(self) -> tuple[np.ndarray, ...]:
        """Return dense ``(c, A, lhs, rhs, lb, ub)``."""
        n, m = self.num_cols, self.num_rows
        c = np.array([col.obj for col in self._cols], dtype=float)
        lb = np.array([col.lb for col in self._cols], dtype=float)
        ub = np.array([col.ub for col in self._cols], dtype=float)
        A = np.zeros((m, n), dtype=float)
        lhs = np.empty(m, dtype=float)
        rhs = np.empty(m, dtype=float)
        for i, row in enumerate(self._rows):
            lhs[i] = row.lhs
            rhs[i] = row.rhs
            for j, v in row.coefs.items():
                A[i, j] = v
        return c, A, lhs, rhs, lb, ub

    def row_activity(self, x: np.ndarray, row: int) -> float:
        """Evaluate row ``row`` at point ``x``."""
        r = self._rows[row]
        return float(sum(v * x[j] for j, v in r.coefs.items()))

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check primal feasibility of ``x`` within ``tol``."""
        for j, col in enumerate(self._cols):
            if x[j] < col.lb - tol or x[j] > col.ub + tol:
                return False
        for i, row in enumerate(self._rows):
            act = self.row_activity(x, i)
            if act < row.lhs - tol or act > row.rhs + tol:
                return False
        return True
