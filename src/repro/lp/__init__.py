"""LP substrate: model container and interchangeable solver backends.

The branch-and-cut machinery in :mod:`repro.cip` needs primal solutions,
row duals and reduced costs from an LP oracle. Two backends implement the
same interface: a dense bounded-variable revised simplex written here
(:mod:`repro.lp.simplex`) and scipy's HiGHS (:mod:`repro.lp.scipy_backend`,
the default — it plays the role of Cplex/SoPlex in the paper).  Both
report numerical failure through the uniform :class:`LPStatus` instead of
raising; :class:`RobustLPSolver` layers an escalating recovery chain
(scaling → bound perturbation → backend switch) on top.
"""

from repro.lp.model import LinearProgram, LPAttempt, LPSolution, LPStatus
from repro.lp.interface import solve_lp
from repro.lp.robust import RobustLPSolver
from repro.lp.scipy_backend import HighsLP

__all__ = [
    "HighsLP",
    "LinearProgram",
    "LPAttempt",
    "LPSolution",
    "LPStatus",
    "solve_lp",
    "RobustLPSolver",
]
