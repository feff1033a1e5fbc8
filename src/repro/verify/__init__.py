"""repro.verify — independent verification oracles for the whole stack.

Nothing in this package shares code with the solvers it audits: Steiner
trees are re-validated edge by edge, MISDP points go through fresh
eigenvalue computations, LP certificates are recomputed from the raw
arrays, and finished B&B runs are replayed from their ``repro.obs``
traces. See DESIGN.md §5d.

Three layers:

* **solution checkers** (:mod:`~repro.verify.steiner`,
  :mod:`~repro.verify.sdp`, :mod:`~repro.verify.lp`) — validity,
  connectivity/PSD-ness and weight/objective recomputation;
* **tree auditors** (:mod:`~repro.verify.tree_audit`) — B&B invariants
  replayed from the event trace;
* **differential oracles** (:mod:`~repro.verify.differential`) — brute
  force, backend cross-checks and engine equivalence.

Everything reports through :class:`~repro.verify.result.CheckReport`.
``python -m repro.verify`` runs the auditors standalone on a
``BENCH_*.json`` + trace-JSONL pair.
"""

from repro.verify.result import CheckReport, CheckResult
from repro.verify.lp import check_lp_certificate
from repro.verify.sdp import check_misdp_result, check_misdp_solution
from repro.verify.steiner import (
    check_pc_solution,
    check_sap_arborescence,
    check_steiner_tree,
    check_ug_steiner_result,
)
from repro.verify.restart import audit_restart_coverage
from repro.verify.tree_audit import audit_cip_trace, audit_ug_run
from repro.verify.differential import (
    brute_force_binary_mip,
    brute_force_misdp,
    brute_force_steiner,
    cross_check_engines,
    cross_check_lp,
    random_lp,
)

__all__ = [
    "CheckReport",
    "CheckResult",
    "check_lp_certificate",
    "check_misdp_result",
    "check_misdp_solution",
    "check_pc_solution",
    "check_sap_arborescence",
    "check_steiner_tree",
    "check_ug_steiner_result",
    "audit_cip_trace",
    "audit_restart_coverage",
    "audit_ug_run",
    "brute_force_binary_mip",
    "brute_force_misdp",
    "brute_force_steiner",
    "cross_check_engines",
    "cross_check_lp",
    "random_lp",
]
