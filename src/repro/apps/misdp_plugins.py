"""ug[MISDP] glue — the misdp_plugins.cpp analogue (must stay <200 LoC).

The racing settings interleave the two solution approaches exactly as
the paper describes: odd settings are SDP-based (nonlinear B&B), even
settings are LP-based (eigenvector cutting planes), with emphasis and
permutation varied within each — racing ramp-up then dynamically picks
the better relaxation per instance.
"""

from __future__ import annotations

from repro.cip.params import ParamSet, emphasis
from repro.sdp.model import MISDP
from repro.sdp.solver import MISDPSolver
from repro.ug.para_node import ParaNode
from repro.ug.user_plugins import CIPHandle, UserPlugins


class MISDPUserPlugins(UserPlugins):
    """Declares the MISDP solver to UG."""

    base_solver_name = "MISDP"

    def __init__(self, default_approach: str = "sdp") -> None:
        self.default_approach = default_approach

    def root_para_node(self, instance: MISDP) -> ParaNode:
        return ParaNode(payload={"bounds": []})

    def create_handle(self, instance, node, params, seed, incumbent):
        approach = str(params.get_extra("misdp/approach", self.default_approach))
        solver = MISDPSolver(instance, params=params, approach=approach, seed=seed)
        bounds = tuple((int(i), float(lo), float(hi)) for i, lo, hi in node.payload.get("bounds", []))
        solver.prepare(bounds, cutoff_value=None if incumbent is None else incumbent.value)
        return CIPHandle(
            solver.cip,
            lambda cip_node: {"bounds": [list(b) for b in solver.node_to_subproblem(cip_node)]},
            lambda sol: None if sol.x is None else [float(v) for v in sol.x],
        )

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        """Setting k (1-based): odd = SDP-based, even = LP-based."""
        emphases = ("default", "easycip", "aggressive", "feasibility", "optimality")
        sets: list[ParamSet] = []
        for k in range(1, n + 1):
            approach = "sdp" if k % 2 == 1 else "lp"
            emph = emphasis(emphases[(k - 1) // 2 % len(emphases)])
            sets.append(
                emph.with_changes(
                    permutation_seed=base.permutation_seed + k,
                    extras={"misdp/approach": approach},
                )
            )
        return sets
