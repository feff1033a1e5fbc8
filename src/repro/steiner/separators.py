"""Directed Steiner cut constraint handler.

Owns the exponential family (4) of the flow-balance directed cut
formulation: for every vertex set W containing the root but missing a
terminal, at least one arc must leave W. ``separate`` finds violated
members by max-flow (the paper's "separator routine based on a
maximum-flow algorithm"); ``check`` certifies candidate solutions by
root-reachability.
"""

from __future__ import annotations

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import ConstraintHandler, Cut
from repro.cip.solver import CIPSolver
from repro.steiner.maxflow import MaxFlow
from repro.steiner.transformations import SAPDigraph


class SteinerCutHandler(ConstraintHandler):
    """Lazy directed-cut constraints over the SAP arc variables.

    Variable ``a`` of the model corresponds to arc ``a`` of ``sap``.
    """

    name = "steinercuts"
    priority = 100

    def __init__(self, sap: SAPDigraph, max_cuts_per_call: int = 25) -> None:
        self.sap = sap
        self.max_cuts_per_call = max_cuts_per_call
        self._flow = MaxFlow(sap.n, sap.arc_tail, sap.arc_head)

    # -- feasibility ---------------------------------------------------------

    def check(self, solver: CIPSolver, x: np.ndarray) -> bool:
        """All terminals reachable from the root via arcs with value ~1."""
        sap = self.sap
        selected = x[: sap.num_arcs] > 1.0 - solver.tol.integrality
        reached = np.zeros(sap.n, dtype=bool)
        reached[sap.root] = True
        stack = [sap.root]
        while stack:
            v = stack.pop()
            for a in sap.out_arcs[v]:
                w = int(sap.arc_head[a])
                if selected[a] and not reached[w]:
                    reached[w] = True
                    stack.append(w)
        return all(reached[t] for t in sap.sinks())

    # -- separation -----------------------------------------------------------

    def separate(self, solver: CIPSolver, node: Node, x: np.ndarray) -> list[Cut]:
        sap = self.sap
        caps = np.asarray(x[: sap.num_arcs], dtype=float).clip(min=0.0)
        cuts: list[Cut] = []
        for t in sap.sinks():
            if len(cuts) >= self.max_cuts_per_call:
                break
            self._flow.set_capacities(caps)
            flow = self._flow.max_flow(sap.root, t, limit=1.0)
            if flow >= 1.0 - solver.tol.feas:
                continue
            reach = self._flow.min_cut_source_side(sap.root)
            leaving = np.flatnonzero(reach[sap.arc_tail] & ~reach[sap.arc_head])
            if len(leaving):
                cuts.append(Cut.from_dict(dict.fromkeys(leaving.tolist(), 1.0), lhs=1.0, name=f"dcut_t{t}"))
        return cuts
