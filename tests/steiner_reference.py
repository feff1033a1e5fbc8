"""The Steiner kernels as they were before their loops were tuned, kept
verbatim as the oracle of ``test_steiner_differential.py``: Dinic's
``MaxFlow`` on numpy arrays with a recursive augmenting DFS, the directed-cut
separator that uses it, and the extended edge test that recomputes the
spokes' SD matrix for every edge at a center.

The tuned kernels must give byte-identical flows, residual capacities, min
cuts, cuts and reduced graphs on every input; these copies are what
"identical" is measured against.  One input is out of their reach: this
``max_flow`` repeats its phase loop forever once the flow ends within 1e-12
below ``limit`` while a residual path remains, so no test feeds it that.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import Cut
from repro.cip.solver import CIPSolver
from repro.steiner import separators
from repro.steiner.graph import SteinerGraph
from repro.steiner.reductions.extended import _mst_cost
from repro.steiner.shortest_paths import bottleneck_steiner_distance
from repro.steiner.transformations import SAPDigraph


class MaxFlow:
    """Dinic's algorithm over an explicit arc list.

    Arcs are given once; capacities can be reset between runs so the
    separator reuses the structure across terminals and LP rounds.
    """

    def __init__(self, n: int, arc_tail: np.ndarray, arc_head: np.ndarray) -> None:
        self.n = n
        m = len(arc_tail)
        self.m = m
        # residual arc storage: forward arcs at 2k, backward at 2k+1
        self.to = np.empty(2 * m, dtype=np.int64)
        self.cap = np.zeros(2 * m, dtype=float)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for k in range(m):
            u, v = int(arc_tail[k]), int(arc_head[k])
            self.to[2 * k] = v
            self.to[2 * k + 1] = u
            self.adj[u].append(2 * k)
            self.adj[v].append(2 * k + 1)

    def set_capacities(self, capacities: np.ndarray) -> None:
        self.cap[0::2] = capacities
        self.cap[1::2] = 0.0

    def _bfs_levels(self, s: int, t: int) -> np.ndarray | None:
        level = np.full(self.n, -1, dtype=np.int64)
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in self.adj[v]:
                w = int(self.to[a])
                if self.cap[a] > 1e-12 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level if level[t] >= 0 else None

    def _dfs_augment(self, v: int, t: int, pushed: float, level: np.ndarray, it: list[int]) -> float:
        if v == t:
            return pushed
        while it[v] < len(self.adj[v]):
            a = self.adj[v][it[v]]
            w = int(self.to[a])
            if self.cap[a] > 1e-12 and level[w] == level[v] + 1:
                got = self._dfs_augment(w, t, min(pushed, float(self.cap[a])), level, it)
                if got > 1e-12:
                    self.cap[a] -= got
                    self.cap[a ^ 1] += got
                    return got
            it[v] += 1
        return 0.0

    def max_flow(self, s: int, t: int, limit: float = float("inf")) -> float:
        """Compute max flow from s to t, stopping early once >= limit."""
        flow = 0.0
        while flow < limit:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            it = [0] * self.n
            while flow < limit:
                pushed = self._dfs_augment(s, t, limit - flow, level, it)
                if pushed <= 1e-12:
                    break
                flow += pushed
        return flow

    def min_cut_source_side(self, s: int) -> np.ndarray:
        """After max_flow: vertices reachable from s in the residual graph."""
        reach = np.zeros(self.n, dtype=bool)
        reach[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in self.adj[v]:
                w = int(self.to[a])
                if self.cap[a] > 1e-12 and not reach[w]:
                    reach[w] = True
                    queue.append(w)
        return reach


def _sd_matrix(
    graph: SteinerGraph,
    center: int,
    spokes: list[tuple[int, float]],
    max_visits: int,
) -> dict[tuple[int, int], float]:
    """Pairwise restricted SD between the spokes' far endpoints, avoiding
    ``center``. Missing entries mean 'no cheap path found' (treated inf)."""
    limit = 2.0 * max(c for _w, c in spokes) + 1e-9
    out: dict[tuple[int, int], float] = {}
    ends = [w for w, _c in spokes]
    for i, a in enumerate(ends):
        sd = bottleneck_steiner_distance(graph, a, limit, max_visits, avoid=center)
        for b in ends[i + 1 :]:
            if b in sd:
                key = (min(a, b), max(a, b))
                val = sd[b]
                if val < out.get(key, math.inf):
                    out[key] = val
    return out


def extended_edge_test(graph: SteinerGraph, max_visits: int = 250, max_degree: int = 7) -> int:
    """Depth-one extended edge elimination; returns #deletions."""
    reductions = 0
    for eid in list(graph.alive_edges()):
        e = graph.edges[eid]
        if not e.alive:
            continue
        for endpoint in (e.u, e.v):
            if graph.is_terminal(endpoint):
                continue
            u = e.other(endpoint)
            spokes = [
                (w, cost)
                for w, ext_eid, cost in graph.neighbors(endpoint)
            ]
            if len(spokes) > max_degree or len(spokes) < 2:
                continue
            sd = _sd_matrix(graph, endpoint, spokes, max_visits)
            others = [(w, c) for w, c in spokes if w != u]
            u_cost = e.cost
            deletable = True
            # every neighbour subset containing u, size >= 2, must be beaten
            for k in range(1, len(others) + 1):
                for combo in itertools.combinations(others, k):
                    star = u_cost + sum(c for _w, c in combo)
                    nodes = [u] + [w for w, _c in combo]
                    if _mst_cost(nodes, sd) >= star - 1e-12:
                        deletable = False
                        break
                if not deletable:
                    break
            if deletable:
                graph.delete_edge(eid)
                reductions += 1
                break
    return reductions


class SteinerCutHandler(separators.SteinerCutHandler):
    """The directed-cut handler with the reference ``MaxFlow`` and ``separate``."""

    def __init__(self, sap: SAPDigraph, max_cuts_per_call: int = 25) -> None:
        super().__init__(sap, max_cuts_per_call)
        self._flow = MaxFlow(sap.n, sap.arc_tail, sap.arc_head)

    def separate(self, solver: CIPSolver, node: Node, x: np.ndarray) -> list[Cut]:
        sap = self.sap
        caps = np.asarray(x[: sap.num_arcs], dtype=float).clip(min=0.0)
        cuts: list[Cut] = []
        sinks = sorted(sap.sinks(), key=lambda t: -1.0)  # deterministic order
        for t in sinks:
            if len(cuts) >= self.max_cuts_per_call:
                break
            self._flow.set_capacities(caps)
            flow = self._flow.max_flow(sap.root, t, limit=1.0)
            if flow >= 1.0 - solver.tol.feas:
                continue
            reach = self._flow.min_cut_source_side(sap.root)
            coefs: dict[int, float] = {}
            for a in range(sap.num_arcs):
                if reach[sap.arc_tail[a]] and not reach[sap.arc_head[a]]:
                    coefs[a] = 1.0
            if not coefs:
                continue
            cuts.append(Cut.from_dict(coefs, lhs=1.0, name=f"dcut_t{t}"))
        return cuts
