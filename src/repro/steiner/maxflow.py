"""Dinic max-flow / min-cut on the SAP support digraph.

Used by the directed-cut separator: capacities are the LP arc values and
a min cut of capacity < 1 between the root and a terminal is exactly a
violated constraint (4) of the flow-balance directed cut formulation.

The separator runs one flow per terminal per LP round, so the residual
graph, levels and reach set are plain lists (a numpy scalar read costs
several list reads), the augmenting search is an explicit stack and the
level search stops at the sink. Arc order, augmenting order and every
floating-point operation are the recursive textbook form's, so flows,
residual capacities and min cuts are bit-identical to it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

_EPS = 1e-12  # residual capacity at or below this is saturated


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
        self.to = [0] * (2 * m)
        self.to[0::2], self.to[1::2] = np.asarray(arc_head).tolist(), np.asarray(arc_tail).tolist()
        self.cap = [0.0] * (2 * m)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for a in range(2 * m):
            self.adj[self.to[a ^ 1]].append(a)  # arc a leaves the head of its twin

    def set_capacities(self, capacities: np.ndarray) -> None:
        self.cap[0::2] = np.asarray(capacities, dtype=float).tolist()
        self.cap[1::2] = [0.0] * self.m

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        """Levels from ``s``, up to ``t``'s: deeper ones are never used."""
        to, cap, adj = self.to, self.cap, self.adj
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in adj[v]:
                w = to[a]
                if level[w] < 0 and cap[a] > _EPS:
                    level[w] = level[v] + 1
                    if w == t:
                        return level
                    queue.append(w)
        return None

    def max_flow(self, s: int, t: int, limit: float = float("inf")) -> float:
        """Compute max flow from s to t, stopping early once >= limit
        (or within ``_EPS`` of it: no path can carry that remainder)."""
        to, cap, adj = self.to, self.cap, self.adj
        flow = 0.0
        while limit - flow > _EPS:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            it = [0] * self.n
            path: list[int] = []  # arcs of the current s-v path
            v = s
            while limit - flow > _EPS:
                if v == t:  # augment, then search again from s
                    pushed = min(limit - flow, *(cap[a] for a in path))
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    flow += pushed
                    path, v = [], s
                    continue
                arcs, i, below = adj[v], it[v], level[v] + 1
                while i < len(arcs) and not (cap[arcs[i]] > _EPS and level[to[arcs[i]]] == below):
                    i += 1
                it[v] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    v = to[arcs[i]]
                elif path:  # dead end: retreat past the arc into v
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:
                    break  # blocking flow reached
        return flow

    def min_cut_source_side(self, s: int) -> np.ndarray:
        """After max_flow: vertices reachable from s in the residual graph."""
        to, cap, adj = self.to, self.cap, self.adj
        reach = [False] * self.n
        reach[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in adj[v]:
                w = to[a]
                if not reach[w] and cap[a] > _EPS:
                    reach[w] = True
                    queue.append(w)
        return np.array(reach, dtype=bool)
