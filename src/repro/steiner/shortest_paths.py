"""Shortest paths and Voronoi partitions on Steiner graphs.

Binary-heap Dijkstra over the adjacency structure; the multi-source
variant yields the *Voronoi partition* with respect to the terminal set,
the workhorse of bound-based reductions and the radius lower bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.steiner.graph import SteinerGraph


def dijkstra(
    graph: SteinerGraph,
    source: int,
    targets: set[int] | None = None,
    cost_override: dict[int, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths.

    Returns ``(dist, pred_edge)`` arrays over all vertex ids; dead
    vertices keep ``inf``/-1. If ``targets`` is given, stops once all of
    them are settled. ``cost_override`` substitutes costs per edge id
    (used by the LP-guided heuristic).
    """
    dist = np.full(graph.n, math.inf)
    pred = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    remaining = set(targets) if targets else None
    # numpy-first relaxation over the version-cached CSR view: one slice,
    # one vectorized compare per settled vertex instead of a python loop
    # over (neighbor, eid, cost) tuples
    indptr, nbr, eids, costs = graph.csr()
    if cost_override is not None:
        costs = np.array(
            [cost_override.get(int(e), c) for e, c in zip(eids, costs)], dtype=np.float64
        )
    push = heapq.heappush
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        nd = d + costs[lo:hi]
        ws = nbr[lo:hi]
        for i in np.flatnonzero(nd < dist[ws] - 1e-12):
            w = int(ws[i])
            ndi = float(nd[i])
            if ndi < dist[w] - 1e-12:  # parallel edges within one slice
                dist[w] = ndi
                pred[w] = eids[lo + i]
                push(heap, (ndi, w))
    return dist, pred


def extract_path(graph: SteinerGraph, pred: np.ndarray, target: int) -> list[int]:
    """Edge ids of the shortest path ending at ``target`` (pred from dijkstra)."""
    path = []
    v = target
    while pred[v] >= 0:
        eid = int(pred[v])
        path.append(eid)
        v = graph.edges[eid].other(v)
    path.reverse()
    return path


@dataclass
class VoronoiPartition:
    """Terminal Voronoi data: per-vertex nearest terminal, distance, pred edge."""

    base: np.ndarray  # nearest terminal per vertex (-1 for unreachable/dead)
    dist: np.ndarray
    pred: np.ndarray

    def radius_values(self, graph: SteinerGraph) -> np.ndarray:
        """Per-terminal radius: distance to the nearest foreign Voronoi region.

        The sum of the |T|-1 smallest radii is the classical *radius*
        lower bound for the SPG.
        """
        terms = graph.terminals
        radius = {int(t): math.inf for t in terms}
        for eid in graph.alive_edges():
            e = graph.edges[eid]
            bu, bv = int(self.base[e.u]), int(self.base[e.v])
            if bu < 0 or bv < 0 or bu == bv:
                continue
            du = self.dist[e.u] + e.cost
            dv = self.dist[e.v] + e.cost
            radius[bu] = min(radius[bu], du)
            radius[bv] = min(radius[bv], dv)
        return np.array([radius[int(t)] for t in terms])


def voronoi(graph: SteinerGraph) -> VoronoiPartition:
    """Multi-source Dijkstra from all terminals."""
    dist = np.full(graph.n, math.inf)
    base = np.full(graph.n, -1, dtype=np.int64)
    pred = np.full(graph.n, -1, dtype=np.int64)
    heap: list[tuple[float, int]] = []
    for t in graph.terminals:
        t = int(t)
        dist[t] = 0.0
        base[t] = t
        heapq.heappush(heap, (0.0, t))
    indptr, nbr, eids, costs = graph.csr()
    push = heapq.heappush
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        nd = d + costs[lo:hi]
        ws = nbr[lo:hi]
        bv = base[v]
        for i in np.flatnonzero(nd < dist[ws] - 1e-12):
            w = int(ws[i])
            ndi = float(nd[i])
            if ndi < dist[w] - 1e-12:
                dist[w] = ndi
                base[w] = bv
                pred[w] = eids[lo + i]
                push(heap, (ndi, w))
    return VoronoiPartition(base, dist, pred)


def radius_lower_bound(graph: SteinerGraph) -> float:
    """Radius-based SPG lower bound: sum of the |T|-1 smallest radii."""
    if graph.num_terminals <= 1:
        return 0.0
    vor = voronoi(graph)
    radii = np.sort(vor.radius_values(graph))
    vals = radii[: graph.num_terminals - 1]
    finite = vals[np.isfinite(vals)]
    return float(finite.sum())


class CsrRows(dict):
    """The rows of ``graph.csr()`` as lists of ``(neighbor, cost, edge id)``,
    each converted on first use: the same neighbours in the same order,
    read without numpy scalars.  Valid while the graph is unchanged, or
    while the caller skips the edges it deleted since."""

    def __init__(self, graph: SteinerGraph) -> None:
        super().__init__()
        self.csr = graph.csr()

    def __missing__(self, v: int) -> list[tuple[int, float, int]]:
        indptr, nbr, eids, costs = self.csr
        lo, hi = indptr[v], indptr[v + 1]
        row = self[v] = list(zip(nbr[lo:hi].tolist(), costs[lo:hi].tolist(), eids[lo:hi].tolist()))
        return row


def bottleneck_steiner_distance(
    graph: SteinerGraph,
    u: int,
    limit: float,
    max_visits: int = 400,
    avoid: int | None = None,
) -> dict[int, float]:
    """Restricted bottleneck Steiner distances from ``u``.

    Walks Dijkstra from ``u`` but resets the accumulated length to zero at
    terminals (the defining property of the special/bottleneck Steiner
    distance used by the SD edge-deletion test). The search is truncated
    at ``limit`` and ``max_visits`` settled vertices — the standard
    engineering compromise (exact SD is itself NP-hard to use fully).
    Returns a dict of reachable vertex -> upper bound on the SD.
    """
    terminal = (graph.terminal_mask & graph.vertex_alive).tolist()
    return bottleneck_sd(CsrRows(graph), terminal, u, limit, max_visits, avoid)


def bottleneck_sd(
    rows: CsrRows,
    terminal: list[bool],
    u: int,
    limit: float,
    max_visits: int,
    avoid: int | None = None,
    dead: set[int] | frozenset[int] = frozenset(),
) -> dict[int, float]:
    """:func:`bottleneck_steiner_distance` over prepared ``rows`` and
    terminal flags, skipping the edge ids in ``dead``."""
    # Each label is (bottleneck, cur_segment): the max terminal-free segment
    # length over the path so far, and the length of the ongoing segment.
    # Settling at the first pop keeps every reported value the bottleneck of
    # a concrete path, i.e. a sound upper bound on the true SD.
    sd: dict[int, float] = {u: 0.0}
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, u)]
    best_key: dict[int, float] = {u: 0.0}
    settled: set[int] = set()
    push, pop = heapq.heappush, heapq.heappop
    inf = math.inf
    while heap and len(settled) < max_visits:
        key, cur, v = pop(heap)
        if v in settled:
            continue
        settled.add(v)
        sd[v] = key
        if v == avoid:
            continue
        seg_base = 0.0 if terminal[v] and v != u else cur
        for w, cost, eid in rows[v]:
            if w == avoid or w in settled or eid in dead:
                continue
            new_cur = seg_base + cost
            new_key = new_cur if new_cur > key else key
            if new_key > limit:
                continue
            if new_key < best_key.get(w, inf) - 1e-12:
                best_key[w] = new_key
                push(heap, (new_key, new_cur, w))
    sd.pop(u, None)
    sd[u] = 0.0
    return sd
