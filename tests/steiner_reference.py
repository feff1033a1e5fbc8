"""The Steiner kernels as they were before their loops were tuned, kept
verbatim as the oracle of ``test_steiner_differential.py``: Dinic's
``MaxFlow`` on numpy arrays with a recursive augmenting DFS, the directed-cut
separator that uses it, the extended edge test that recomputes the spokes'
SD matrix for every edge at a center, and the three first-layer kernels:
Wong's dual ascent with a fresh reverse BFS per active terminal and sweep,
the SD edge test whose bottleneck search rebuilds the graph's CSR after
every deletion, and the TM heuristic on numpy ``dist``/``pred`` arrays.

The tuned kernels must give byte-identical flows, residual capacities, min
cuts, cuts, dual-ascent results, heuristic trees and reduced graphs on every
input; these copies are what "identical" is measured against.  One input is
out of their reach: this ``max_flow`` repeats its phase loop forever once the
flow ends within 1e-12 below ``limit`` while a residual path remains, so no
test feeds it that.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np

from repro.cip.node import Node
from repro.cip.plugins import Cut
from repro.cip.solver import CIPSolver
from repro.steiner import separators
from repro.steiner.dual_ascent import DualAscentResult
from repro.steiner.graph import SteinerGraph
from repro.steiner.mst import mst_on_subgraph, prune_steiner_tree
from repro.steiner.reductions.extended import _mst_cost
from repro.steiner.transformations import SAPDigraph
from repro.utils import make_rng


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


# -- the first-layer kernels ----------------------------------------------------


def _arc_csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR over arcs grouped by ``keys`` (tails or heads): the arcs of
    vertex ``v`` are ``order[indptr[v]:indptr[v+1]]``."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, order


def _reverse_zero_reachable(
    sap: SAPDigraph,
    t: int,
    rc: np.ndarray,
    eps: float,
    rin_ptr: np.ndarray,
    rin_arc: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Bool mask of vertices from which ``t`` is reachable via arcs of
    zero reduced cost (vectorized saturation scan per frontier vertex)."""
    comp = np.zeros(sap.n, dtype=bool)
    comp[t] = True
    stack = [t]
    while stack:
        v = stack.pop()
        lo, hi = rin_ptr[v], rin_ptr[v + 1]
        if lo == hi:
            continue
        arcs = rin_arc[lo:hi]
        us = tails[arcs]
        grow = us[(rc[arcs] <= eps) & ~comp[us]]
        if grow.size:
            comp[grow] = True
            stack.extend(grow.tolist())
    return comp


def dual_ascent(sap: SAPDigraph, eps: float = 1e-9, max_sweeps: int = 10_000) -> DualAscentResult:
    """Run Wong's dual ascent; deterministic given the instance.

    Active terminals are processed smallest-component-first (the standard
    guiding rule); each step raises the dual of the component's cut by the
    minimum entering reduced cost.  Component growth, the entering-arc
    scan and the delta update are numpy mask operations over the arc
    arrays — the python per-arc loops dominated dual-ascent profiles.
    """
    rc = sap.arc_cost.astype(float).copy()
    lb = 0.0
    active = deque(sorted(sap.sinks()))
    sweeps = 0
    tails = np.asarray(sap.arc_tail, dtype=np.int64)
    heads = np.asarray(sap.arc_head, dtype=np.int64)
    rin_ptr, rin_arc = _arc_csr(heads, sap.n)
    while active and sweeps < max_sweeps:
        sweeps += 1
        # pick terminal with the smallest zero-reachable component
        best_t = None
        best_comp: np.ndarray | None = None
        best_size = 0
        for t in list(active):
            comp = _reverse_zero_reachable(sap, t, rc, eps, rin_ptr, rin_arc, tails)
            if comp[sap.root]:
                active.remove(t)
                continue
            size = int(np.count_nonzero(comp))
            if best_comp is None or size < best_size:
                best_t, best_comp, best_size = t, comp, size
        if best_comp is None:
            break
        # the cut: arcs entering the component from outside
        entering = best_comp[heads] & ~best_comp[tails]
        if not entering.any():
            # root genuinely unreachable: infinite bound (infeasible SPG)
            lb = math.inf
            break
        delta = float(rc[entering].min())
        if delta <= eps:
            # numerically saturated already; grow handled next sweep
            delta = 0.0
        lb += delta
        if delta > 0.0:
            rc[entering] = np.maximum(rc[entering] - delta, 0.0)
        # re-test this terminal next round; rotate the queue for fairness
        assert best_t is not None
        active.rotate(-1)

    root_dist = _rc_dijkstra_forward(sap, rc)
    term_dist = _rc_dijkstra_to_terminals(sap, rc)
    saturated = rc <= eps
    return DualAscentResult(lb, rc, root_dist, term_dist, saturated)


def _rc_dijkstra(
    sap: SAPDigraph,
    rc: np.ndarray,
    sources: list[int],
    ends: np.ndarray,
    indptr: np.ndarray,
    arc_order: np.ndarray,
) -> np.ndarray:
    """Heap Dijkstra with vectorized relaxation over an arc-CSR view."""
    dist = np.full(sap.n, math.inf)
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    push = heapq.heappush
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        arcs = arc_order[lo:hi]
        ws = ends[arcs]
        nd = d + rc[arcs]
        for i in np.flatnonzero(nd < dist[ws] - 1e-12):
            w = int(ws[i])
            ndi = float(nd[i])
            if ndi < dist[w] - 1e-12:  # parallel arcs within one slice
                dist[w] = ndi
                push(heap, (ndi, w))
    return dist


def _rc_dijkstra_forward(sap: SAPDigraph, rc: np.ndarray) -> np.ndarray:
    tails = np.asarray(sap.arc_tail, dtype=np.int64)
    heads = np.asarray(sap.arc_head, dtype=np.int64)
    indptr, order = _arc_csr(tails, sap.n)
    return _rc_dijkstra(sap, rc, [sap.root], heads, indptr, order)


def _rc_dijkstra_to_terminals(sap: SAPDigraph, rc: np.ndarray) -> np.ndarray:
    """Reduced-cost distance from each vertex to its nearest sink terminal
    (multi-source Dijkstra on the reversed digraph)."""
    tails = np.asarray(sap.arc_tail, dtype=np.int64)
    heads = np.asarray(sap.arc_head, dtype=np.int64)
    indptr, order = _arc_csr(heads, sap.n)
    return _rc_dijkstra(sap, rc, sap.sinks(), tails, indptr, order)


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
    # Each label is (bottleneck, cur_segment): the max terminal-free segment
    # length over the path so far, and the length of the ongoing segment.
    # Settling at the first pop keeps every reported value the bottleneck of
    # a concrete path, i.e. a sound upper bound on the true SD.
    sd: dict[int, float] = {u: 0.0}
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, u)]
    best_key: dict[int, float] = {u: 0.0}
    settled: set[int] = set()
    indptr, nbr, _eids, costs = graph.csr()
    push = heapq.heappush
    inf = math.inf
    while heap and len(settled) < max_visits:
        key, cur, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        sd[v] = key
        if v == avoid:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        seg_base = 0.0 if graph.is_terminal(v) and v != u else cur
        # vectorized label arithmetic over the CSR slice; the heap pushes
        # and dict filters stay scalar (tolist beats numpy scalar indexing)
        new_curs = (seg_base + costs[lo:hi]).tolist()
        ws = nbr[lo:hi].tolist()
        for w, new_cur in zip(ws, new_curs):
            if w == avoid or w in settled:
                continue
            new_key = new_cur if new_cur > key else key
            if new_key > limit:
                continue
            if new_key < best_key.get(w, inf) - 1e-12:
                best_key[w] = new_key
                push(heap, (new_key, new_cur, w))
    sd.pop(u, None)
    sd[u] = 0.0
    return sd


def sd_edge_test(graph: SteinerGraph, max_visits: int = 300) -> int:
    """Delete edges dominated by the (restricted) special distance."""
    reductions = 0
    for v in graph.alive_vertices():
        v = int(v)
        inc = graph.incident_edges(v)
        if not inc:
            continue
        limit = max(graph.edges[e].cost for e in inc)
        sd = bottleneck_steiner_distance(graph, v, limit, max_visits)
        for eid in inc:
            e = graph.edges[eid]
            if not e.alive:
                continue
            w = e.other(v)
            alt = sd.get(w)
            if alt is None:
                continue
            # strict dominance; allow equality only for non-terminal paths
            # is unsafe to detect here, so require strictly cheaper.
            if alt < e.cost - 1e-12:
                # the SD walk may have used the edge itself; re-check by
                # requiring an alternative: recompute without is overkill —
                # the walk relaxes via the edge only with length >= cost, so
                # alt < cost implies an alternative path. Safe to delete.
                graph.delete_edge(eid)
                reductions += 1
    return reductions


def shortest_path_heuristic(
    graph: SteinerGraph,
    start: int | None = None,
    cost_override: dict[int, float] | None = None,
) -> tuple[list[int], float] | None:
    """TM construction: grow a tree by repeatedly connecting the nearest
    unconnected terminal via a shortest path.

    Returns (edge ids, cost under the *true* costs) or None when some
    terminal is unreachable. ``cost_override`` only biases the path
    search (LP guidance), never the reported cost.
    """
    terms = [int(t) for t in graph.terminals]
    if not terms:
        return [], 0.0
    if start is None:
        start = terms[0]
    in_tree = {start}
    tree_edges: set[int] = set()
    unconnected = set(terms) - in_tree

    while unconnected:
        # multi-source Dijkstra from the current tree
        dist = np.full(graph.n, math.inf)
        pred = np.full(graph.n, -1, dtype=np.int64)
        heap: list[tuple[float, int]] = []
        for v in in_tree:
            dist[v] = 0.0
            heapq.heappush(heap, (0.0, v))
        target: int | None = None
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v in unconnected:
                target = v
                break
            for w, eid, cost in graph.neighbors(v):
                if cost_override is not None:
                    cost = cost_override.get(eid, cost)
                nd = d + cost
                if nd < dist[w] - 1e-12:
                    dist[w] = nd
                    pred[w] = eid
                    heapq.heappush(heap, (nd, w))
        if target is None:
            return None
        v = target
        while pred[v] >= 0 and v not in in_tree:
            eid = int(pred[v])
            tree_edges.add(eid)
            in_tree.add(v)
            v = graph.edges[eid].other(v)
        in_tree.add(target)
        unconnected.discard(target)

    # polish: MST over the chosen vertices, then strip useless leaves
    vertices = set()
    for eid in tree_edges:
        e = graph.edges[eid]
        vertices.add(e.u)
        vertices.add(e.v)
    vertices |= set(terms)
    mst = mst_on_subgraph(graph, vertices)
    if mst is not None:
        tree_edges = set(mst[0])
    pruned, cost = prune_steiner_tree(graph, sorted(tree_edges))
    return pruned, cost


def repeated_shortest_path_heuristic(
    graph: SteinerGraph,
    n_starts: int = 8,
    seed: int = 0,
    cost_override: dict[int, float] | None = None,
) -> tuple[list[int], float] | None:
    """TM from several start terminals (and random non-terminals); best kept."""
    terms = [int(t) for t in graph.terminals]
    if not terms:
        return [], 0.0
    rng = make_rng(seed)
    starts: list[int] = terms[: max(1, n_starts // 2)]
    alive = graph.alive_vertices()
    if len(alive) and n_starts > len(starts):
        extra = rng.choice(alive, size=min(n_starts - len(starts), len(alive)), replace=False)
        starts.extend(int(v) for v in extra)
    best: tuple[list[int], float] | None = None
    for s in starts:
        res = shortest_path_heuristic(graph, s, cost_override)
        if res is not None and (best is None or res[1] < best[1] - 1e-12):
            best = res
    return best
