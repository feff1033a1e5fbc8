"""SPG primal heuristics: TM construction, MST polish, key-vertex search.

The shortest-path (Takahashi–Matsuyama, "TM") heuristic with repeated
starts is SCIP-Jack's main constructive heuristic; during branch-and-cut
it is re-run with LP-biased edge costs. Its searches run on plain lists,
over one adjacency per call that already carries the biased costs and
that all starts share. ``local_search`` implements steiner-vertex
insertion/elimination moves.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.steiner.graph import SteinerGraph
from repro.steiner.mst import mst_on_subgraph, prune_steiner_tree
from repro.steiner.shortest_paths import dijkstra, extract_path
from repro.utils import make_rng


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
    return _tm(graph, _search_rows(graph, cost_override), start)


def _search_rows(graph: SteinerGraph, cost_override: dict[int, float] | None) -> list:
    """``graph.neighbors(v)`` for every vertex, with ``cost_override``
    already applied to the costs: the adjacency one TM search walks."""
    if cost_override is None:
        return [graph.neighbors(v) for v in range(graph.n)]
    get = cost_override.get
    return [[(w, eid, get(eid, c)) for w, eid, c in graph.neighbors(v)] for v in range(graph.n)]


def _tm(graph: SteinerGraph, rows: list, start: int | None) -> tuple[list[int], float] | None:
    """:func:`shortest_path_heuristic` over prepared search ``rows``."""
    terms = [int(t) for t in graph.terminals]
    if not terms:
        return [], 0.0
    if start is None:
        start = terms[0]
    in_tree = {start}
    tree_edges: set[int] = set()
    unconnected = set(terms) - in_tree
    push, pop = heapq.heappush, heapq.heappop

    while unconnected:
        # multi-source Dijkstra from the current tree
        dist = [math.inf] * graph.n
        pred = [-1] * graph.n
        heap: list[tuple[float, int]] = []
        for v in in_tree:
            dist[v] = 0.0
            push(heap, (0.0, v))
        target: int | None = None
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            if v in unconnected:
                target = v
                break
            for w, eid, cost in rows[v]:
                nd = d + cost
                if nd < dist[w] - 1e-12:
                    dist[w] = nd
                    pred[w] = eid
                    push(heap, (nd, w))
        if target is None:
            return None
        v = target
        while pred[v] >= 0 and v not in in_tree:
            eid = pred[v]
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
    """TM from several start terminals (and random non-terminals); best kept.
    The starts share one search adjacency."""
    terms = [int(t) for t in graph.terminals]
    if not terms:
        return [], 0.0
    rng = make_rng(seed)
    starts: list[int] = terms[: max(1, n_starts // 2)]
    alive = graph.alive_vertices()
    if len(alive) and n_starts > len(starts):
        extra = rng.choice(alive, size=min(n_starts - len(starts), len(alive)), replace=False)
        starts.extend(int(v) for v in extra)
    rows = _search_rows(graph, cost_override)
    best: tuple[list[int], float] | None = None
    for s in starts:
        res = _tm(graph, rows, s)
        if res is not None and (best is None or res[1] < best[1] - 1e-12):
            best = res
    return best


def mst_construction_heuristic(
    graph: SteinerGraph,
    cost_override: dict[int, float] | None = None,
) -> tuple[list[int], float] | None:
    """KMB-style MST construction (Kou–Markowsky–Berman).

    Build the metric closure over the terminals (Dijkstra per terminal),
    take Prim's MST of that closure, replace each closure edge by its
    shortest path, and polish with an MST + prune pass on the union.
    Returns (edge ids, cost under the true costs) or None when some
    terminal is unreachable. Complements TM: on incidence-weighted and
    grid-like instances the two constructions pick different trees.
    """
    terms = [int(t) for t in graph.terminals]
    if not terms:
        return [], 0.0
    if len(terms) == 1:
        return [], 0.0
    target_set = set(terms)
    dists: dict[int, np.ndarray] = {}
    preds: dict[int, np.ndarray] = {}
    for t in terms:
        dist, pred = dijkstra(graph, t, targets=target_set, cost_override=cost_override)
        dists[t] = dist
        preds[t] = pred
    # Prim over the metric closure, tracking which closure edge joins each
    # newly spanned terminal
    in_mst = {terms[0]}
    best_src = {t: terms[0] for t in terms[1:]}
    tree_edges: set[int] = set()
    while len(in_mst) < len(terms):
        cand, cand_src, cand_d = None, None, math.inf
        for t in terms:
            if t in in_mst:
                continue
            src = best_src[t]
            d = float(dists[src][t])
            if d < cand_d - 1e-12:
                cand, cand_src, cand_d = t, src, d
        if cand is None or not math.isfinite(cand_d):
            return None  # disconnected terminal set
        tree_edges.update(extract_path(graph, preds[cand_src], cand))
        in_mst.add(cand)
        for t in terms:
            if t not in in_mst and float(dists[cand][t]) < float(dists[best_src[t]][t]) - 1e-12:
                best_src[t] = cand
    vertices = set(terms)
    for eid in tree_edges:
        e = graph.edges[eid]
        vertices.add(e.u)
        vertices.add(e.v)
    mst = mst_on_subgraph(graph, vertices)
    if mst is not None:
        tree_edges = set(mst[0])
    return prune_steiner_tree(graph, sorted(tree_edges))


def key_vertex_local_search(
    graph: SteinerGraph,
    edge_ids: list[int],
    max_rounds: int = 3,
    seed: int = 0,
) -> tuple[list[int], float]:
    """Uchoa–Werneck-style key-vertex elimination/insertion local search.

    Key vertices are the non-terminal tree vertices of tree-degree >= 3 —
    the branching points whose removal restructures the tree the most.
    Each round tries, in a seeded first-improvement order: (a) eliminating
    a key vertex and reconnecting via MST over the remaining vertex set,
    (b) inserting an outside vertex adjacent to >= 2 tree vertices (the
    only candidates that can create a shortcut). Unlike ``local_search``
    it never scans every tree vertex, so it stays cheap on large trees.
    """
    current = list(edge_ids)
    current_cost = sum(graph.edges[e].cost for e in current)
    rng = make_rng(seed)

    def tree_info(edges_: list[int]) -> tuple[set[int], dict[int, int]]:
        vs: set[int] = set()
        deg: dict[int, int] = {}
        for eid in edges_:
            e = graph.edges[eid]
            vs.add(e.u)
            vs.add(e.v)
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        vs.update(int(t) for t in graph.terminals)
        return vs, deg

    def try_vertex_set(trial: set[int]) -> tuple[list[int], float] | None:
        mst = mst_on_subgraph(graph, trial)
        if mst is None:
            return None
        pruned, cost = prune_steiner_tree(graph, mst[0])
        if cost < current_cost - 1e-9:
            return pruned, cost
        return None

    for _round in range(max_rounds):
        improved = False
        vertices, deg = tree_info(current)
        key_vertices = [v for v in sorted(vertices) if deg.get(v, 0) >= 3 and not graph.is_terminal(v)]
        if key_vertices:
            rng.shuffle(key_vertices)
        for cand in key_vertices:
            res = try_vertex_set(vertices - {cand})
            if res is not None:
                current, current_cost = res
                improved = True
                vertices, deg = tree_info(current)
        # insertion: outside vertices touching the tree at >= 2 points
        touch: dict[int, int] = {}
        for v in vertices:
            for w, _eid, _c in graph.neighbors(v):
                if w not in vertices:
                    touch[w] = touch.get(w, 0) + 1
        candidates = [v for v, k in sorted(touch.items()) if k >= 2]
        if candidates:
            rng.shuffle(candidates)
        for cand in candidates:
            res = try_vertex_set(vertices | {cand})
            if res is not None:
                current, current_cost = res
                improved = True
                vertices, _deg = tree_info(current)
        if not improved:
            break
    return current, current_cost


def local_search(
    graph: SteinerGraph,
    edge_ids: list[int],
    max_rounds: int = 3,
) -> tuple[list[int], float]:
    """Steiner-vertex insertion/elimination local search.

    Insertion: adding a vertex to the tree's vertex set and re-running the
    MST can shortcut expensive tree paths. Elimination: dropping a
    non-terminal key vertex (degree >= 3 in the tree) and reconnecting via
    MST may also improve. Accepts first-improvement moves until a round
    yields nothing.
    """
    current = list(edge_ids)
    current_cost = sum(graph.edges[e].cost for e in current)

    def tree_vertices(edges_: list[int]) -> set[int]:
        vs: set[int] = set()
        for eid in edges_:
            e = graph.edges[eid]
            vs.add(e.u)
            vs.add(e.v)
        vs.update(int(t) for t in graph.terminals)
        return vs

    for _round in range(max_rounds):
        improved = False
        vertices = tree_vertices(current)
        # insertion candidates: neighbours of the tree
        candidates: set[int] = set()
        for v in vertices:
            for w, _eid, _c in graph.neighbors(v):
                if w not in vertices:
                    candidates.add(w)
        for cand in sorted(candidates):
            trial = vertices | {cand}
            mst = mst_on_subgraph(graph, trial)
            if mst is None:
                continue
            pruned, cost = prune_steiner_tree(graph, mst[0])
            if cost < current_cost - 1e-9:
                current, current_cost = pruned, cost
                improved = True
                vertices = tree_vertices(current)
        # elimination candidates: non-terminal tree vertices
        for cand in sorted(vertices):
            if graph.is_terminal(cand):
                continue
            trial = vertices - {cand}
            mst = mst_on_subgraph(graph, trial)
            if mst is None:
                continue
            pruned, cost = prune_steiner_tree(graph, mst[0])
            if cost < current_cost - 1e-9:
                current, current_cost = pruned, cost
                improved = True
                vertices = tree_vertices(current)
        if not improved:
            break
    return current, current_cost
