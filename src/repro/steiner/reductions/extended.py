"""Extended reduction techniques (restricted implementation).

Following Polzin's extension framework (the paper's [54]): to prove an
edge e = (u, v), with non-terminal v, is not contained in at least one
optimal Steiner tree, we show that *every* way the tree could continue
through v is dominated. In any tree S containing e, v is internal, so
the tree uses a star {(v, w) : w in Delta} at v for some neighbour
subset Delta containing u with |Delta| >= 2. If for every such Delta the
minimum spanning tree of the (restricted) bottleneck Steiner distances
over Delta — computed avoiding v — is strictly cheaper than the star,
the star can be exchanged for those SD paths, reconnecting all components
of S - star(v) at lower cost. Hence e is never needed and can be deleted.

This is the depth-one ("rather restricted", as the paper puts it) variant
of the technique; its value grows deep in the B&B tree where branching
has already deleted vertices and added terminals — exactly the interplay
the paper credits for solving bip52u.

Every edge at a center is tested against the same SD matrix of its
spokes, so one call computes it once per center and graph version
(``delete_edge`` bumps the version). The memo lives for one call only:
``set_terminal`` does not bump the version, yet it changes the SDs.
"""

from __future__ import annotations

import itertools
import math

from repro.steiner.graph import SteinerGraph
from repro.steiner.shortest_paths import bottleneck_steiner_distance


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
    for i, a in enumerate(ends[:-1]):  # the last spoke has no later partner
        sd = bottleneck_steiner_distance(graph, a, limit, max_visits, avoid=center)
        for b in ends[i + 1 :]:
            if b in sd:
                key = (min(a, b), max(a, b))
                val = sd[b]
                if val < out.get(key, math.inf):
                    out[key] = val
    return out


def _mst_cost(nodes: list[int], dist: dict[tuple[int, int], float]) -> float:
    """Prim MST over ``nodes`` with the given pair distances (inf if absent)."""
    if len(nodes) <= 1:
        return 0.0
    in_tree = {nodes[0]}
    cost = 0.0
    rest = set(nodes[1:])
    while rest:
        best = math.inf
        best_v = None
        for v in rest:
            for u in in_tree:
                d = dist.get((min(u, v), max(u, v)), math.inf)
                if d < best:
                    best, best_v = d, v
        if best_v is None or math.isinf(best):
            return math.inf
        cost += best
        in_tree.add(best_v)
        rest.discard(best_v)
    return cost


def extended_edge_test(graph: SteinerGraph, max_visits: int = 250, max_degree: int = 7) -> int:
    """Depth-one extended edge elimination; returns #deletions."""
    reductions = 0
    memo: dict[tuple[int, int], dict[tuple[int, int], float]] = {}  # (center, version) -> SDs
    for eid in list(graph.alive_edges()):
        e = graph.edges[eid]
        if not e.alive:
            continue
        for endpoint in (e.u, e.v):
            if graph.is_terminal(endpoint):
                continue
            u = e.other(endpoint)
            spokes = [(w, cost) for w, _eid, cost in graph.neighbors(endpoint)]
            if len(spokes) > max_degree or len(spokes) < 2:
                continue
            sd = memo.get((endpoint, graph._version))
            if sd is None:
                sd = memo[endpoint, graph._version] = _sd_matrix(graph, endpoint, spokes, max_visits)
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
