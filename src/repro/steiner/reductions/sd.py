"""Special-distance (SD) edge deletion test.

An edge (u, v) can be deleted if the bottleneck Steiner distance between
u and v is smaller than the edge cost: every tree using the edge can be
improved by swapping it for a cheaper terminal-separated path. We use the
restricted SD computation of :func:`bottleneck_steiner_distance`, which
only yields *upper bounds* on the SD — still sound for deletion (a
cheaper alternative path certainly exists).  One call reads the graph's
adjacency once (:class:`~repro.steiner.shortest_paths.CsrRows`) and skips
the edges it has deleted since, so its searches see what a fresh view of
the graph would show, in the same order.
"""

from __future__ import annotations

from repro.steiner.graph import SteinerGraph
from repro.steiner.shortest_paths import CsrRows, bottleneck_sd


def sd_edge_test(graph: SteinerGraph, max_visits: int = 300) -> int:
    """Delete edges dominated by the (restricted) special distance."""
    rows = CsrRows(graph)  # one adjacency for the call; deletions go to `dead`
    terminal = (graph.terminal_mask & graph.vertex_alive).tolist()
    dead: set[int] = set()
    reductions = 0
    for v in graph.alive_vertices().tolist():
        inc = graph.incident_edges(v)
        if not inc:
            continue
        limit = max(graph.edges[e].cost for e in inc)
        sd = bottleneck_sd(rows, terminal, v, limit, max_visits, dead=dead)
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
                dead.add(eid)
                reductions += 1
    return reductions
