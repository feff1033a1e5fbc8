"""Wong's dual ascent for the Steiner arborescence problem.

Produces (i) a lower bound, (ii) reduced costs supporting that bound,
(iii) root/terminal reduced-cost distances for arc fixing, and (iv) the
saturated-arc support that seeds the initial LP of the branch-and-cut
(the constraint-selection role described in the paper's §3.1).  Every
terminal's component is grown from the arcs that saturate, never searched
afresh, and the ascent runs on plain lists; it returns numpy arrays.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.steiner.transformations import SAPDigraph


@dataclass
class DualAscentResult:
    lower_bound: float
    reduced_costs: np.ndarray
    root_dist: np.ndarray  # reduced-cost distance root -> v
    term_dist: np.ndarray  # reduced-cost distance v -> nearest non-root terminal
    saturated_arcs: np.ndarray  # bool per arc

    def arc_fixing_bound(self, a: int, tail: int, head: int) -> float:
        """Lower bound on any solution that uses arc ``a``."""
        return (
            self.lower_bound
            + self.root_dist[tail]
            + self.reduced_costs[a]
            + self.term_dist[head]
        )


def dual_ascent(sap: SAPDigraph, eps: float = 1e-9, max_sweeps: int = 10_000) -> DualAscentResult:
    """Run Wong's dual ascent; deterministic given the instance.

    Active terminals are processed smallest-component-first (the standard
    guiding rule); each step raises the dual of the component's cut by the
    minimum entering reduced cost.  A terminal's component (the vertices
    that reach it over arcs of reduced cost ``<= eps``) only grows, since
    reduced costs only fall, and only through an arc that saturated since
    the terminal's last look and whose head it already holds.  So each
    component is kept across sweeps, with its cut arcs and a cursor into
    the list of saturation events, and is extended from the new events
    alone: the same sets a fresh reverse search per sweep would find.
    """
    rc = sap.arc_cost.astype(float).tolist()
    lb = 0.0
    active = deque(sorted(sap.sinks()))
    sweeps = 0
    tail_of, head_of, in_arcs = sap.arc_tail.tolist(), sap.arc_head.tolist(), sap.in_arcs
    sat = bytearray(r <= eps for r in rc)
    events: list[int] = []  # arcs in the order their reduced cost fell to <= eps
    comps: dict[int, list] = {}  # terminal -> [mask, size, events seen, cut arcs]

    def grow(state: list, stack: list[int]) -> None:
        """Close the component under saturated in-arcs of the ``stack``
        vertices (already in it), collecting their in-arcs as cut arcs."""
        mask, cut = state[0], state[3]
        while stack:
            arcs = in_arcs[stack.pop()]
            cut.extend(arcs)
            for a in arcs:
                u = tail_of[a]
                if sat[a] and not mask[u]:
                    mask[u] = 1
                    state[1] += 1
                    stack.append(u)

    while active and sweeps < max_sweeps:
        sweeps += 1
        # pick terminal with the smallest zero-reachable component
        best: list | None = None
        for t in list(active):
            state = comps.get(t)
            if state is None:
                state = comps[t] = [bytearray(sap.n), 1, len(events), []]
                state[0][t] = 1
                grow(state, [t])
            elif state[2] < len(events):
                mask, stack = state[0], []
                for a in events[state[2] :]:
                    u = tail_of[a]
                    if not mask[u] and mask[head_of[a]]:
                        mask[u] = 1
                        state[1] += 1
                        stack.append(u)
                state[2] = len(events)
                if stack:
                    grow(state, stack)
            if state[0][sap.root]:
                active.remove(t)
                continue
            if best is None or state[1] < best[1]:
                best = state
        if best is None:
            break
        # the cut: arcs entering the component from outside
        mask = best[0]
        cut = best[3] = [a for a in best[3] if not mask[tail_of[a]]]
        if not cut:
            # root genuinely unreachable: infinite bound (infeasible SPG)
            lb = math.inf
            break
        delta = min(rc[a] for a in cut)
        if delta <= eps:
            # numerically saturated already; grow handled next sweep
            delta = 0.0
        lb += delta
        if delta > 0.0:
            for a in cut:
                rc[a] = max(rc[a] - delta, 0.0)
                if rc[a] <= eps:
                    sat[a] = 1
                    events.append(a)
        # re-test this terminal next round; rotate the queue for fairness
        active.rotate(-1)

    root_dist = _rc_dijkstra(sap.n, rc, [sap.root], head_of, sap.out_arcs)
    term_dist = _rc_dijkstra(sap.n, rc, sap.sinks(), tail_of, in_arcs)
    rc_arr = np.array(rc, dtype=float)
    return DualAscentResult(lb, rc_arr, root_dist, term_dist, rc_arr <= eps)


def _rc_dijkstra(
    n: int, rc: list[float], sources: list[int], ends: list[int], arcs_of: list[list[int]]
) -> np.ndarray:
    """Reduced-cost distances from ``sources`` along ``arcs_of[v]`` (out-arcs
    with ``ends`` the heads, or in-arcs with ``ends`` the tails for the
    distance *to* the nearest source)."""
    dist = [math.inf] * n
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        for a in arcs_of[v]:
            w = ends[a]
            nd = d + rc[a]
            if nd < dist[w] - 1e-12:
                dist[w] = nd
                push(heap, (nd, w))
    return np.array(dist, dtype=float)
