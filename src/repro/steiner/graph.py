"""Mutable Steiner problem graph with solution-ancestry tracking.

Reductions delete vertices/edges, replace degree-2 paths by single edges
and contract edges into terminals. To recover an *original-graph* tree
from a solution of the reduced graph, every current edge remembers the
original edge ids it represents (``ancestors``) and contractions record
original edges that are unconditionally part of every solution
(``fixed_edges``) plus their cost in ``fixed_cost``.

Vertex ids are stable — deletion marks a vertex dead rather than
renumbering — so branching decisions ("vertex v in/out of the solution")
remain meaningful across graph copies, which is exactly what UG needs to
ship Steiner subproblems between ParaSolvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GraphError


@dataclass
class _Edge:
    u: int
    v: int
    cost: float
    alive: bool = True
    ancestors: tuple[int, ...] = ()

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraphError(f"vertex {w} not an endpoint of edge ({self.u},{self.v})")


@dataclass
class SteinerGraph:
    """Undirected graph with terminals, supporting reduction operations."""

    n: int = 0
    edges: list[_Edge] = field(default_factory=list)
    adj: list[list[int]] = field(default_factory=list)
    terminal_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    vertex_alive: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    fixed_cost: float = 0.0
    fixed_edges: list[int] = field(default_factory=list)
    # structure version: bumped by every mutation, invalidates the
    # neighbor/CSR caches below (kernels call neighbors() hundreds of
    # thousands of times between mutations — rebuilding the triple list
    # each call dominated Dijkstra/bottleneck profiles)
    _version: int = field(default=0, repr=False, compare=False)
    _nbr_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _nbr_version: int = field(default=-1, repr=False, compare=False)
    _csr_cache: tuple | None = field(default=None, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, n: int) -> "SteinerGraph":
        g = cls(
            n=n,
            adj=[[] for _ in range(n)],
            terminal_mask=np.zeros(n, dtype=bool),
            vertex_alive=np.ones(n, dtype=bool),
        )
        return g

    def add_edge(self, u: int, v: int, cost: float, ancestors: tuple[int, ...] | None = None) -> int:
        """Add an edge; by default it is its own (single) ancestor."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        if cost < 0:
            raise GraphError("edge costs must be non-negative")
        eid = len(self.edges)
        anc = (eid,) if ancestors is None else tuple(ancestors)
        self.edges.append(_Edge(u, v, float(cost), True, anc))
        self.adj[u].append(eid)
        self.adj[v].append(eid)
        self._version += 1
        return eid

    def set_terminal(self, v: int, is_terminal: bool = True) -> None:
        self._check_vertex(v)
        self.terminal_mask[v] = is_terminal

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")
        if not self.vertex_alive[v]:
            raise GraphError(f"vertex {v} is deleted")

    # -- queries ---------------------------------------------------------------

    @property
    def terminals(self) -> np.ndarray:
        return np.flatnonzero(self.terminal_mask & self.vertex_alive)

    @property
    def num_terminals(self) -> int:
        return int(np.count_nonzero(self.terminal_mask & self.vertex_alive))

    @property
    def num_alive_vertices(self) -> int:
        return int(np.count_nonzero(self.vertex_alive))

    @property
    def num_alive_edges(self) -> int:
        return sum(1 for e in self.edges if e.alive)

    def alive_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.vertex_alive)

    def alive_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.alive]

    def is_terminal(self, v: int) -> bool:
        return bool(self.terminal_mask[v]) and bool(self.vertex_alive[v])

    def degree(self, v: int) -> int:
        return sum(1 for eid in self.adj[v] if self.edges[eid].alive)

    def incident_edges(self, v: int) -> list[int]:
        return [eid for eid in self.adj[v] if self.edges[eid].alive]

    def neighbors(self, v: int) -> list[tuple[int, int, float]]:
        """Alive ``(neighbor, edge_id, cost)`` triples of vertex ``v``.

        Cached per vertex until the next mutation; callers must treat the
        returned list as read-only.
        """
        if self._nbr_version != self._version:
            self._nbr_cache.clear()
            self._nbr_version = self._version
        out = self._nbr_cache.get(v)
        if out is None:
            out = []
            for eid in self.adj[v]:
                e = self.edges[eid]
                if e.alive:
                    out.append((e.other(v), eid, e.cost))
            self._nbr_cache[v] = out
        return out

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Version-cached CSR view of the alive graph for numpy kernels.

        Returns ``(indptr, nbr, eid, cost)``: the alive neighbors of
        vertex ``v`` are ``nbr[indptr[v]:indptr[v+1]]`` with matching edge
        ids and costs.  Arrays are rebuilt lazily after any mutation and
        must be treated as read-only.
        """
        cache = self._csr_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        us, vs, ids, costs = [], [], [], []
        for i, e in enumerate(self.edges):
            if e.alive:
                us.append(e.u)
                vs.append(e.v)
                ids.append(i)
                costs.append(e.cost)
        tail = np.array(us + vs, dtype=np.int64)
        head = np.array(vs + us, dtype=np.int64)
        eid2 = np.array(ids + ids, dtype=np.int64)
        cost2 = np.array(costs + costs, dtype=np.float64)
        order = np.argsort(tail, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=self.n), out=indptr[1:])
        view = (indptr, head[order], eid2[order], cost2[order])
        self._csr_cache = (self._version, view)
        return view

    def invalidate_caches(self) -> None:
        """Bump the structure version after *direct* edge mutations.

        All graph methods invalidate automatically; call this only when
        touching ``edges[...]`` fields by hand (e.g. rewriting costs in
        bulk), or the neighbors/CSR caches will serve stale data.
        """
        self._version += 1

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        e = self.edges[eid]
        return e.u, e.v

    def edge_cost(self, eid: int) -> float:
        return self.edges[eid].cost

    def edge_ancestors(self, eid: int) -> tuple[int, ...]:
        return self.edges[eid].ancestors

    def find_edge(self, u: int, v: int) -> int | None:
        """Cheapest alive edge between u and v, or None."""
        best: int | None = None
        for eid in self.adj[u]:
            e = self.edges[eid]
            if e.alive and e.other(u) == v:
                if best is None or e.cost < self.edges[best].cost:
                    best = eid
        return best

    # -- mutations (the reduction primitives) ----------------------------------

    def delete_edge(self, eid: int) -> None:
        e = self.edges[eid]
        if not e.alive:
            raise GraphError(f"edge {eid} already deleted")
        e.alive = False
        self._version += 1

    def delete_vertex(self, v: int) -> None:
        """Delete ``v`` and all incident edges. Terminals cannot be deleted."""
        self._check_vertex(v)
        if self.terminal_mask[v]:
            raise GraphError(f"cannot delete terminal {v}")
        for eid in self.adj[v]:
            if self.edges[eid].alive:
                self.edges[eid].alive = False
        self.vertex_alive[v] = False
        self._version += 1

    def replace_path(self, v: int) -> int | None:
        """Degree-2 elimination: replace ``v``'s two edges by one edge.

        Returns the new edge id, or None if an existing parallel edge was
        cheaper (in which case both old edges are simply deleted).
        """
        self._check_vertex(v)
        if self.terminal_mask[v]:
            raise GraphError(f"cannot path-contract terminal {v}")
        inc = self.incident_edges(v)
        if len(inc) != 2:
            raise GraphError(f"vertex {v} has degree {len(inc)}, need 2")
        e1, e2 = self.edges[inc[0]], self.edges[inc[1]]
        a, b = e1.other(v), e2.other(v)
        new_cost = e1.cost + e2.cost
        new_anc = e1.ancestors + e2.ancestors
        e1.alive = False
        e2.alive = False
        self.vertex_alive[v] = False
        self._version += 1
        if a == b:
            return None  # the two edges formed a cycle through v
        existing = self.find_edge(a, b)
        if existing is not None and self.edges[existing].cost <= new_cost:
            return None
        if existing is not None:
            self.edges[existing].alive = False
        return self.add_edge(a, b, new_cost, new_anc)

    def contract_into_terminal(self, eid: int, terminal: int) -> None:
        """Contract edge ``eid`` into ``terminal``: its ancestors become part
        of every solution; the other endpoint's edges are re-hooked.

        Both endpoints may be terminals (adjacent-terminal contraction) or
        the other endpoint a non-terminal (degree-1 terminal neighbour).
        """
        e = self.edges[eid]
        if not e.alive:
            raise GraphError(f"edge {eid} is deleted")
        if terminal not in (e.u, e.v):
            raise GraphError("terminal must be an endpoint of the contracted edge")
        if not self.terminal_mask[terminal]:
            raise GraphError(f"vertex {terminal} is not a terminal")
        other = e.other(terminal)
        self.fixed_cost += e.cost
        self.fixed_edges.extend(e.ancestors)
        e.alive = False
        # re-hook other's edges to terminal, keeping the cheapest parallel
        for oid in list(self.adj[other]):
            oe = self.edges[oid]
            if not oe.alive:
                continue
            w = oe.other(other)
            if w == terminal:
                oe.alive = False
                continue
            existing = self.find_edge(terminal, w)
            if existing is not None and self.edges[existing].cost <= oe.cost:
                oe.alive = False
                continue
            if existing is not None:
                self.edges[existing].alive = False
            oe.alive = False
            self.add_edge(terminal, w, oe.cost, oe.ancestors)
        # merged vertex dies; it contributes terminal-ness to the survivor
        if self.terminal_mask[other]:
            self.terminal_mask[other] = False
        self.vertex_alive[other] = False
        self._version += 1

    # -- solution helpers -------------------------------------------------------

    def expand_solution(self, edge_ids: list[int]) -> tuple[list[int], float]:
        """Map current-graph solution edges to original edge ids + cost.

        Returns (original edge ids incl. fixed edges, total original cost
        = sum of current edge costs + fixed_cost).
        """
        orig: list[int] = list(self.fixed_edges)
        cost = self.fixed_cost
        for eid in edge_ids:
            e = self.edges[eid]
            orig.extend(e.ancestors)
            cost += e.cost
        return orig, cost

    def copy(self) -> "SteinerGraph":
        g = SteinerGraph(
            n=self.n,
            edges=[_Edge(e.u, e.v, e.cost, e.alive, e.ancestors) for e in self.edges],
            adj=[list(a) for a in self.adj],
            terminal_mask=self.terminal_mask.copy(),
            vertex_alive=self.vertex_alive.copy(),
            fixed_cost=self.fixed_cost,
            fixed_edges=list(self.fixed_edges),
        )
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SteinerGraph(|V|={self.num_alive_vertices}, |E|={self.num_alive_edges}, "
            f"|T|={self.num_terminals}, fixed={self.fixed_cost:g})"
        )
