"""Prize-collecting Steiner tree problems (PCSTP) and the MWCS reduction.

SCIP-Jack's hallmark is versatility: "transforms all problem classes to
the Steiner arborescence problem (sometimes with additional
constraints)". This module implements that pipeline for the
prize-collecting Steiner tree problem and, via the classical objective
shift, the maximum-weight connected subgraph problem (MWCS) the paper
cites for its problem-specific heuristics.

PCSTP: given G = (V, E), edge costs c >= 0 and vertex prizes p >= 0,
find a tree S minimising  sum_{e in S} c(e) + sum_{v not in S} p(v).

Transformation to SAP (Gamrath et al.): add an artificial root r and,
for every vertex v with p(v) > 0, a terminal t_v with arcs

    (v, t_v) of cost 0      — collect the prize by connecting v,
    (r, t_v) of cost p(v)   — or pay the prize as a penalty,

plus 0-cost *entry* arcs (r, v) for every potential terminal v, coupled
by the additional constraint "at most one entry arc" so the chosen graph
arcs form a single tree (this is exactly the paper's "sometimes with
additional constraints"). All t_v are terminals of the SAP; a minimum
arborescence then encodes an optimal prize-collecting tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cip.branching import MostFractionalBranching
from repro.cip.model import Model, VarType
from repro.cip.params import ParamSet
from repro.cip.result import SolveStatus
from repro.cip.solver import CIPSolver
from repro.exceptions import GraphError
from repro.steiner.graph import SteinerGraph
from repro.steiner.separators import SteinerCutHandler
from repro.steiner.transformations import SAPDigraph
from repro.steiner.union_find import UnionFind
from repro.utils import make_rng


@dataclass
class PCSTP:
    """A prize-collecting Steiner tree instance."""

    graph: SteinerGraph
    prizes: np.ndarray  # one non-negative prize per vertex

    def __post_init__(self) -> None:
        self.prizes = np.asarray(self.prizes, dtype=float)
        if len(self.prizes) != self.graph.n:
            raise GraphError("need one prize per vertex")
        if np.any(self.prizes < 0):
            raise GraphError("prizes must be non-negative")

    def solution_value(self, edge_ids: list[int], vertices: set[int]) -> float:
        """Objective of a candidate tree: edge costs + foregone prizes."""
        cost = sum(self.graph.edges[e].cost for e in edge_ids)
        penalty = sum(
            float(self.prizes[v])
            for v in self.graph.alive_vertices()
            if int(v) not in vertices
        )
        return cost + penalty

    def validate(self, edge_ids: list[int], vertices: set[int]) -> float:
        """Check the solution is a tree on ``vertices``; returns its value."""
        uf = UnionFind(self.graph.n)
        for eid in edge_ids:
            e = self.graph.edges[eid]
            if e.u not in vertices or e.v not in vertices:
                raise GraphError(f"edge {eid} leaves the chosen vertex set")
            if not uf.union(e.u, e.v):
                raise GraphError(f"edge {eid} closes a cycle")
        vs = sorted(vertices)
        for v in vs[1:]:
            if not uf.connected(vs[0], v):
                raise GraphError("chosen vertices are not connected")
        if len(edge_ids) != max(len(vertices) - 1, 0):
            raise GraphError("edge count does not match a spanning tree")
        return self.solution_value(edge_ids, vertices)


@dataclass
class PCSAP:
    """SAP encoding of a PCSTP plus the bookkeeping to map back."""

    sap: SAPDigraph
    edge_of_arc: dict[int, int]  # SAP arc -> original edge id (forward arcs)
    vertex_of_terminal: dict[int, int]  # terminal node -> original vertex
    collect_arc: dict[int, int]  # original vertex -> its (v, t_v) arc
    entry_arc: dict[int, int] = field(default_factory=dict)  # vertex -> (r, v) arc


def pcstp_to_sap(instance: PCSTP) -> PCSAP:
    """Build the rooted SAP encoding described in the module docstring."""
    g = instance.graph
    potential = [int(v) for v in g.alive_vertices() if instance.prizes[int(v)] > 0]
    if not potential:
        raise GraphError("PCSTP needs at least one positive prize")
    n_orig = g.n
    root = n_orig
    term_of = {v: n_orig + 1 + i for i, v in enumerate(potential)}
    n_total = n_orig + 1 + len(potential)

    arc_tail: list[int] = []
    arc_head: list[int] = []
    arc_cost: list[float] = []
    arc_edge: list[int] = []
    edge_of_arc: dict[int, int] = {}
    collect_arc: dict[int, int] = {}

    def add_arc(t: int, h: int, c: float, eid: int = -1) -> int:
        arc_tail.append(t)
        arc_head.append(h)
        arc_cost.append(c)
        arc_edge.append(eid)
        return len(arc_tail) - 1

    for eid in g.alive_edges():
        e = g.edges[eid]
        a1 = add_arc(e.u, e.v, e.cost, eid)
        a2 = add_arc(e.v, e.u, e.cost, eid)
        edge_of_arc[a1] = eid
        edge_of_arc[a2] = eid
    entry_arc: dict[int, int] = {}
    for v in potential:
        collect_arc[v] = add_arc(v, term_of[v], 0.0)
        add_arc(root, term_of[v], float(instance.prizes[v]))
        entry_arc[v] = add_arc(root, v, 0.0)

    out_arcs: list[list[int]] = [[] for _ in range(n_total)]
    in_arcs: list[list[int]] = [[] for _ in range(n_total)]
    for a in range(len(arc_tail)):
        out_arcs[arc_tail[a]].append(a)
        in_arcs[arc_head[a]].append(a)
    sap = SAPDigraph(
        n_total,
        root,
        np.asarray(arc_tail),
        np.asarray(arc_head),
        np.asarray(arc_cost),
        np.asarray(arc_edge),
        [root] + [term_of[v] for v in potential],
        out_arcs,
        in_arcs,
    )
    return PCSAP(sap, edge_of_arc, {t: v for v, t in term_of.items()}, collect_arc, entry_arc)


@dataclass
class PCSolution:
    status: SolveStatus
    value: float
    edges: list[int]
    vertices: set[int] = field(default_factory=set)
    dual_bound: float = -math.inf
    nodes_processed: int = 0


class PrizeCollectingSolver:
    """Branch-and-cut PCSTP solver on the SAP encoding."""

    def __init__(self, instance: PCSTP, params: ParamSet | None = None, seed: int = 0) -> None:
        self.instance = instance
        self.params = params or ParamSet()
        self.seed = seed
        self.pcsap = pcstp_to_sap(instance)
        self.cip = self._build_cip()

    def _build_cip(self) -> CIPSolver:
        sap = self.pcsap.sap
        model = Model("pcstp", data=self.instance)
        for a in range(sap.num_arcs):
            model.add_variable(f"y{a}", VarType.BINARY, obj=float(sap.arc_cost[a]))
        for t in sap.sinks():
            model.add_constraint({a: 1.0 for a in sap.in_arcs[t]}, lhs=1.0, rhs=1.0)
        # the additional PCSTP constraint: at most one root entry arc
        model.add_constraint({a: 1.0 for a in self.pcsap.entry_arc.values()}, rhs=1.0)
        for v in range(sap.n):
            if v == sap.root or v in set(sap.sinks()):
                continue
            in_a = sap.in_arcs[v]
            if not in_a:
                continue
            model.add_constraint({a: 1.0 for a in in_a}, rhs=1.0)
            coefs = {a: -1.0 for a in in_a}
            for a in sap.out_arcs[v]:
                coefs[a] = coefs.get(a, 0.0) + 1.0
            model.add_constraint(coefs, lhs=0.0)
        cip = CIPSolver(model, self.params.with_changes(presolve=False))
        cip.include_constraint_handler(SteinerCutHandler(sap))
        cip.include_branching_rule(MostFractionalBranching())
        cip.include_heuristic(_PCGreedyHeuristic(self.instance, self.pcsap, self.seed))
        cip.setup()
        return cip

    def solve(self, node_limit: int | None = None, time_limit: float | None = None) -> PCSolution:
        result = self.cip.solve(node_limit=node_limit, time_limit=time_limit)
        if result.best_solution is None:
            return PCSolution(result.status, math.inf, [], set(), result.dual_bound, result.nodes_processed)
        edges, vertices = self._decode(result.best_solution.x)
        value = self.instance.validate(edges, vertices)
        return PCSolution(result.status, value, edges, vertices, result.dual_bound, result.nodes_processed)

    def _decode(self, x: np.ndarray) -> tuple[list[int], set[int]]:
        sap = self.pcsap.sap
        edges = sorted(
            {self.pcsap.edge_of_arc[a] for a in self.pcsap.edge_of_arc if x[a] > 0.5}
        )
        vertices: set[int] = set()
        for eid in edges:
            e = self.instance.graph.edges[eid]
            vertices.add(e.u)
            vertices.add(e.v)
        # isolated collected vertices: prize collected through (v, t_v)
        for v, arc in self.pcsap.collect_arc.items():
            if x[arc] > 0.5:
                vertices.add(v)
        return edges, vertices


class _PCGreedyHeuristic:
    """Primal heuristic: grow the tree from the anchor along profitable
    shortest paths, then offer the encoded arc vector."""

    name = "pc_greedy"
    priority = 50

    def __init__(self, instance: PCSTP, pcsap: PCSAP, seed: int):
        self.instance = instance
        self.pcsap = pcsap
        self.rng = make_rng(seed)

    def run(self, solver: CIPSolver, node, x) -> None:
        inst = self.instance
        g = inst.graph
        potential = sorted(self.pcsap.collect_arc, key=lambda v: -inst.prizes[v])
        if not potential:
            return
        from repro.steiner.shortest_paths import dijkstra, extract_path

        anchor = potential[0]
        vertices = {anchor}
        edges: set[int] = set()
        for v in potential[1:]:
            dist, pred = dijkstra(g, v)
            best = min(vertices, key=lambda w: dist[w])
            if not math.isfinite(dist[best]) or dist[best] >= inst.prizes[v]:
                continue  # connecting costs more than the prize
            path = extract_path(g, pred, best)
            for eid in path:
                if eid not in edges:
                    e = g.edges[eid]
                    edges.add(eid)
                    vertices.add(e.u)
                    vertices.add(e.v)
        value = inst.solution_value(sorted(edges), vertices)
        arcs = self._encode(sorted(edges), vertices)
        if arcs is not None:
            solver.add_solution(value, arcs, data={"edges": sorted(edges)}, check=True)

    def _encode(self, edges: list[int], vertices: set[int]) -> np.ndarray | None:
        sap = self.pcsap.sap
        x = np.zeros(sap.num_arcs)
        # pick any potential-terminal entry vertex inside the tree
        entries = [v for v in vertices if v in self.pcsap.entry_arc]
        if not entries:
            return None
        anchor = min(entries)
        x[self.pcsap.entry_arc[anchor]] = 1.0
        adjacency: dict[int, list[tuple[int, int]]] = {}
        g = self.instance.graph
        for eid in edges:
            e = g.edges[eid]
            adjacency.setdefault(e.u, []).append((e.v, eid))
            adjacency.setdefault(e.v, []).append((e.u, eid))
        arc_lookup = {
            (int(sap.arc_tail[a]), int(sap.arc_head[a])): a for a in self.pcsap.edge_of_arc
        }
        visited = {anchor}
        stack = [anchor]
        while stack:
            v = stack.pop()
            for w, eid in adjacency.get(v, ()):
                if w in visited:
                    continue
                a = arc_lookup.get((v, w))
                if a is None:
                    return None
                x[a] = 1.0
                visited.add(w)
                stack.append(w)
        if visited - {anchor} != vertices - {anchor} and visited != vertices:
            return None  # disconnected pick
        for v, arc in self.pcsap.collect_arc.items():
            t = int(sap.arc_head[arc])
            if v in vertices:
                x[arc] = 1.0
            else:
                # pay the penalty arc (root, t_v)
                pen = next(a for a in sap.in_arcs[t] if int(sap.arc_tail[a]) == sap.root)
                x[pen] = 1.0
        return x


# --- MWCS reduction -----------------------------------------------------------

def mwcs_to_pcstp(graph: SteinerGraph, weights: np.ndarray) -> tuple[PCSTP, float]:
    """Reduce maximum-weight connected subgraph to PCSTP.

    MWCS: choose a connected vertex set maximising the sum of (possibly
    negative) vertex weights ``w``.  Uniform shift: with ``s = max(0,
    -min w)`` every vertex gets the prize p(v) = w(v) + s >= 0 and every
    edge the cost s.  A tree on k vertices S then costs s(k-1) plus the
    foregone prizes, i.e. ``sum(p) - s - w(S)`` — the shift a vertex adds
    to its prize is paid back by exactly one edge, whatever its degree in
    the tree (splitting -w(v) over the incident edges is only right at
    tree degree 2).  Returns the PCSTP and the constant ``sum(p) - s``
    such that

        MWCS-optimum = constant - PCSTP-optimum

    over non-empty subgraphs (when no weight is positive the empty
    subgraph, of weight 0, beats them all).
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != graph.n:
        raise GraphError("need one weight per vertex")
    alive = [int(v) for v in graph.alive_vertices()]
    shift = max(0.0, -float(weights[alive].min()))
    pc_graph = graph.copy()
    for eid in pc_graph.alive_edges():
        pc_graph.edges[eid].cost = shift
    pc_graph.invalidate_caches()  # costs were rewritten in place
    prizes = np.zeros(graph.n)
    prizes[alive] = weights[alive] + shift
    return PCSTP(pc_graph, prizes), float(prizes.sum()) - shift
