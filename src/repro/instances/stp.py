"""Seeded STP generator families for the instance zoo.

Six deterministic families spanning the shapes the paper's computational
study draws on (SteinLib-style test sets), following the FrontierCO STP
toolkit's generator interface (SNIPPETS.md snippet 2):

* ``hypercube`` — ``hc``-style d-cubes (dimensions 4-10) with a random
  terminal subset; the reduction-resistant PUC flavour.
* ``orlib_random`` — OR-Library B/C/D-class random sparse graphs with
  small integer costs.
* ``orlib_euclidean`` — random points in the unit square joined to their
  nearest neighbours with Euclidean (float) costs; exercises the
  non-integer cost path of the ``.stp`` writer.
* ``pace`` — PACE-2018-shaped: a random tree plus a few short chords,
  i.e. sparse and low-treewidth-ish.
* ``grid_holes`` — geometric grid with rectangular holes carved out
  (holes that would disconnect the grid are skipped deterministically).
* ``incidence`` — incidence-weighted: edge costs derive from vertex
  weights (``w_u + w_v``), so cheap edges cluster around light vertices.

Every builder is a pure function of its arguments — calling it twice
with the same seed yields a byte-identical ``.stp`` serialization, which
the property suite asserts.
"""

from __future__ import annotations

import math
from collections import deque

from repro.exceptions import GraphError
from repro.steiner.graph import SteinerGraph
from repro.utils import make_rng


def _pick_terminals(g: SteinerGraph, rng, count: int) -> None:
    alive = [int(v) for v in g.alive_vertices()]
    count = max(2, min(count, len(alive)))
    for t in rng.choice(len(alive), size=count, replace=False):
        g.set_terminal(alive[int(t)])


def _connected(g: SteinerGraph) -> bool:
    alive = [int(v) for v in g.alive_vertices()]
    if not alive:
        return False
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        v = queue.popleft()
        for w, _eid, _c in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(alive)


def hypercube(
    dim: int = 6,
    terminal_fraction: float = 0.5,
    perturbed: bool = True,
    parity_terminals: bool = False,
    seed: int = 0,
) -> SteinerGraph:
    """``hc{dim}``-style d-dimensional hypercube with random terminals.

    ``parity_terminals`` switches to the published PUC construction
    (terminals = even-parity words, so every non-terminal neighbours only
    terminals), the variant that defeats degree/SD reductions — used by
    the portfolio-racing bench precisely because presolve removes almost
    nothing from it.
    """
    if not 2 <= dim <= 12:
        raise GraphError("hypercube dimension must be in [2, 12]")
    rng = make_rng(seed)
    n = 1 << dim
    g = SteinerGraph.create(n)
    for v in range(n):
        for b in range(dim):
            w = v ^ (1 << b)
            if v < w:
                cost = float(rng.integers(1, 11)) if perturbed else 1.0
                g.add_edge(v, w, cost)
    if parity_terminals:
        for v in range(n):
            if bin(v).count("1") % 2 == 0:
                g.set_terminal(v)
    else:
        _pick_terminals(g, rng, int(round(n * terminal_fraction)))
    return g


def orlib_random(n: int = 40, m: int = 90, n_terminals: int = 8, max_cost: int = 10, seed: int = 0) -> SteinerGraph:
    """OR-Library B/C/D-class shape: random sparse graph, integer costs."""
    if m < n - 1:
        raise GraphError("need m >= n - 1 edges for connectivity")
    if m > n * (n - 1) // 2:
        raise GraphError(f"a simple graph on {n} vertices has at most {n * (n - 1) // 2} edges, not {m}")
    rng = make_rng(seed)
    g = SteinerGraph.create(n)
    seen: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(n - 1):  # spanning tree backbone keeps the graph connected
        u, v = int(order[i]), int(order[i + 1])
        seen.add((min(u, v), max(u, v)))
    while len(seen) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            seen.add((min(u, v), max(u, v)))
    for u, v in sorted(seen):
        g.add_edge(u, v, float(rng.integers(1, max_cost + 1)))
    _pick_terminals(g, rng, n_terminals)
    return g


def orlib_euclidean(
    n: int = 30, n_terminals: int = 6, k_nearest: int = 4, rounded: bool = False, seed: int = 0
) -> SteinerGraph:
    """E-class shape: uniform random points, k-nearest edges, Euclidean costs.

    ``rounded`` snaps each cost to ``max(1, round(10 * dist))`` — the
    OR-Library convention of integer-rounded Euclidean distances, which
    introduces the cost ties that make these instances harder to reduce.
    """
    rng = make_rng(seed)
    pts = rng.random((n, 2))
    g = SteinerGraph.create(n)
    seen: set[tuple[int, int]] = set()

    def dist(u: int, v: int) -> float:
        d = math.hypot(pts[u, 0] - pts[v, 0], pts[u, 1] - pts[v, 1])
        return float(max(1, round(10 * d))) if rounded else d

    for u in range(n):
        near = sorted((v for v in range(n) if v != u), key=lambda v: dist(u, v))
        for v in near[:k_nearest]:
            seen.add((min(u, v), max(u, v)))
    # nearest-neighbour graphs can fall apart into clusters: stitch the
    # components along the x-sorted order so the instance stays connected
    by_x = sorted(range(n), key=lambda v: (float(pts[v, 0]), float(pts[v, 1])))
    for a, b in zip(by_x, by_x[1:]):
        seen.add((min(a, b), max(a, b)))
    for u, v in sorted(seen):
        g.add_edge(u, v, dist(u, v))
    _pick_terminals(g, rng, n_terminals)
    return g


def pace(n: int = 40, n_chords: int = 10, n_terminals: int = 8, max_cost: int = 20, seed: int = 0) -> SteinerGraph:
    """PACE-2018-shaped: a random tree plus short chords (low treewidth)."""
    rng = make_rng(seed)
    g = SteinerGraph.create(n)
    parent = [0] * n
    for v in range(1, n):  # random recursive tree
        parent[v] = int(rng.integers(0, v))
        g.add_edge(v, parent[v], float(rng.integers(1, max_cost + 1)))
    seen: set[tuple[int, int]] = set()
    for _ in range(n_chords):
        v = int(rng.integers(1, n))
        # a chord to a near ancestor keeps the treewidth small
        w = v
        for _hop in range(int(rng.integers(2, 5))):
            if w == 0:
                break
            w = parent[w]
        if w != v and (min(v, w), max(v, w)) not in seen and g.find_edge(v, w) is None:
            seen.add((min(v, w), max(v, w)))
            g.add_edge(v, w, float(rng.integers(1, max_cost + 1)))
    _pick_terminals(g, rng, n_terminals)
    return g


def grid_holes(
    rows: int = 8,
    cols: int = 8,
    n_holes: int = 2,
    hole_size: int = 2,
    n_terminals: int = 6,
    perturbed: bool = True,
    seed: int = 0,
) -> SteinerGraph:
    """Geometric grid with rectangular holes carved out of the interior."""
    rng = make_rng(seed)
    n = rows * cols
    g = SteinerGraph.create(n)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1, float(rng.integers(1, 11)) if perturbed else 1.0)
            if r + 1 < rows:
                g.add_edge(v, v + cols, float(rng.integers(1, 11)) if perturbed else 1.0)
    for _ in range(n_holes):
        hr = int(rng.integers(0, max(rows - hole_size, 1)))
        hc = int(rng.integers(0, max(cols - hole_size, 1)))
        hole = [
            r * cols + c
            for r in range(hr, min(hr + hole_size, rows))
            for c in range(hc, min(hc + hole_size, cols))
        ]
        hole = [v for v in hole if g.vertex_alive[v]]
        if len(hole) >= g.num_alive_vertices - 2:
            continue
        trial = g.copy()
        for v in hole:
            trial.delete_vertex(v)
        if _connected(trial):  # a hole that would split the grid is skipped
            for v in hole:
                g.delete_vertex(v)
    _pick_terminals(g, rng, n_terminals)
    return g


def incidence(
    n: int = 30, extra_edges: int = 25, n_terminals: int = 6, max_weight: int = 9, seed: int = 0
) -> SteinerGraph:
    """Incidence-weighted: cost(u, v) = w_u + w_v over a random graph.

    ``max_weight`` caps the vertex weights; 1 yields near-unit costs,
    whose ties resist bound-based reductions (racing-bench material).
    """
    rng = make_rng(seed)
    weights = rng.integers(1, max_weight + 1, size=n)
    g = SteinerGraph.create(n)
    seen: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(n - 1):
        u, v = int(order[i]), int(order[i + 1])
        seen.add((min(u, v), max(u, v)))
    target = min(len(seen) + extra_edges, n * (n - 1) // 2)
    while len(seen) < target:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            seen.add((min(u, v), max(u, v)))
    for u, v in sorted(seen):
        g.add_edge(u, v, float(weights[u] + weights[v]))
    _pick_terminals(g, rng, n_terminals)
    return g


def stp_canonical(g: SteinerGraph) -> tuple:
    """Canonical form of the *alive* part of a graph, for round-trip equality.

    Vertex ids are compacted in sorted-alive order — exactly the
    compaction :func:`repro.steiner.stp_io.write_stp` applies — so a
    generated graph compares equal to its parsed serialization.
    """
    alive = [int(v) for v in g.alive_vertices()]
    remap = {v: i for i, v in enumerate(alive)}
    edges = sorted(
        (min(remap[g.edges[e].u], remap[g.edges[e].v]),
         max(remap[g.edges[e].u], remap[g.edges[e].v]),
         float(g.edges[e].cost))
        for e in g.alive_edges()
    )
    terminals = tuple(sorted(remap[int(t)] for t in g.terminals))
    return (len(alive), tuple(edges), terminals)
