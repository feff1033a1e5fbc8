"""Seeded SPG instance generators.

The paper's hard instances come from the PUC test set, whose three
families are themselves synthetic constructions (Rosseti et al. 2001):
hypercubes (``hc``), code covering graphs (``cc``) and bipartite
instances (``bip``), each in unit-cost (``u``) and perturbed-cost (``p``)
variants. These generators follow the published constructions at
reduced scale — crucially preserving the PUC hallmark the paper relies
on: *presolve removes almost nothing* (see DESIGN.md §4).
"""

from __future__ import annotations

import itertools

from repro.exceptions import GraphError
from repro.steiner.graph import SteinerGraph
from repro.utils import make_rng


def _costs(rng, m: int, perturbed: bool) -> list[float]:
    if not perturbed:
        return [1.0] * m
    # PUC 'p' variants use small random integer weights
    return [float(w) for w in rng.integers(1, 11, size=m)]


def hypercube_instance(dim: int, perturbed: bool = False, seed: int = 0) -> SteinerGraph:
    """``hc{dim}u``/``hc{dim}p`` analogue: d-dimensional hypercube.

    Vertices are the 2^d binary words, edges join Hamming-1 neighbours and
    terminals are the even-parity words — so |T| = |V|/2 and every
    non-terminal is adjacent only to terminals, defeating degree and SD
    tests exactly like the original family.
    """
    if not 2 <= dim <= 16:
        raise GraphError("hypercube dimension must be in [2, 16]")
    rng = make_rng(seed)
    n = 1 << dim
    g = SteinerGraph.create(n)
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    costs = _costs(rng, len(edges), perturbed)
    for (u, v), c in zip(edges, costs):
        g.add_edge(u, v, c)
    for v in range(n):
        if bin(v).count("1") % 2 == 0:
            g.set_terminal(v)
    return g


def code_cover_instance(
    length: int,
    alphabet: int,
    perturbed: bool = False,
    seed: int = 0,
    terminal_fraction: float = 0.5,
) -> SteinerGraph:
    """``cc{length}-{alphabet}`` analogue: code covering graph.

    Vertices are words of ``length`` symbols over an ``alphabet``-ary
    alphabet; edges join words at Hamming distance one. A deterministic
    pseudo-random subset of vertices (``terminal_fraction``) is chosen as
    terminals, mirroring the covering-code flavour of the family.
    """
    n = alphabet**length
    if n > 1 << 16:
        raise GraphError("code cover instance too large")
    rng = make_rng(seed)
    words = list(itertools.product(range(alphabet), repeat=length))
    index = {w: i for i, w in enumerate(words)}
    g = SteinerGraph.create(n)
    edges = []
    for w, i in index.items():
        for pos in range(length):
            for sym in range(alphabet):
                if sym == w[pos]:
                    continue
                w2 = w[:pos] + (sym,) + w[pos + 1 :]
                j = index[w2]
                if i < j:
                    edges.append((i, j))
    costs = _costs(rng, len(edges), perturbed)
    for (u, v), c in zip(edges, costs):
        g.add_edge(u, v, c)
    k = max(2, int(n * terminal_fraction))
    terms = rng.choice(n, size=k, replace=False)
    for t in terms:
        g.set_terminal(int(t))
    return g


def bipartite_instance(
    n_left: int,
    n_right: int,
    degree: int = 3,
    perturbed: bool = True,
    seed: int = 0,
) -> SteinerGraph:
    """``bip`` analogue: terminals on the left, Steiner vertices on the right.

    Every left (terminal) vertex connects to ``degree`` random right
    vertices; right vertices are additionally sparsely interconnected.
    The resulting set-cover-like structure resists reductions, as in PUC.
    """
    rng = make_rng(seed)
    n = n_left + n_right
    g = SteinerGraph.create(n)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for left in range(n_left):
        picks = rng.choice(n_right, size=min(degree, n_right), replace=False)
        for r in picks:
            pair = (left, n_left + int(r))
            if pair not in seen:
                seen.add(pair)
                edges.append(pair)
    # sparse right-right backbone keeps the instance connected
    right_order = rng.permutation(n_right)
    for i in range(n_right - 1):
        pair = (n_left + int(right_order[i]), n_left + int(right_order[i + 1]))
        key = (min(pair), max(pair))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    extra = max(n_right // 2, 1)
    for _ in range(extra):
        a, b = rng.choice(n_right, size=2, replace=False)
        pair = (n_left + int(min(a, b)), n_left + int(max(a, b)))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            edges.append(pair)
    costs = _costs(rng, len(edges), perturbed)
    for (u, v), c in zip(edges, costs):
        g.add_edge(u, v, c)
    for t in range(n_left):
        g.set_terminal(t)
    return g


def grid_instance(rows: int, cols: int, n_terminals: int, perturbed: bool = True, seed: int = 0) -> SteinerGraph:
    """Rectangular grid with random terminals — an easy, reduction-friendly
    family for tests and examples (the opposite of PUC)."""
    rng = make_rng(seed)
    n = rows * cols
    g = SteinerGraph.create(n)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    costs = _costs(rng, len(edges), perturbed)
    for (u, v), cst in zip(edges, costs):
        g.add_edge(u, v, cst)
    if n_terminals < 2 or n_terminals > n:
        raise GraphError("need 2 <= n_terminals <= rows*cols")
    for t in rng.choice(n, size=n_terminals, replace=False):
        g.set_terminal(int(t))
    return g


def random_instance(n: int, m: int, n_terminals: int, seed: int = 0, max_cost: int = 20) -> SteinerGraph:
    """Connected Erdos–Renyi-style instance with integer costs."""
    if m < n - 1:
        raise GraphError("need m >= n - 1 for connectivity")
    if m > n * (n - 1) // 2:
        raise GraphError(f"a simple graph on {n} vertices has at most {n * (n - 1) // 2} edges, not {m}")
    rng = make_rng(seed)
    g = SteinerGraph.create(n)
    seen: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(n - 1):  # random spanning tree first
        u, v = int(order[i]), int(order[i + 1])
        seen.add((min(u, v), max(u, v)))
    while len(seen) < m:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        seen.add((int(min(u, v)), int(max(u, v))))
    for u, v in sorted(seen):
        g.add_edge(u, v, float(rng.integers(1, max_cost + 1)))
    for t in rng.choice(n, size=n_terminals, replace=False):
        g.set_terminal(int(t))
    return g
