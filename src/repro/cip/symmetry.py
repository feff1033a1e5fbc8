"""Formulation symmetry: detection, orbital fixing, canonical labeling.

Detection runs 1-dimensional Weisfeiler–Leman **color refinement** with
edge labels on the variable/constraint bipartite graph of the model
(variables colored by ``(vtype, lb, ub, obj)``, constraints by
``(lhs, rhs)``, edges labeled by coefficients).  Candidate variable
permutations are built by budget-limited individualization–refinement
and then verified **exactly** against the model
(:func:`is_model_automorphism`) — a returned generator is never
heuristic.  Finding only a subgroup is always sound: subgroup orbits are
finer than true orbits, so the reduction below only gets weaker, never
wrong.

The reduction (``ParamSet.symmetry_mode="orbital"``) is Ostrowski-style
orbital fixing: at a node with branching-fixed one-set ``B1`` and
zero-set ``B0``, compute orbits of the subgroup of found generators that
stabilize ``B1`` setwise; every orbit containing a branching-zero-fixed
variable is fixed to zero entirely.  Optimality (not per-node
feasibility) is preserved: some optimal solution survives in the reduced
tree.

Under UG, every rank must derive the *identical* generator set.
Detection uses no random numbers (cells are searched in index order), so
it never depends on the per-rank ``permutation_seed``.

:func:`canonical_form` exposes the labeling machinery for reuse outside
the kernel: a budget-limited backtracking canonical labeling of a
colored graph, used by ``repro.serve`` to make instance-cache
fingerprints isomorphism-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.cip.plugins import PropagationResult, PropagationStatus, Propagator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cip.model import Model
    from repro.cip.node import Node
    from repro.cip.solver import CIPSolver

_ROUND = 9  # float bucketing for colors/labels (exactness is restored by verification)
MAX_GENERATORS = 64  # generators kept per model; a subgroup is always sound


# -- colored graphs and refinement ------------------------------------------


@dataclass
class ColoredGraph:
    """Undirected vertex-colored graph with labeled edges.

    ``adj[v]`` maps neighbor -> integer edge label.  ``colors`` are
    canonical integer ids: callers build via :func:`colored_graph` which
    normalizes arbitrary hashable color/label keys into invariant ids by
    sorted order (isomorphism-invariance of everything downstream
    depends on that normalization).
    """

    n: int
    adj: list[dict[int, int]]
    colors: list[int]


def colored_graph(
    n: int,
    color_keys: Sequence[Hashable],
    edges: Sequence[tuple[int, int, Hashable]],
) -> ColoredGraph:
    """Build a :class:`ColoredGraph` from raw hashable color/label keys."""
    color_ids = {key: i for i, key in enumerate(sorted(set(color_keys), key=repr))}
    label_ids = {key: i for i, key in enumerate(sorted({lab for _, _, lab in edges}, key=repr))}
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, lab in edges:
        adj[u][v] = label_ids[lab]
        adj[v][u] = label_ids[lab]
    return ColoredGraph(n, adj, [color_ids[key] for key in color_keys])


def refine_colors(graph: ColoredGraph, colors: Sequence[int]) -> list[int]:
    """1-WL refinement with edge labels; returns stable canonical colors.

    New color ids are assigned by sorted signature order, so the ids are
    isomorphism-invariant (two isomorphic colorings refine to the same
    id sequence up to the isomorphism).
    """
    colors = list(colors)
    for _ in range(graph.n + 1):
        sigs = [
            (colors[v], tuple(sorted((lab, colors[u]) for u, lab in graph.adj[v].items())))
            for v in range(graph.n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if new == colors:
            return new
        colors = new
    return colors


def _cells(colors: Sequence[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _individualize(graph: ColoredGraph, colors: Sequence[int], v: int) -> list[int]:
    """Split ``v`` into its own cell (standard IR step), then refine."""
    bumped = [2 * c for c in colors]
    bumped[v] -= 1
    return refine_colors(graph, bumped)


# -- model symmetry detection ------------------------------------------------


def build_model_graph(model: "Model") -> ColoredGraph:
    """Variable/constraint bipartite graph of the linear model."""
    n_vars = model.num_variables
    color_keys: list[Hashable] = [
        ("var", v.vtype.value, round(v.lb, _ROUND), round(v.ub, _ROUND), round(v.obj, _ROUND))
        for v in model.variables
    ]
    edges: list[tuple[int, int, Hashable]] = []
    for i, cons in enumerate(model.constraints):
        color_keys.append(("cons", round(cons.lhs, _ROUND), round(cons.rhs, _ROUND)))
        for j, a in cons.coefs.items():
            edges.append((n_vars + i, j, round(a, _ROUND)))
    return colored_graph(n_vars + model.num_constraints, color_keys, edges)


def is_model_automorphism(model: "Model", perm: Sequence[int]) -> bool:
    """Exact check: does the variable permutation preserve the model?"""
    tol = 10.0**-_ROUND
    for v in model.variables:
        w = model.variables[perm[v.index]]
        if (
            v.vtype is not w.vtype
            or abs(v.lb - w.lb) > tol
            or abs(v.ub - w.ub) > tol
            or abs(v.obj - w.obj) > tol
        ):
            return False

    def row_key(lhs: float, rhs: float, coefs: dict[int, float]) -> tuple:
        return (
            round(lhs, _ROUND),
            round(rhs, _ROUND),
            tuple(sorted((j, round(a, _ROUND)) for j, a in coefs.items())),
        )

    original: dict[tuple, int] = {}
    for cons in model.constraints:
        key = row_key(cons.lhs, cons.rhs, cons.coefs)
        original[key] = original.get(key, 0) + 1
    for cons in model.constraints:
        key = row_key(cons.lhs, cons.rhs, {perm[j]: a for j, a in cons.coefs.items()})
        count = original.get(key, 0)
        if count == 0:
            return False
        original[key] = count - 1
    return True


def _match_discrete(
    colors_a: Sequence[int], colors_b: Sequence[int], n_vars: int
) -> list[int] | None:
    """Map the discrete coloring A onto B by equal color id (per vertex)."""
    pos_b: dict[int, int] = {}
    for v, c in enumerate(colors_b):
        if c in pos_b:
            return None
        pos_b[c] = v
    perm = [0] * n_vars
    for v in range(n_vars):
        target = pos_b.get(colors_a[v])
        if target is None or target >= n_vars:
            return None
        perm[v] = target
    return perm


def _extend_mapping(
    graph: ColoredGraph,
    colors_a: list[int],
    colors_b: list[int],
    n_vars: int,
    budget: list[int],
) -> list[int] | None:
    """IR search for one isomorphism between two refined colorings."""
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    if sorted(colors_a) != sorted(colors_b):
        return None
    cells_a = _cells(colors_a)
    target = None
    for c in sorted(cells_a):
        if len(cells_a[c]) > 1:
            target = c
            break
    if target is None:
        return _match_discrete(colors_a, colors_b, n_vars)
    va = cells_a[target][0]
    next_a = _individualize(graph, colors_a, va)
    for vb in _cells(colors_b)[target]:
        next_b = _individualize(graph, colors_b, vb)
        perm = _extend_mapping(graph, next_a, next_b, n_vars, budget)
        if perm is not None:
            return perm
    return None


@dataclass
class SymmetryInfo:
    """Verified variable-permutation generators of the model's group."""

    generators: list[list[int]] = field(default_factory=list)
    orbits: list[list[int]] = field(default_factory=list)

    @property
    def nontrivial(self) -> bool:
        return bool(self.generators)


def find_generators(
    model: "Model",
    max_generators: int = MAX_GENERATORS,
    budget: int = 2000,
) -> SymmetryInfo:
    """Detect verified symmetry generators of the linear model.

    Deterministic: the search individualizes the first member of each
    refined cell against every other member, in index order.  A
    generator is kept only when it moves at least one *binary* variable — the propagator below
    reasons over 0/1 fixings exclusively, so a generator moving none is
    useless to it.  Generators may additionally move continuous
    variables (e.g. the flow variables riding along with edge variables
    in a flow formulation): automorphisms preserve variable type, so
    every orbit is type-homogeneous and the binary orbits remain valid
    reduction targets.
    """
    n_vars = model.num_variables
    if n_vars == 0:
        return SymmetryInfo()
    graph = build_model_graph(model)
    base = refine_colors(graph, graph.colors)
    binary = [
        v.is_integral and v.lb >= -1e-9 and v.ub <= 1.0 + 1e-9 for v in model.variables
    ]
    generators: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    search_budget = [budget]
    for cell in sorted(_cells(base)):
        members = [v for v in _cells(base)[cell] if v < n_vars]
        if len(members) < 2:
            continue
        va = members[0]
        colors_a = _individualize(graph, base, va)
        for vb in members[1:]:
            if len(generators) >= max_generators or search_budget[0] <= 0:
                break
            colors_b = _individualize(graph, base, vb)
            perm = _extend_mapping(graph, colors_a, colors_b, n_vars, search_budget)
            if perm is None:
                continue
            key = tuple(perm)
            if key in seen or all(perm[j] == j for j in range(n_vars)):
                continue
            if not any(perm[j] != j and binary[j] for j in range(n_vars)):
                continue
            if is_model_automorphism(model, perm):
                seen.add(key)
                generators.append(perm)
    info = SymmetryInfo(generators)
    info.orbits = orbits_of(n_vars, generators)
    return info


def orbits_of(n: int, generators: Sequence[Sequence[int]]) -> list[list[int]]:
    """Orbits of {0..n-1} under the group generated (union-find)."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for perm in generators:
        for j in range(n):
            ra, rb = find(j), find(perm[j])
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j)
    return [sorted(g) for g in groups.values() if len(g) > 1]


# -- reduction: the orbital-fixing propagator ---------------------------------


class OrbitalFixingPropagator(Propagator):
    """Orbital fixing over the detected generator subgroup.

    At each node: ``B1``/``B0`` are the variables fixed to 1/0 by the
    node's *branching decisions* (``node.bound_changes`` is cumulative
    branching state — propagation tightenings never persist into it, so
    this is exactly the decision path).  Orbits are computed for the
    subgroup of generators fixing ``B1`` setwise; every orbit meeting
    ``B0`` is zero-fixed entirely.  Tightenings are recorded without a
    reason (opaque) on purpose: their justification is group-theoretic,
    not propagation-logical, so conflict analysis must not resolve
    through them.
    """

    name = "orbital_fixing"
    priority = 40  # after the cheap arithmetic propagators

    def __init__(self, info: SymmetryInfo, model: "Model") -> None:
        self.info = info
        self._binary = [
            v.is_integral and v.lb >= -1e-9 and v.ub <= 1.0 + 1e-9 for v in model.variables
        ]

    def propagate(self, solver: "CIPSolver", node: "Node") -> PropagationResult:
        if not self.info.nontrivial:
            return PropagationResult()
        b1: set[int] = set()
        b0: set[int] = set()
        for j, (lo, hi) in node.bound_changes.items():
            # only binary fixings: for a general-integer variable lo>=0.5
            # means x>=1, not x==1, and the orbit argument needs fixings
            if j >= len(self._binary) or not self._binary[j]:
                continue
            if lo >= 0.5:
                b1.add(j)
            elif hi <= 0.5:
                b0.add(j)
        if not b0:
            return PropagationResult()
        stab = [g for g in self.info.generators if all(g[j] in b1 for j in b1)]
        if not stab:
            return PropagationResult()
        n = len(stab[0])
        tightened = 0
        for orbit in orbits_of(n, stab):
            if not any(j in b0 for j in orbit):
                continue
            for j in orbit:
                if j in b0:
                    continue
                lo, hi = solver.local_bounds(j)
                if lo >= 0.5:
                    # the orbit holds a one-fixed variable: this subtree
                    # keeps no symmetric representative — prune it
                    solver.stats.bump("orbital_prunes")
                    return PropagationResult(PropagationStatus.INFEASIBLE)
                if hi > 0.5 and solver.tighten_ub(j, 0.0):
                    tightened += 1
        if tightened:
            solver.stats.bump("orbital_fixings", tightened)
            return PropagationResult(PropagationStatus.REDUCED, tightened)
        return PropagationResult()


# -- canonical labeling ------------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int) -> None:
        self.left = budget


def canonical_form(graph: ColoredGraph, budget: int = 4000) -> tuple[bytes, list[int]] | None:
    """Canonical certificate + labeling of a colored graph, or None.

    Backtracking individualization–refinement: at each non-discrete
    refined coloring, branch on *every* vertex of the first non-singleton
    cell and keep the lexicographically smallest leaf certificate —
    which makes the certificate (and the argmin labeling) invariant
    under relabeling.  ``budget`` caps refinement steps; exhaustion
    returns None and the caller falls back to a non-invariant key.
    """
    state = _Budget(budget)
    best: list[tuple[bytes, list[int]] | None] = [None]

    def leaf(colors: list[int]) -> None:
        labeling = sorted(range(graph.n), key=lambda v: colors[v])
        pos = {v: i for i, v in enumerate(labeling)}
        rows = []
        for v in labeling:
            rows.append(tuple(sorted((pos[u], lab) for u, lab in graph.adj[v].items())))
        cert = repr((tuple(graph.colors[v] for v in labeling), tuple(rows))).encode()
        if best[0] is None or cert < best[0][0]:
            best[0] = (cert, labeling)

    def search(colors: list[int]) -> None:
        if state.left <= 0:
            return
        cells = _cells(colors)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            leaf(colors)
            return
        for v in cells[target]:
            if state.left <= 0:
                return
            state.left -= 1
            search(_individualize(graph, colors, v))

    search(refine_colors(graph, graph.colors))
    if state.left <= 0 or best[0] is None:
        return None
    return best[0]
