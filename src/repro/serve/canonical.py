"""Canonical labeling of colored graphs: the instance-cache fingerprint.

:func:`canonical_form` is a budget-limited backtracking canonical
labeling of a vertex-colored, edge-labeled graph.  The serving layer
runs every STP instance through it
(:func:`repro.serve.runner.stp_canonical_labeling`), so two isomorphic
instances fingerprint equal and a cached solution can be translated into
the query's own edge ids.

Refinement is 1-dimensional Weisfeiler–Leman **color refinement** with
edge labels; the search individualizes every vertex of the first
non-singleton cell and keeps the lexicographically smallest leaf
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence


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


#: what one budget step is worth in vertex signatures: an individualization
#: costs a step, and every refinement round one signature per vertex
_SIGNATURES_PER_STEP = 16


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int) -> None:
        self.left = steps * _SIGNATURES_PER_STEP  # in vertex signatures


def refine_colors(graph: ColoredGraph, colors: Sequence[int], state: _Budget) -> list[int]:
    """1-WL refinement with edge labels; returns stable canonical colors.

    New color ids are assigned by sorted signature order, so the ids are
    isomorphism-invariant (two isomorphic colorings refine to the same
    id sequence up to the isomorphism).  Every vertex signature built is
    charged to ``state``.
    """
    colors = list(colors)
    for _ in range(graph.n + 1):
        state.left -= graph.n
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


def _individualize(graph: ColoredGraph, colors: Sequence[int], v: int, state: _Budget) -> list[int]:
    """Split ``v`` into its own cell (standard IR step), then refine."""
    state.left -= _SIGNATURES_PER_STEP
    bumped = [2 * c for c in colors]
    bumped[v] -= 1
    return refine_colors(graph, bumped, state)


# -- canonical labeling ------------------------------------------------------


def canonical_form(graph: ColoredGraph, budget: int = 4000) -> tuple[bytes, list[int]] | None:
    """Canonical certificate + labeling of a colored graph, or None.

    Backtracking individualization–refinement: at each non-discrete
    refined coloring, branch on *every* vertex of the first non-singleton
    cell and keep the lexicographically smallest leaf certificate —
    which makes the certificate (and the argmin labeling) invariant
    under relabeling.  ``budget`` caps the search in steps: one per
    individualization plus one per ``_SIGNATURES_PER_STEP`` vertex
    signatures its refinements build, so a large graph runs out in
    proportion to its real work.  Exhaustion returns None and the caller
    falls back to a non-invariant key.
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
            search(_individualize(graph, colors, v, state))

    search(refine_colors(graph, graph.colors, state))
    if state.left <= 0 or best[0] is None:
        return None
    return best[0]
