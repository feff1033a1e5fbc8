"""Open-node storage with best-bound and DFS/plunging selection."""

from __future__ import annotations

import heapq
import itertools
import math

from repro.cip.node import Node


class NodeTree:
    """Priority queue over open nodes.

    ``bestbound`` pops the node with the smallest lower bound; ``dfs``
    pops the deepest, most recently created node. Plunging (bounded-depth
    DFS after a best-bound pick) is handled by the solver, which may push
    children and immediately re-pop.
    """

    def __init__(self, selection: str = "bestbound") -> None:
        if selection not in ("bestbound", "dfs"):
            raise ValueError(f"unknown node selection {selection!r}")
        self.selection = selection
        self._heap: list[tuple[tuple[float, ...], int, Node]] = []
        self._counter = itertools.count()
        self._size = 0

    def _key(self, node: Node, tick: int) -> tuple[float, ...]:
        if self.selection == "bestbound":
            return (node.lower_bound, float(node.depth), float(tick))
        return (-float(node.depth), -float(tick))

    def push(self, node: Node) -> None:
        tick = next(self._counter)
        heapq.heappush(self._heap, (self._key(node, tick), tick, node))
        self._size += 1

    def pop(self) -> Node:
        _, _, node = heapq.heappop(self._heap)
        self._size -= 1
        return node

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def best_bound(self) -> float:
        """Smallest lower bound among open nodes (inf if empty)."""
        if not self._heap:
            return math.inf
        return min(node.lower_bound for _, _, node in self._heap)

    def prune_worse_than(self, cutoff: float) -> int:
        """Drop all nodes whose bound is >= cutoff; returns how many."""
        keep = [(k, t, n) for k, t, n in self._heap if n.lower_bound < cutoff]
        dropped = len(self._heap) - len(keep)
        if dropped:
            self._heap = keep
            heapq.heapify(self._heap)
            self._size = len(keep)
        return dropped

    def extract_heaviest(self) -> Node | None:
        """Remove and return the 'heaviest' open node for load balancing.

        UG transfers nodes expected to generate large subtrees; the best
        available proxy is the shallowest node with the best (smallest)
        lower bound.
        """
        if not self._heap:
            return None
        best_i = min(
            range(len(self._heap)),
            key=lambda i: (self._heap[i][2].depth, self._heap[i][2].lower_bound),
        )
        _, _, node = self._heap.pop(best_i)
        heapq.heapify(self._heap)
        self._size -= 1
        return node
