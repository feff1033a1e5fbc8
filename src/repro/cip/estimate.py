"""Tree-size estimation and estimation-driven restart policy.

The estimator is the leaf-frequency/weighted-backtrack family (Knuth's
online estimator as used by SCIP's restart machinery): a leaf observed
at depth ``d`` carries probe weight ``2^-d`` — in a complete binary tree
the weights of all leaves sum to exactly 1, so

    estimated total leaves = leaves seen / sum of seen leaf weights

is an unbiased projection of how many leaves the finished tree will
have.  Internal nodes of a binary tree add ``leaves - 1``, giving the
total-node estimate.

:class:`RestartManager` turns the estimate into an in-solve restart
decision: once at least ``restart_min_nodes`` nodes are processed in
the current tree and the projected total is ``restart_node_factor``
times what has been processed, the tree is deemed to be blowing up and
a root restart (carrying incumbent, cuts, learned conflicts and the
proven root bound) is worth the re-exploration cost.  At most
:data:`MAX_RESTARTS` restarts are performed per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

_MAX_DEPTH = 60  # 2^-60 underflows usefulness; deeper leaves count as this
MAX_RESTARTS = 1  # in-solve restarts per solve when restarts are on


class TreeSizeEstimator:
    """Online leaf-frequency estimator of the final tree size."""

    def __init__(self) -> None:
        self.leaves_seen = 0
        self.internal_seen = 0
        self._weight_sum = 0.0

    def reset(self) -> None:
        self.leaves_seen = 0
        self.internal_seen = 0
        self._weight_sum = 0.0

    def observe_leaf(self, depth: int) -> None:
        """A node resolved without children (pruned/infeasible/solution)."""
        self.leaves_seen += 1
        self._weight_sum += 2.0 ** -min(max(depth, 0), _MAX_DEPTH)

    def observe_internal(self, depth: int) -> None:
        self.internal_seen += 1

    def estimate_total_leaves(self) -> float | None:
        if self.leaves_seen == 0 or self._weight_sum <= 0.0:
            return None
        return self.leaves_seen / self._weight_sum

    def estimate_total_nodes(self) -> float | None:
        leaves = self.estimate_total_leaves()
        if leaves is None:
            return None
        return 2.0 * leaves - 1.0

    def progress(self) -> float:
        """Tree-weight progress: fraction of the tree already resolved.

        In a binary tree the ``2^-d`` weights of *all* leaves sum to
        exactly 1, so the weights of the leaves resolved so far measure
        how much of the tree is done — the SCIP tree-weight metric.
        Unlike the leaf-frequency projection this is monotone and does
        not care in which order the search visits leaves.
        """
        return self._weight_sum

    def estimate_by_progress(self, nodes_in_tree: int) -> float | None:
        """Project the total from tree-weight progress: ``nodes / W``."""
        if self._weight_sum <= 0.0 or nodes_in_tree <= 0:
            return None
        return nodes_in_tree / min(self._weight_sum, 1.0)


@dataclass
class RestartManager:
    """Decides when an in-solve root restart is worthwhile."""

    max_restarts: int
    min_nodes: int
    node_factor: float
    done: int = 0

    def should_restart(self, estimator: TreeSizeEstimator, nodes_in_tree: int) -> bool:
        if self.done >= self.max_restarts or nodes_in_tree < self.min_nodes:
            return False
        # two projections: the leaf-frequency estimate (sharp once the
        # leaf sample is representative) and the tree-weight projection
        # (order-robust; under best-first search the early leaf sample is
        # biased shallow, which makes the frequency estimate lag *low*).
        # Restart when either says the tree is blowing up.
        candidates = [
            estimator.estimate_total_nodes(),
            estimator.estimate_by_progress(nodes_in_tree),
        ]
        est = max((e for e in candidates if e is not None), default=None)
        if est is None:
            return False
        return est >= self.node_factor * nodes_in_tree

    def note_restart(self) -> None:
        self.done += 1
