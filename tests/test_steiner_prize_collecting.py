"""Tests for the PCSTP solver and the MWCS reduction, vs brute force."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import GraphError
from repro.steiner.instances import random_instance
from repro.steiner.mst import mst_on_subgraph
from repro.steiner.prize_collecting import (
    PCSTP,
    PrizeCollectingSolver,
    mwcs_to_pcstp,
    pcstp_to_sap,
)


def brute_force_pcstp(instance: PCSTP) -> float:
    """Enumerate connected vertex subsets (tiny graphs only)."""
    g = instance.graph
    alive = [int(v) for v in g.alive_vertices()]
    best = instance.solution_value([], set())  # pay all penalties
    for k in range(1, len(alive) + 1):
        for subset in itertools.combinations(alive, k):
            vs = set(subset)
            if k == 1:
                best = min(best, instance.solution_value([], vs))
                continue
            mst = mst_on_subgraph(g, vs)
            if mst is None:
                continue
            best = min(best, instance.solution_value(mst[0], vs))
    return best


def random_pcstp(seed: int, n: int = 7, m: int = 11) -> PCSTP:
    rng = np.random.default_rng(seed)
    g = random_instance(n, m, 2, seed=seed, max_cost=9)
    for v in range(n):
        g.terminal_mask[v] = False  # PCSTP has no hard terminals
    prizes = rng.integers(0, 13, n).astype(float)
    if prizes.max() == 0:
        prizes[0] = 5.0
    return PCSTP(g, prizes)


class TestTransformation:
    def test_terminal_per_positive_prize(self):
        inst = random_pcstp(1)
        pcsap = pcstp_to_sap(inst)
        n_potential = int(np.count_nonzero(inst.prizes > 0))
        assert len(pcsap.sap.sinks()) == n_potential
        assert len(pcsap.collect_arc) == n_potential
        assert len(pcsap.entry_arc) == n_potential

    def test_prize_validation(self):
        g = random_instance(4, 4, 2, seed=0)
        with pytest.raises(GraphError):
            PCSTP(g, np.array([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(GraphError):
            PCSTP(g, np.array([1.0, 1.0]))

    def test_all_zero_prizes_rejected(self):
        g = random_instance(4, 4, 2, seed=0)
        inst = PCSTP(g, np.zeros(4))
        with pytest.raises(GraphError):
            pcstp_to_sap(inst)


class TestSolver:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_matches_bruteforce(self, seed):
        inst = random_pcstp(seed)
        expected = brute_force_pcstp(inst)
        sol = PrizeCollectingSolver(inst, seed=seed).solve(node_limit=400)
        assert sol.value == pytest.approx(expected)
        inst.validate(sol.edges, sol.vertices)

    def test_empty_solution_when_prizes_cheap(self):
        g = random_instance(5, 7, 2, seed=3, max_cost=50)
        for v in range(5):
            g.terminal_mask[v] = False
        inst = PCSTP(g, np.full(5, 0.5))  # prizes cheaper than any edge
        sol = PrizeCollectingSolver(inst).solve(node_limit=200)
        assert sol.value == pytest.approx(brute_force_pcstp(inst))

    def test_collect_everything_when_prizes_huge(self):
        g = random_instance(5, 8, 2, seed=4, max_cost=2)
        for v in range(5):
            g.terminal_mask[v] = False
        inst = PCSTP(g, np.full(5, 100.0))
        sol = PrizeCollectingSolver(inst).solve(node_limit=200)
        assert sol.vertices == set(range(5))


class TestMWCS:
    def brute_force_mwcs(self, g, weights) -> float:
        alive = [int(v) for v in g.alive_vertices()]
        best = 0.0  # empty subgraph
        for k in range(1, len(alive) + 1):
            for subset in itertools.combinations(alive, k):
                vs = set(subset)
                if k > 1 and mst_on_subgraph(g, vs) is None:
                    continue
                best = max(best, float(sum(weights[v] for v in vs)))
        return best

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 5000))
    # weights [6,-1,3,1,-2,-4]: the optimum uses a negative vertex at tree
    # degree 1, where splitting -w(v) over incident edges undercharges it
    @example(seed=1679)
    def test_reduction_preserves_optimum(self, seed):
        rng = np.random.default_rng(seed)
        g = random_instance(6, 9, 2, seed=seed)
        for v in range(6):
            g.terminal_mask[v] = False
        weights = rng.integers(-6, 8, 6).astype(float)
        if weights.max() <= 0:
            weights[0] = 3.0
        expected = self.brute_force_mwcs(g, weights)
        pcstp, constant = mwcs_to_pcstp(g, weights)
        pc_opt = brute_force_pcstp(pcstp)
        assert constant - pc_opt == pytest.approx(expected)

    def test_end_to_end_via_solver(self):
        rng = np.random.default_rng(11)
        g = random_instance(6, 10, 2, seed=11)
        for v in range(6):
            g.terminal_mask[v] = False
        weights = np.array([4.0, -2.0, 3.0, -1.0, 5.0, -3.0])
        expected = self.brute_force_mwcs(g, weights)
        pcstp, constant = mwcs_to_pcstp(g, weights)
        sol = PrizeCollectingSolver(pcstp, seed=0).solve(node_limit=500)
        assert constant - sol.value == pytest.approx(expected)
