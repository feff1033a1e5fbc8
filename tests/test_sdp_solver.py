"""Tests for the MISDP solver: eigenvector cuts, both approaches, plugins."""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import repro.sdp.relaxator
from repro.cip.params import ParamSet
from repro.cip.plugins import RelaxationStatus
from repro.sdp.admm import SDPResult, solve_sdp_relaxation
from repro.sdp.eigcuts import initial_diagonal_cuts
from repro.sdp.instances import (
    cardinality_least_squares,
    cblib_collection,
    min_k_partitioning,
    truss_topology_design,
)
from repro.sdp.model import MISDP
from repro.sdp.relaxator import SDPRelaxator
from repro.sdp.solver import MISDPSolver
from repro.utils.budget import Budget

OK_STATUSES = ("optimal", "gap_limit")


def brute_force_misdp(misdp: MISDP) -> float:
    """Enumerate integer assignments; continuous part via ADMM."""
    best = -np.inf
    ints = misdp.integers
    ranges = [range(int(misdp.lb[i]), int(misdp.ub[i]) + 1) for i in ints]
    for combo in itertools.product(*ranges):
        lb = misdp.lb.copy()
        ub = misdp.ub.copy()
        for i, v in zip(ints, combo):
            lb[i] = ub[i] = float(v)
        r = solve_sdp_relaxation(misdp, lb, ub, max_iter=5000)
        if r.status == "optimal" and r.objective > best and misdp.is_feasible(r.y, 1e-3):
            best = r.objective
    return best


@functools.cache
def brute_force_optimum(build, **kwargs) -> float:
    """:func:`brute_force_misdp` of ``build(**kwargs)``, enumerated once per
    instance however many tests compare against it."""
    return brute_force_misdp(build(**kwargs))


class TestEigenvectorCuts:
    def test_cut_separates_infeasible_point(self):
        m = MISDP(b=np.array([1.0]), lb=np.array([-5.0]), ub=np.array([5.0]))
        m.add_block(np.eye(2), {0: np.array([[0.0, -1.0], [-1.0, 0.0]])})
        solver = MISDPSolver(m, approach="lp")
        solver.prepare()
        handler = solver.cip.registry.get("conshdlr", "sdp_eigcuts")
        y_bad = np.array([2.0])
        assert not handler.check(solver.cip, y_bad)
        cuts = handler.separate(solver.cip, None, y_bad)
        assert cuts
        # every cut must cut off y_bad but keep the feasible y = 1
        for cut in cuts:
            assert cut.violation(y_bad) > 1e-6
            assert cut.violation(np.array([1.0])) <= 1e-6

    def test_check_accepts_feasible(self):
        m = MISDP(b=np.array([1.0]), lb=np.array([-5.0]), ub=np.array([5.0]))
        m.add_block(np.eye(2), {0: np.array([[0.0, -1.0], [-1.0, 0.0]])})
        solver = MISDPSolver(m, approach="lp")
        solver.prepare()
        handler = solver.cip.registry.get("conshdlr", "sdp_eigcuts")
        assert handler.check(solver.cip, np.array([0.5]))

    def test_initial_diagonal_cuts_valid(self):
        m = cardinality_least_squares(n_features=3, n_samples=4, seed=0)
        cuts = initial_diagonal_cuts(m)
        assert cuts  # the Schur block has variable diagonal entries
        # any feasible point satisfies every diagonal cut
        y_feas = np.zeros(m.num_vars)
        y_feas[-1] = 1e3
        assert m.is_feasible(y_feas)
        for cut in cuts:
            assert cut.violation(y_feas) <= 1e-9


class TestMISDPSolver:
    @pytest.mark.parametrize("approach", ["sdp", "lp"])
    def test_mkp_matches_bruteforce(self, approach):
        m = min_k_partitioning(n=4, k=2, seed=1)
        bf = brute_force_optimum(min_k_partitioning, n=4, k=2, seed=1)
        sol = MISDPSolver(m, approach=approach, seed=0).solve(node_limit=500, time_limit=120)
        assert sol.status.value in OK_STATUSES
        assert sol.objective == pytest.approx(bf, abs=5e-3)
        assert m.is_feasible(sol.y, tol=1e-4)

    @pytest.mark.parametrize("approach", ["sdp", "lp"])
    def test_cls_matches_bruteforce(self, approach):
        m = cardinality_least_squares(n_features=3, n_samples=4, seed=1)
        bf = brute_force_optimum(cardinality_least_squares, n_features=3, n_samples=4, seed=1)
        sol = MISDPSolver(m, approach=approach, seed=0).solve(node_limit=500, time_limit=120)
        assert sol.status.value in OK_STATUSES
        assert sol.objective == pytest.approx(bf, abs=5e-3)

    def test_approaches_agree_on_ttd(self):
        m = truss_topology_design(n_cols=1, seed=0)
        sols = {
            a: MISDPSolver(m, approach=a, seed=0).solve(node_limit=2000, time_limit=120)
            for a in ("sdp", "lp")
        }
        assert abs(sols["sdp"].objective - sols["lp"].objective) < 2e-2

    def test_unknown_approach_rejected(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        with pytest.raises(Exception):
            MISDPSolver(m, approach="quantum")

    def test_approach_via_params_extras(self):
        m = min_k_partitioning(n=4, k=2, seed=0)
        p = ParamSet().with_changes(**{"misdp/approach": "lp"})
        solver = MISDPSolver(m, params=p, approach="sdp")
        assert solver.approach == "lp"

    def test_dual_bound_upper_bounds_objective(self):
        m = min_k_partitioning(n=4, k=2, seed=2)
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        assert sol.dual_bound >= sol.objective - 1e-6

    def test_subproblem_serialization(self):
        m = min_k_partitioning(n=5, k=2, seed=0)
        solver = MISDPSolver(m, approach="lp", seed=0)
        solver.prepare()
        # run a few steps to create open nodes
        for _ in range(4):
            out = solver.cip.step()
            if out.finished:
                break
        node = solver.cip.extract_open_node()
        if node is not None:
            bounds = solver.node_to_subproblem(node)
            solver2 = MISDPSolver(m, approach="lp", seed=0)
            solver2.prepare(bounds)
            assert solver2.cip is not None


class TestRelaxationMemo:
    """``SDPRelaxator`` reuses its last main ADMM result while the node's
    bounds are byte-identical, and only then."""

    @staticmethod
    def node_state(misdp, budget=None):
        """The slice of ``CIPSolver`` the relaxator reads."""
        return SimpleNamespace(
            _local_lb=misdp.lb.copy(),
            _local_ub=misdp.ub.copy(),
            lp_budget=budget,
            budget=budget or Budget(),
            model=SimpleNamespace(obj_offset=0.0),
        )

    @staticmethod
    def count_admm(monkeypatch, fake=None):
        calls = []

        def counted(misdp, lb, ub, penalty=False, **kwargs):
            calls.append(penalty)
            if fake is not None:
                return fake(penalty)
            return solve_sdp_relaxation(misdp, lb, ub, penalty=penalty, **kwargs)

        monkeypatch.setattr(repro.sdp.relaxator, "solve_sdp_relaxation", counted)
        return calls

    def test_unchanged_bounds_reuse_the_result(self, monkeypatch):
        m = min_k_partitioning(n=4, k=2, seed=0)
        calls = self.count_admm(monkeypatch)
        relax, state = SDPRelaxator(m), self.node_state(m)
        first = relax.solve(state, None)
        again = relax.solve(state, None)
        assert calls == [False]
        assert again.status is RelaxationStatus.OPTIMAL
        assert (again.bound, again.work) == (first.bound, first.work)
        assert again.x.tobytes() == first.x.tobytes()

    def test_changed_bound_runs_fresh(self, monkeypatch):
        m = min_k_partitioning(n=4, k=2, seed=0)
        calls = self.count_admm(monkeypatch)
        relax, state = SDPRelaxator(m), self.node_state(m)
        relax.solve(state, None)
        state._local_ub[0] = 0.0
        relax.solve(state, None)
        state._local_ub[0] = -0.0  # equal as a float, not as bytes
        relax.solve(state, None)
        assert calls == [False, False, False]

    def test_time_limit_result_is_not_reused(self, monkeypatch):
        m = min_k_partitioning(n=4, k=2, seed=0)
        expired = SDPResult("time_limit", 0.0, None, 1, np.inf, np.inf)
        calls = self.count_admm(monkeypatch, fake=lambda penalty: expired)
        relax, state = SDPRelaxator(m), self.node_state(m)
        for _ in range(2):
            assert relax.solve(state, None).status is RelaxationStatus.FAILED
        assert calls == [False, False]

    def test_passed_deadline_is_not_answered_from_the_memo(self, monkeypatch):
        m = min_k_partitioning(n=4, k=2, seed=0)
        calls = self.count_admm(monkeypatch)
        now = [0.0]
        budget = Budget(time_limit=1.0, clock=lambda: now[0]).start()
        relax, state = SDPRelaxator(m), self.node_state(m, budget)
        assert relax.solve(state, None).status is RelaxationStatus.OPTIMAL
        now[0] = 2.0
        assert relax.solve(state, None).status is RelaxationStatus.FAILED
        assert calls == [False, False]

    def test_mutating_x_leaves_the_memo_intact(self, monkeypatch):
        m = min_k_partitioning(n=4, k=2, seed=0)
        self.count_admm(monkeypatch)
        relax, state = SDPRelaxator(m), self.node_state(m)
        first = relax.solve(state, None)
        kept = first.x.copy()
        first.x[:] = 99.0
        again = relax.solve(state, None)
        assert again.x.tobytes() == kept.tobytes()
        again.x[:] = -99.0
        assert relax.solve(state, None).x.tobytes() == kept.tobytes()

    def test_penalty_and_lp_fallback_run_every_time(self, monkeypatch):
        """A stalled main solve is reused, but what follows it is not: the
        fallback's cut list grows between calls."""
        m = min_k_partitioning(n=4, k=2, seed=0)
        stalled = SDPResult("failed", 0.0, None, 7, 1.0, 1.0)
        feasible = SDPResult("optimal", 0.0, np.zeros(m.num_vars), 3, 0.0, 0.0)
        calls = self.count_admm(monkeypatch, fake=lambda penalty: feasible if penalty else stalled)
        relax, state = SDPRelaxator(m), self.node_state(m)
        fallbacks = []
        lp_fallback = relax._lp_fallback

        def counted_fallback(*args):
            fallbacks.append(len(relax._fallback_cuts))
            return lp_fallback(*args)

        monkeypatch.setattr(relax, "_lp_fallback", counted_fallback)
        for _ in range(2):
            assert relax.solve(state, None).status is RelaxationStatus.OPTIMAL
        assert calls == [False, True, True]
        assert len(fallbacks) == 2


class TestInstances:
    def test_ttd_full_structure_feasible(self):
        m = truss_topology_design(n_cols=2, seed=0)
        nb = m.num_vars // 2
        y = np.concatenate([np.full(nb, 2.0), np.ones(nb)])
        # the all-bars design satisfies the SDP but may break the budget row;
        # test the block alone
        Z = m.blocks[0].evaluate(y)
        assert np.linalg.eigvalsh(Z)[0] >= -1e-8

    def test_cls_truth_recoverable(self):
        m = cardinality_least_squares(n_features=4, n_samples=6, seed=3)
        # zero vector with t large is always feasible
        y = np.zeros(m.num_vars)
        y[-1] = 1e3
        assert m.is_feasible(y)

    def test_mkp_all_same_part_feasible(self):
        m = min_k_partitioning(n=5, k=3, seed=0)
        y = np.ones(m.num_vars)  # everything in one part: M(y) = J >= 0
        assert m.is_feasible(y)

    def test_mkp_singleton_partition_infeasible_when_n_exceeds_k(self):
        # n=5 singletons need 5 parts; the k=3 Gram matrix cannot realise it
        m = min_k_partitioning(n=5, k=3, seed=0)
        assert not m.is_feasible(np.zeros(m.num_vars))

    def test_mkp_invalid_args(self):
        with pytest.raises(Exception):
            min_k_partitioning(n=2, k=5)

    def test_cblib_collection_structure(self):
        suite = cblib_collection(n_ttd=2, n_cls=2, n_mkp=2, seed=0)
        assert len(suite) == 6
        families = {fam for fam, _, _ in suite}
        assert families == {"TTD", "CLS", "Mk-P"}
        names = [name for _, name, _ in suite]
        assert len(set(names)) == 6

    def test_generators_deterministic(self):
        a = min_k_partitioning(n=5, k=2, seed=7)
        b = min_k_partitioning(n=5, k=2, seed=7)
        assert np.allclose(a.b, b.b)
