"""Differential oracles, each exercised over >= 20 seeded instances:
brute force vs B&B, simplex vs HiGHS, SimEngine vs ThreadEngine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.result import SolveStatus
from repro.sdp.instances import min_k_partitioning
from repro.sdp.solver import MISDPSolver
from repro.steiner.instances import hypercube_instance, random_instance
from repro.steiner.solver import SteinerSolver
from repro.verify import (
    brute_force_binary_mip,
    brute_force_misdp,
    brute_force_steiner,
    cross_check_engines,
    cross_check_lp,
    random_lp,
)

pytestmark = pytest.mark.fast

SEEDS = range(20)


class TestBruteForceSteiner:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_enumeration(self, seed):
        g = random_instance(8, 12, 4, seed=seed)
        expected = brute_force_steiner(g)
        sol = SteinerSolver(g.copy(), seed=0).solve()
        assert sol.cost == pytest.approx(expected)


class TestBruteForceBinaryMIP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, rows = 6, 3
        c = rng.integers(-8, 9, size=n).astype(float)
        A = rng.integers(-3, 4, size=(rows, n)).astype(float)
        b = rng.integers(2, 9, size=rows).astype(float)
        expected = brute_force_binary_mip(c, A, b)
        m = Model()
        for j in range(n):
            m.add_variable(f"x{j}", VarType.BINARY, obj=float(c[j]))
        for i in range(rows):
            m.add_constraint({j: float(A[i, j]) for j in range(n) if A[i, j]},
                             rhs=float(b[i]))
        res = make_mip_solver(m).solve()
        if expected is None:
            assert res.status is SolveStatus.INFEASIBLE
        else:
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(expected)


class TestBruteForceMISDP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_grid_enumeration(self, seed):
        m = min_k_partitioning(n=4, k=2, seed=seed)
        expected = brute_force_misdp(m)
        assert expected is not None
        sol = MISDPSolver(m, approach="sdp", seed=0).solve(node_limit=500, time_limit=60)
        assert sol.objective == pytest.approx(expected[0], abs=1e-4)

    def test_rejects_continuous_instances(self):
        from repro.sdp.instances import cardinality_least_squares

        m = cardinality_least_squares(n_features=3, n_samples=4, seed=0)
        with pytest.raises(ValueError, match="all-integer"):
            brute_force_misdp(m)


class TestLPBackendCrossCheck:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_agree_with_certificates(self, seed):
        lp = random_lp(np.random.default_rng(seed))
        report = cross_check_lp(lp)
        assert report.ok, report.summary()

    def test_certificates_actually_checked(self):
        # the cross-check must contain a verified certificate per backend
        report = cross_check_lp(random_lp(np.random.default_rng(0)))
        names = {c.name for c in report.checks}
        assert {"certificate_simplex", "certificate_highs", "objective_agreement"} <= names


class TestStatefulLPCrossCheck:
    """The persistent HiGHS model under random sequences of the deltas
    branch-and-bound produces, against a cold simplex solve per step."""

    @pytest.mark.parametrize("seed", range(60))
    def test_warm_sequence_agrees_with_cold_simplex(self, seed):
        rng = np.random.default_rng(1000 + seed)
        lp = random_lp(rng, n_vars=int(rng.integers(3, 10)), n_rows=int(rng.integers(2, 9)))
        report = cross_check_lp(lp, steps=12, rng=rng)
        assert report.ok, report.summary()

    def test_sequence_exercises_every_delta_and_status(self):
        rng = np.random.default_rng(7)
        report = cross_check_lp(random_lp(rng), steps=40, rng=rng)
        assert report.ok, report.summary()
        names = {c.name for c in report.checks}
        for what in ("bounds", "add_rows", "truncate"):
            assert any(f"_{what}_certificate_highs" in n for n in names), what
        details = {c.detail for c in report.checks if c.name.endswith("status_agreement")}
        assert any("infeasible" in d for d in details)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sim_and_threads_prove_same_optimum(self, seed):
        g = random_instance(9, 14, 4, seed=seed)
        report = cross_check_engines(g, n_solvers=2, seed=seed)
        assert report.ok, report.summary()

    @pytest.mark.slow
    def test_presolve_resistant_instance(self):
        # hc4 needs genuine parallel B&B under both engines
        g = hypercube_instance(4, perturbed=False, seed=1)
        report = cross_check_engines(g, n_solvers=2, seed=0)
        assert report.ok, report.summary()
