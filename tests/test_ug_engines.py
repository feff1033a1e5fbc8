"""Engine-level tests: virtual-time accounting, thread liveness, and the
conformance matrix every engine must pass."""

from __future__ import annotations

import time

import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.steiner.instances import hypercube_instance
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.ug.engines import SimEngine, ThreadEngine
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.para_solution import ParaSolution
from repro.ug.para_solver import ParaSolver
from repro.ug.user_plugins import HandleStep, SolverHandle, UserPlugins
from repro.verify import audit_ug_run, check_ug_steiner_result


class CountdownHandle(SolverHandle):
    """Processes ``n`` nodes of fixed work, then finishes with a solution."""

    def __init__(self, n: int, work: float, value: float):
        self.remaining = n
        self.work = work
        self.value = value

    def step(self) -> HandleStep:
        self.remaining -= 1
        done = self.remaining <= 0
        sols = [ParaSolution(self.value)] if done else []
        return HandleStep(done, self.work, self.value - 1.0, self.remaining, sols, 1)

    def extract_para_node(self):
        return None

    def inject_incumbent_value(self, value: float) -> None:
        pass


class CountdownPlugins(UserPlugins):
    base_solver_name = "Countdown"

    def __init__(self, n=10, work=0.01, value=5.0):
        self.n, self.work, self.value = n, work, value

    def create_handle(self, instance, node, params, seed, incumbent):
        return CountdownHandle(self.n, self.work, self.value)


def build(engine_cls, n_solvers=2, plugins=None, **cfg):
    config = UGConfig(**cfg)
    lc = LoadCoordinator("inst", plugins or CountdownPlugins(), ParamSet(), config, n_solvers)
    solvers = {
        r: ParaSolver(r, lc.instance, lc.user_plugins, ParamSet(), 0,
                      status_interval_work=config.status_interval_work)
        for r in range(1, n_solvers + 1)
    }
    return engine_cls(lc, solvers, config), lc


class TestSimEngine:
    def test_virtual_time_matches_work(self):
        engine, lc = build(SimEngine, n_solvers=1)
        engine.run()
        # 10 nodes x 0.01 work, plus message latencies
        assert lc.stats.computing_time == pytest.approx(0.1, abs=0.02)
        assert lc.incumbent.value == 5.0
        assert lc.finished

    def test_deterministic_across_runs(self):
        def once():
            engine, lc = build(SimEngine, n_solvers=3)
            engine.run()
            return (lc.stats.computing_time, lc.stats.nodes_generated, lc.stats.transferred_nodes)

        assert once() == once()

    def test_time_limit_interrupts(self):
        engine, lc = build(SimEngine, n_solvers=1, time_limit=0.03,
                           plugins=CountdownPlugins(n=1000, work=0.01))
        engine.run()
        assert lc.finished
        assert lc.stats.computing_time <= 0.1

    def test_node_limit_interrupt_writes_checkpoint(self, tmp_path):
        path = str(tmp_path / "cp.json")
        engine, lc = build(SimEngine, n_solvers=1, node_limit=3, checkpoint_path=path,
                           checkpoint_interval=1e9,  # only the interrupt write
                           plugins=CountdownPlugins(n=1000, work=0.01))
        engine.run()
        assert lc.finished
        assert lc.stats.checkpoints_written >= 1


class TestThreadEngine:
    def test_runs_and_terminates(self):
        engine, lc = build(ThreadEngine, n_solvers=2, time_limit=30.0)
        engine.run()
        assert lc.finished
        assert lc.incumbent is not None and lc.incumbent.value == 5.0

    def test_time_limit(self):
        engine, lc = build(ThreadEngine, n_solvers=1, time_limit=0.5,
                           plugins=CountdownPlugins(n=10**9, work=0.0))
        engine.run()
        assert lc.finished


# -- what all engines must agree on ------------------------------------------------

COMMS = ["sim", "loopback", "threads", pytest.param("process", marks=pytest.mark.slow)]
STP_CFG = dict(time_limit=1e9, objective_epsilon=1 - 1e-6, trace_enabled=True)


def run_stp(graph, comm, n_solvers, wall_clock_limit=float("inf"), **cfg):
    return ug(graph.copy(), SteinerUserPlugins(), n_solvers=n_solvers, comm=comm,
              config=UGConfig(**STP_CFG, **cfg), wall_clock_limit=wall_clock_limit).run()


@pytest.fixture(scope="module")
def hc4():
    # 5 B&B nodes, never 4 open at once: rank 1 sheds nothing, so with 3
    # ranks two of them sit idle for the whole run on every engine
    return hypercube_instance(4, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc5():
    # ~60 nodes and a second or two per solve: big enough that a limit
    # lands while the tree is open
    return hypercube_instance(5, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc4_sim(hc4):
    return run_stp(hc4, "sim", 3)


@pytest.fixture(scope="module")
def hc5_sim(hc5):
    return run_stp(hc5, "sim", 2)


@pytest.mark.parametrize("comm", COMMS)
class TestEngineConformance:
    def test_optimum_verified_and_accounted(self, comm, hc4, hc4_sim):
        res = run_stp(hc4, comm, 3)
        assert res.solved and res.objective == hc4_sim.objective
        check_ug_steiner_result(hc4, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()
        busy = res.stats.solver_busy
        assert set(busy) == {1, 2, 3}  # one entry per rank, worked or not
        assert busy[1] > 0.0
        # an idle rank blocks on its inbox instead of spinning: it records
        # (almost) no busy time, and the run is mostly idle rank-time
        assert busy[2] == pytest.approx(0.0, abs=0.05)
        assert busy[3] == pytest.approx(0.0, abs=0.05)
        assert 0.5 < res.stats.idle_ratio <= 1.0

    def test_node_limit_binds(self, comm, hc5, hc5_sim):
        res = run_stp(hc5, comm, 2, node_limit=4)
        assert not res.solved
        assert 1 <= res.stats.nodes_generated < hc5_sim.stats.nodes_generated
        assert res.dual_bound <= hc5_sim.objective + 1e-9  # still a valid bound
        assert 0.0 <= res.stats.idle_ratio <= 1.0

    def test_wall_clock_limit_binds(self, comm, hc5, hc5_sim):
        start = time.perf_counter()
        # well below one warm-pool process solve of hc5 (0.36-0.5 s), so the
        # limit lands while the tree is open
        res = run_stp(hc5, comm, 2, wall_clock_limit=0.2)
        # the in-flight node step finishes before a rank honors TERMINATION
        assert time.perf_counter() - start < 5.0
        assert not res.solved
        assert res.stats.nodes_generated < hc5_sim.stats.nodes_generated
        assert res.dual_bound <= hc5_sim.objective + 1e-9
        assert res.dual_bound <= res.objective
