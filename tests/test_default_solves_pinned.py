"""Default-kernel solves, pinned count for count.

A change that claims "no solve changed" must leave every number below
exactly as it is: B&B nodes, LP solves and simplex iterations of the
default ``SteinerSolver``/``MISDPSolver`` on a few seeded instances, and,
for MISDP, the number of SDP relaxations (ADMM runs) and their ADMM
iterations.  Two instances stand for each sequential ledger pool: unit-cost
PUC hypercubes decided by branch-and-cut (``stp_bnb``), perturbed-cost
zoo graphs settled at the root by reductions (``stp_presolve``), and one
MISDP per approach (``misdp``), plus a ledger ``mkp4`` base whose root
cut loop asks for the same relaxation twice: the relaxator answers the
repeat from its last result, so only one ADMM run is counted.  The first
presolve layer is pinned on its own as well: ``reduce_graph`` on two
``stp_presolve`` bases and one dual-ascent bound, to the last bit.  The
parallel path is pinned too: the second presolve layer every ParaSolver
runs on the subproblems it receives (``prepare(use_extended=True)``), and a
two-rank SimEngine run shaped like the ledger's ``par_scaling`` ops.  A
change that means to alter a solve updates the table and says why.
"""

from __future__ import annotations

import pytest

import repro.sdp.heuristics
import repro.sdp.relaxator
from benchmarks.ledger import inputs
from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.instances import misdp as misdp_zoo
from repro.instances import stp as stp_zoo
from repro.sdp.instances import min_k_partitioning
from repro.sdp.solver import MISDPSolver
from repro.steiner.dual_ascent import dual_ascent
from repro.steiner.instances import hypercube_instance
from repro.steiner.reductions.pipeline import ReductionStats, reduce_graph
from repro.steiner.solver import SteinerSolver
from repro.steiner.transformations import spg_to_sap
from repro.ug import ug
from repro.ug.config import UGConfig

pytestmark = pytest.mark.fast

#: name -> (builder, objective, nodes, LP solves, LP iterations)
STP = {
    "puc_hc4": (lambda: stp_zoo.hypercube(dim=4, perturbed=False, parity_terminals=True, seed=0), 10.0, 5, 11, 96),
    "puc_hc5": (lambda: stp_zoo.hypercube(dim=5, perturbed=False, parity_terminals=True, seed=0), 20.0, 35, 67, 4708),
    "incidence": (lambda: stp_zoo.incidence(n=100, extra_edges=100, n_terminals=10, seed=3), 173.0, 6, 18, 88),
    "orlib": (lambda: stp_zoo.orlib_random(n=75, m=180, n_terminals=12, seed=2), 59.0, 1, 6, 11),
}

#: name -> (builder, approach, objective, nodes, relaxation calls, LP
#: iterations, SDP relaxations, ADMM iterations)
MISDP = {
    "random_sdp": (lambda: misdp_zoo.misdp_random(n_vars=3, block_size=2, n_rows=1, ub=1, seed=15), "sdp", 0.0, 3, 3, 0, 3, 374),
    "random_lp": (lambda: misdp_zoo.misdp_random(n_vars=3, block_size=2, n_rows=1, ub=1, seed=2), "lp", -2.0, 5, 15, 13, 0, 0),
    "mkp4_s30": (lambda: min_k_partitioning(n=4, k=2, seed=30), "sdp", -3.0, 1, 2, 0, 1, 344),
}


@pytest.mark.parametrize("name", sorted(STP))
def test_steiner_solve_counts(name):
    build, objective, nodes, lp_solves, lp_iterations = STP[name]
    res = SteinerSolver(build()).solve()
    assert res.cost == pytest.approx(objective)
    got = (res.nodes_processed, res.stats.lp_solves, res.stats.lp_iterations)
    assert got == (nodes, lp_solves, lp_iterations)


@pytest.mark.parametrize("name", sorted(MISDP))
def test_misdp_solve_counts(name, monkeypatch):
    build, approach, objective, nodes, lp_solves, lp_iterations, relaxations, admm_iterations = MISDP[name]
    admm = [0, 0]
    for module in (repro.sdp.relaxator, repro.sdp.heuristics):

        def counted(*args, _solve=module.solve_sdp_relaxation, **kwargs):
            result = _solve(*args, **kwargs)
            admm[0] += 1
            admm[1] += result.iterations
            return result

        monkeypatch.setattr(module, "solve_sdp_relaxation", counted)
    res = MISDPSolver(build(), approach=approach).solve()
    assert res.objective == pytest.approx(objective, abs=1e-5)
    got = (res.nodes_processed, res.stats.lp_solves, res.stats.lp_iterations, *admm)
    assert got == (nodes, lp_solves, lp_iterations, relaxations, admm_iterations)


#: ``stp_presolve`` base -> (ReductionStats, alive edges, fixed cost) of
#: the layer-1 presolve: both are settled by the reductions alone
LAYER1 = {
    "orl75-0": (
        ReductionStats(degree=20, terminal=15, sd=36, bound=145, rounds=3, by_round=[201, 12, 3]), 0, 57.0
    ),
    "hc6p-0": (ReductionStats(degree=18, terminal=32, sd=87, bound=51, rounds=2, by_round=[174, 14]), 0, 94.0),
}


@pytest.mark.parametrize("key", sorted(LAYER1))
def test_layer1_presolve_counts(key):
    family, seed = key.split("-")
    graph = inputs.STP_FAMILIES[family](int(seed))
    stats = reduce_graph(graph)
    assert (stats, len(graph.alive_edges()), graph.fixed_cost) == LAYER1[key]


def test_dual_ascent_bound_bits():
    """Float costs: the bound is a sum of many deltas, so any change in
    the order of the ascent shows in its last bits."""
    graph = stp_zoo.orlib_euclidean(n=40, n_terminals=8, seed=0)
    assert repr(dual_ascent(spg_to_sap(graph)).lower_bound) == "1.6834753890171512"


#: decisions -> (ReductionStats, alive edges) of the layer-2 presolve of hc5u
LAYER2 = {
    "root": ((), ReductionStats(rounds=1, by_round=[0]), 80),
    "six_out": (
        tuple((v, "out") for v in (1, 2, 4, 7, 8, 11)),
        ReductionStats(terminal=6, rounds=2, by_round=[6, 0]),
        41,
    ),
}


@pytest.mark.parametrize("name", sorted(LAYER2))
def test_layer2_presolve_counts(name):
    decisions, stats, alive = LAYER2[name]
    solver = SteinerSolver(hypercube_instance(5, perturbed=False, seed=1), seed=0)
    solver.prepare(decisions, use_extended=True)
    assert (solver.reduction_stats, len(solver._graph.alive_edges())) == (stats, alive)


class CountedPlugins(SteinerUserPlugins):
    """Keeps every CIP the ParaSolvers build, to sum their LP counts."""

    def __init__(self) -> None:
        super().__init__()
        self.cips = []

    def create_handle(self, *args):
        handle = super().create_handle(*args)
        if handle.cip is not None:
            self.cips.append(handle.cip)
        return handle


def test_par_scaling_run_counts():
    """A ``par_scaling`` op under the SimEngine: the first seed-0 twin of
    hc5u, two ranks, ``node_limit=16`` and the ledger's wire tuning; UG nodes,
    then CIP nodes, LP solves and LP iterations summed over the subproblems."""
    graph = inputs.twin_stp(hypercube_instance(5, perturbed=False, seed=1), inputs.rng_for(0, "par_scaling"))
    config = UGConfig(
        time_limit=1e9, objective_epsilon=1 - 1e-6, node_limit=16,
        net_batch_nodes=8, net_incumbent_debounce=0.05,
    )  # fmt: skip
    plugins = CountedPlugins()
    params = ParamSet(heur_frequency=5)
    res = ug(graph, plugins, n_solvers=2, comm="sim", params=params, config=config, seed=0).run()
    assert res.objective == pytest.approx(20.0)
    got = (
        res.stats.nodes_generated,
        sum(c.stats.nodes_processed for c in plugins.cips),
        sum(c.stats.lp_solves for c in plugins.cips),
        sum(c.stats.lp_iterations for c in plugins.cips),
    )
    assert got == (13, 17, 41, 1861)
