"""Differential test: the tuned Steiner kernels against their reference copies.

``repro.steiner.maxflow.MaxFlow`` (plain lists, an explicit augmenting
stack, a level search that stops at the sink), the directed-cut separator
built on it, ``extended_edge_test`` (one SD matrix per center and graph
version), and the three first-layer kernels (``dual_ascent`` with
components kept across sweeps, ``sd_edge_test`` on one adjacency per call,
the TM heuristic on plain lists) must give *byte-identical* results to
:mod:`tests.steiner_reference`, the kernels as they were before: flow
values, residual capacities, min cuts, cut lists, dual-ascent bounds,
reduced costs and distances, heuristic trees and reduced graphs.  Byte
identity is what keeps every solve and SimEngine trace unchanged.

Covered: random digraphs with capacities 0, 1e-13 and exactly 1.0 (with and
without ``limit=1.0``), the separator at every LP point of real solves, the
first-layer kernels and the extended test over every STP family of
``repro.instances``, the dual ascent over every ``stp_presolve`` base, random
multigraphs whose costs tie or differ by less than the kernels' tolerances,
a serving stream and ``hc5u`` subproblems that carry vertex decisions.  The
nightly ``chaos-sweep`` job widens the random cases via
``CHAOS_SWEEP_SEEDS`` / ``CHAOS_SWEEP_BASE``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.ledger import inputs
from benchmarks.ledger.workloads import PRESOLVE_POOL
from repro.instances import FAMILIES, generate_family
from repro.steiner import separators
from repro.steiner.dual_ascent import dual_ascent
from repro.steiner.graph import SteinerGraph
from repro.steiner.heuristics import repeated_shortest_path_heuristic, shortest_path_heuristic
from repro.steiner.instances import hypercube_instance
from repro.steiner.maxflow import MaxFlow
from repro.steiner.reductions import bound_based, pipeline
from repro.steiner.reductions.extended import extended_edge_test
from repro.steiner.reductions.pipeline import reduce_graph
from repro.steiner.reductions.sd import sd_edge_test
from repro.steiner.shortest_paths import bottleneck_steiner_distance
from repro.steiner.solver import SteinerSolver
from repro.steiner.transformations import spg_to_sap
from tests import steiner_reference

N_SEEDS = int(os.environ.get("CHAOS_SWEEP_SEEDS", "1"))
BASE_SEED = int(os.environ.get("CHAOS_SWEEP_BASE", "0")) % 100_000


# -- max flow ---------------------------------------------------------------------


def random_network(rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """A random digraph (parallel and antiparallel arcs allowed) whose
    capacities mix LP-like fractions with 0, 1e-13 and exactly 1.0."""
    n = int(rng.integers(3, 14))
    m = int(rng.integers(n, 4 * n))
    tails = rng.integers(0, n, size=m)
    heads = rng.integers(0, n, size=m)
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    pool = np.array([0.0, 1e-13, 1.0, 0.5, 0.25, 1.0 / 3.0, 2.0 / 3.0])
    caps = np.where(rng.random(len(tails)) < 0.5, rng.choice(pool, len(tails)), rng.random(len(tails)))
    return n, tails, heads, caps


def flow_fields(mf, s: int, t: int, caps: np.ndarray, limit: float) -> tuple:
    mf.set_capacities(caps)
    value = mf.max_flow(s, t, limit=limit)
    residual = np.asarray(mf.cap, dtype=float).tobytes()
    return value, residual, mf.min_cut_source_side(s).tobytes()


@pytest.mark.parametrize("limit", [1.0, float("inf")])
def test_max_flow_random(limit):
    rng = np.random.default_rng([BASE_SEED, 38])
    for _ in range(60 * N_SEEDS):
        n, tails, heads, caps = random_network(rng)
        mf, ref = MaxFlow(n, tails, heads), steiner_reference.MaxFlow(n, tails, heads)
        for s, t in ((0, n - 1), (int(rng.integers(n)), int(rng.integers(n)))):
            if s == t:
                continue
            # the same objects twice: state left by a run must not leak into the next
            for _rerun in range(2):
                got = flow_fields(mf, s, t, caps, limit)
                if 0.0 < limit - got[0] <= 1e-12:
                    break  # the reference may never return here (see the test below)
                assert got == flow_fields(ref, s, t, caps, limit)


def test_max_flow_ends_on_a_demand_below_tolerance():
    """Three parallel arcs carry 0.2 + 0.7 + 0.1 = 0.9999999999999999 of the
    demand 1.0; the remaining 1.1e-16 is below the saturation tolerance, so
    the run must stop there although the fourth arc has room (the reference
    phase loop finds that arc, pushes nothing and repeats forever)."""
    mf = MaxFlow(2, np.zeros(4, dtype=int), np.ones(4, dtype=int))
    mf.set_capacities(np.array([0.2, 0.7, 0.1, 0.5]))
    assert mf.max_flow(0, 1, limit=1.0) == 0.2 + 0.7 + 0.1 < 1.0
    assert mf.cap[6] == 0.5 and mf.min_cut_source_side(0).tolist() == [True, True]


# -- the directed-cut separator at real LP points ---------------------------------


SOLVES = {
    "hc4u": lambda: hypercube_instance(4, perturbed=False, seed=0),
    "hc5u": lambda: hypercube_instance(5, perturbed=False, seed=1),
    "phc4": lambda: inputs.STP_FAMILIES["phc4"](0),
    "phc5a": lambda: inputs.STP_FAMILIES["phc5a"](1),
    "bip10": lambda: inputs.STP_FAMILIES["bip10"](3),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_separator_at_lp_points(name, monkeypatch):
    """Every call of the separator in a solve returns the reference's cuts:
    same arcs, coefficients, sides, names and order."""
    tuned = separators.SteinerCutHandler.separate
    refs: dict[int, steiner_reference.SteinerCutHandler] = {}
    seen = {"calls": 0, "cuts": 0}

    def compared(self, solver, node, x):
        got = tuned(self, solver, node, x)
        ref = refs.setdefault(id(self), steiner_reference.SteinerCutHandler(self.sap, self.max_cuts_per_call))
        assert repr(got) == repr(ref.separate(solver, node, x))
        seen["calls"] += 1
        seen["cuts"] += len(got)
        return got

    monkeypatch.setattr(separators.SteinerCutHandler, "separate", compared)
    SteinerSolver(SOLVES[name](), seed=0).solve(node_limit=12)
    assert seen["calls"] > 0 and seen["cuts"] > 0


# -- the extended edge test -------------------------------------------------------


def graph_fields(g) -> tuple:
    return list(g.alive_edges()), g.fixed_cost, sorted(g.fixed_edges), list(g.terminals)


def assert_extended_identical(g) -> None:
    a, b = g.copy(), g.copy()
    assert extended_edge_test(a) == steiner_reference.extended_edge_test(b)
    assert graph_fields(a) == graph_fields(b)


def stp_zoo() -> list:
    """Every STP family, up to 400 edges a seed (the reference on the
    5 120 edges of ``hypercube_dim10`` takes a minute)."""
    out = []
    for fam in FAMILIES.values():
        if fam.kind == "stp":
            batch = generate_family(fam.name, seed=0, configs=fam.tiny_configs + fam.configs)
            out.extend(gi for gi in batch if len(gi.instance.alive_edges()) <= 400 * N_SEEDS)
    return out


ZOO = stp_zoo()


@pytest.mark.parametrize("gi", ZOO, ids=lambda gi: gi.name)
def test_extended_on_zoo(gi):
    """On the raw graph and on what the layer-1 reductions leave of it."""
    assert_extended_identical(gi.instance)
    reduced = gi.instance.copy()
    reduce_graph(reduced)
    assert_extended_identical(reduced)


def use_reference_kernels(monkeypatch) -> None:
    """Route ``reduce_graph`` through the reference SD test, dual ascent,
    TM heuristic and extended test."""
    monkeypatch.setattr(pipeline, "sd_edge_test", steiner_reference.sd_edge_test)
    monkeypatch.setattr(pipeline, "extended_edge_test", steiner_reference.extended_edge_test)
    monkeypatch.setattr(bound_based, "dual_ascent", steiner_reference.dual_ascent)
    monkeypatch.setattr(
        bound_based, "repeated_shortest_path_heuristic", steiner_reference.repeated_shortest_path_heuristic
    )


def reduced(graphs, **kwargs) -> list:
    """``reduce_graph`` on a copy of each graph: stats and graph fields."""
    out = []
    for g in graphs:
        g = g.copy()
        out.append((reduce_graph(g, **kwargs), graph_fields(g)))
    return out


def test_layer2_presolve_on_serving_stream(monkeypatch):
    """``reduce_graph``, the presolve of every served job, and with the
    extended test the re-presolve of every subproblem: the same counts per
    technique, edge set, fixed cost and fixed edges."""
    graphs = [g for _name, g in inputs.serve_stream(BASE_SEED, 200)]
    got = [reduced(graphs, use_extended=use_extended) for use_extended in (False, True)]
    use_reference_kernels(monkeypatch)
    assert got == [reduced(graphs, use_extended=use_extended) for use_extended in (False, True)]


def test_extended_on_hc5u_subproblems():
    """Twins of ``hc5u`` after branching decisions: vertices deleted
    ("out") and turned into terminals ("in")."""
    base = hypercube_instance(5, perturbed=False, seed=1)
    rng = np.random.default_rng([BASE_SEED, 5])
    for _ in range(8 * N_SEEDS):
        g = inputs.twin_stp(base, rng)
        free = [v for v in g.alive_vertices() if not g.is_terminal(v)]
        for v in rng.choice(free, size=int(rng.integers(1, 6)), replace=False):
            if rng.random() < 0.5:
                g.set_terminal(int(v), True)
            else:
                g.delete_vertex(int(v))
        assert_extended_identical(g)
        reduce_graph(g)
        assert_extended_identical(g)


# -- the first-layer kernels: dual ascent, SD test, TM -------------------------------


def da_fields(da) -> tuple:
    return (
        da.lower_bound,
        da.reduced_costs.tobytes(),
        da.root_dist.tobytes(),
        da.term_dist.tobytes(),
        da.saturated_arcs.tobytes(),
    )


def assert_dual_ascent_identical(g, **kwargs) -> tuple:
    sap = spg_to_sap(g)
    got = da_fields(dual_ascent(sap, **kwargs))
    assert got == da_fields(steiner_reference.dual_ascent(sap, **kwargs))
    return got


def lp_like_override(g, rng: np.random.Generator) -> dict[int, float]:
    """Costs biased like the LP-guided heuristic's, on part of the edges."""
    alive = g.alive_edges()
    picked = rng.choice(alive, size=len(alive) // 2, replace=False) if alive else []
    return {int(e): g.edges[int(e)].cost * float(rng.choice([0.0, 0.5, 1.0, rng.random()])) for e in picked}


def assert_first_layer_identical(g, rng: np.random.Generator) -> None:
    """Dual ascent, TM with and without ``cost_override`` (single and
    repeated starts) and the SD test on ``g``."""
    if g.num_terminals:
        assert_dual_ascent_identical(g)
    override = lp_like_override(g, rng)
    for co in (None, override):
        assert shortest_path_heuristic(g, cost_override=co) == steiner_reference.shortest_path_heuristic(
            g, cost_override=co
        )
        for seed in (0, 7):
            got = repeated_shortest_path_heuristic(g, seed=seed, cost_override=co)
            assert got == steiner_reference.repeated_shortest_path_heuristic(g, seed=seed, cost_override=co)
    a, b = g.copy(), g.copy()
    assert sd_edge_test(a) == steiner_reference.sd_edge_test(b)
    assert graph_fields(a) == graph_fields(b)


@pytest.mark.parametrize("gi", ZOO, ids=lambda gi: gi.name)
def test_first_layer_on_zoo(gi, monkeypatch):
    """On the raw graph, then the whole layer-1 ``reduce_graph``."""
    assert_first_layer_identical(gi.instance, np.random.default_rng([BASE_SEED, 39]))
    got = reduced([gi.instance])
    use_reference_kernels(monkeypatch)
    assert got == reduced([gi.instance])


PRESOLVE_BASES = inputs.build_pool(PRESOLVE_POOL, inputs.STP_FAMILIES)


def test_dual_ascent_on_presolve_pool():
    """The SAP of every ``stp_presolve`` base, as the ledger builds it."""
    for _key, g in PRESOLVE_BASES:
        assert_dual_ascent_identical(g)


def test_presolve_pool_reduction(monkeypatch):
    """One twin per ``stp_presolve`` family (all of them in the nightly
    sweep): the kernels on the raw twin, then ``reduce_graph``."""
    rng = np.random.default_rng([BASE_SEED, 3])
    firsts = {}
    for key, g in PRESOLVE_BASES:
        firsts.setdefault(key.split("-")[0] if N_SEEDS == 1 else key, g)
    twins = [inputs.twin_stp(g, rng) for g in firsts.values()]
    for g in twins:
        assert_first_layer_identical(g, rng)
    got = reduced(twins)
    use_reference_kernels(monkeypatch)
    assert got == reduced(twins)


def random_multigraph(rng: np.random.Generator) -> SteinerGraph:
    """Parallel edges, ties, zero costs and costs that differ by less than
    the kernels' tolerances (1e-12 for paths, 1e-9 for saturation); the
    terminals need not be connected."""
    n = int(rng.integers(3, 24))
    g = SteinerGraph.create(n)
    pool = np.array([0.0, 5e-13, 5e-10, 1.0, 1.0 + 5e-13, 1.0 + 5e-10, 1.0 + 2e-9, 2.0, 3.0])
    for _ in range(int(rng.integers(n - 1, 3 * n))):
        u, v = rng.choice(n, size=2, replace=False)
        cost = rng.choice(pool) if rng.random() < 0.7 else round(4.0 * rng.random(), 2)
        g.add_edge(int(u), int(v), float(cost))
    for t in rng.choice(n, size=int(rng.integers(2, max(3, n // 2))), replace=False):
        g.set_terminal(int(t))
    return g


def test_first_layer_random():
    rng = np.random.default_rng([BASE_SEED, 39])
    for _ in range(60 * N_SEEDS):
        g = random_multigraph(rng)
        assert_first_layer_identical(g, rng)
        for max_sweeps in (1, 2, 5):
            assert_dual_ascent_identical(g, max_sweeps=max_sweeps)


def test_dual_ascent_edge_cases():
    """An unreachable terminal (infinite bound), zero-cost edges, and a
    sweep limit that binds."""
    g = SteinerGraph.create(6)
    for u, v, c in ((0, 1, 2.0), (1, 2, 0.0), (3, 4, 1.0), (4, 5, 0.0)):
        g.add_edge(u, v, c)
    for t in (0, 2, 5):
        g.set_terminal(t)
    assert assert_dual_ascent_identical(g)[0] == np.inf
    zero = hypercube_instance(4, perturbed=False, seed=0)
    for eid in zero.alive_edges()[::3]:
        zero.edges[eid].cost = 0.0
    zero.invalidate_caches()
    assert_dual_ascent_identical(zero)
    hc5u = hypercube_instance(5, perturbed=False, seed=1)
    full = assert_dual_ascent_identical(hc5u)[0]
    assert assert_dual_ascent_identical(hc5u, max_sweeps=7)[0] < full


def test_sd_search_keeps_the_csr_neighbour_order():
    """Two parallel edges 1-2 (costs 2 and 1) behind terminal 1 reach 2 on
    the same bottleneck, so the one scanned first sets the segment that
    continues to 3.  The CSR lists edge 2 (1 as tail) before edge 1 (1 as
    head), which gives SD 10, not 10.5, from 0 to 3."""
    g = SteinerGraph.create(4)
    for u, v, c in ((0, 1, 10.0), (2, 1, 2.0), (1, 2, 1.0), (2, 3, 8.5)):
        g.add_edge(u, v, c)
    for t in (0, 1):
        g.set_terminal(t)
    got = bottleneck_steiner_distance(g, 0, limit=100.0)
    assert got == steiner_reference.bottleneck_steiner_distance(g, 0, limit=100.0)
    assert got[3] == 10.0
