"""Differential test: the tuned Steiner kernels against their reference copies.

``repro.steiner.maxflow.MaxFlow`` (plain lists, an explicit augmenting
stack, a level search that stops at the sink), the directed-cut separator
built on it and ``extended_edge_test`` (one SD matrix per center and graph
version) must give *byte-identical* results to :mod:`tests.steiner_reference`,
the kernels as they were before: flow values, residual capacities, min cuts,
cut lists and reduced graphs.  Byte identity is what keeps every solve and
SimEngine trace unchanged.

Covered: random digraphs with capacities 0, 1e-13 and exactly 1.0 (with and
without ``limit=1.0``), the separator at every LP point of real solves, and
the extended test over every STP family of ``repro.instances``, a serving
stream and ``hc5u`` subproblems that carry vertex decisions.  The nightly
``chaos-sweep`` job widens the random cases via ``CHAOS_SWEEP_SEEDS`` /
``CHAOS_SWEEP_BASE``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.ledger import inputs
from repro.instances import FAMILIES, generate_family
from repro.steiner import separators
from repro.steiner.instances import hypercube_instance
from repro.steiner.maxflow import MaxFlow
from repro.steiner.reductions import pipeline
from repro.steiner.reductions.extended import extended_edge_test
from repro.steiner.reductions.pipeline import reduce_graph
from repro.steiner.solver import SteinerSolver
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


@pytest.mark.parametrize("gi", stp_zoo(), ids=lambda gi: gi.name)
def test_extended_on_zoo(gi):
    """On the raw graph and on what the layer-1 reductions leave of it."""
    assert_extended_identical(gi.instance)
    reduced = gi.instance.copy()
    reduce_graph(reduced)
    assert_extended_identical(reduced)


def test_layer2_presolve_on_serving_stream(monkeypatch):
    """``reduce_graph(use_extended=True)``, the re-presolve of every
    subproblem: the same counts per technique, edge set and fixed cost."""
    got = []
    for _name, g in inputs.serve_stream(BASE_SEED, 200):
        g = g.copy()
        got.append((reduce_graph(g, use_extended=True), graph_fields(g)))
    monkeypatch.setattr(pipeline, "extended_edge_test", steiner_reference.extended_edge_test)
    want = []
    for _name, g in inputs.serve_stream(BASE_SEED, 200):
        g = g.copy()
        want.append((reduce_graph(g, use_extended=True), graph_fields(g)))
    assert got == want


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
