"""The canonical labeling behind the serve cache fingerprint.

Properties of :mod:`repro.serve.canonical` as the serving layer uses it
(:func:`repro.serve.runner.stp_canonical_labeling`): a vertex relabeling
leaves the certificate unchanged, a solution cached through the
canonical form translates onto any relabeled twin as a valid tree of the
same cost, and an exhausted search budget falls back to the structural
fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.instances import FAMILIES
from repro.serve import canonical, runner
from repro.serve.runner import KINDS, instance_cache_key, stp_canonical_labeling
from repro.steiner.graph import SteinerGraph
from repro.steiner.instances import hypercube_instance
from repro.steiner.solver import SteinerSolver
from repro.utils.records import canonical_json
from repro.verify.steiner import check_steiner_tree

pytestmark = pytest.mark.fast

SEEDS = range(20)
#: (family, config): small enough that the search never runs out of budget;
#: unit costs leave color refinement non-singleton cells to search, and
#: grid_holes carves out vertices, so dead vertices are relabeled too
CASES = [
    ("hypercube", {"dim": 4, "perturbed": False}),
    ("orlib_random", {"n": 30, "m": 60, "n_terminals": 6}),
    ("pace", {"n": 35, "n_chords": 8, "n_terminals": 7}),
    ("grid_holes", {"rows": 3, "cols": 4, "n_holes": 1, "n_terminals": 3}),
]


def relabeled(g: SteinerGraph, seed: int) -> SteinerGraph:
    """An isomorphic twin: every vertex permuted, alive edges shuffled and flipped."""
    rng = np.random.default_rng(seed)
    image = [int(p) for p in rng.permutation(g.n)]
    twin = SteinerGraph.create(g.n)
    edge_ids = list(g.alive_edges())
    for k in rng.permutation(len(edge_ids)):
        e = g.edges[edge_ids[int(k)]]
        u, v = image[int(e.u)], image[int(e.v)]
        if rng.random() < 0.5:
            u, v = v, u
        twin.add_edge(u, v, float(e.cost))
    for t in g.terminals:
        twin.set_terminal(image[int(t)])
    for v in range(g.n):
        if not g.vertex_alive[v]:
            twin.delete_vertex(image[v])
    return twin


@pytest.mark.parametrize("family,config", CASES, ids=[f for f, _ in CASES])
def test_relabeled_twin_keeps_certificate_and_cached_tree(family, config):
    kind = KINDS["stp"]
    for seed in SEEDS:
        g = FAMILIES[family].build(**config, seed=seed)
        twin = relabeled(g, 1000 + seed)
        cert, labeling = stp_canonical_labeling(g)
        twin_cert, twin_labeling = stp_canonical_labeling(twin)
        assert twin_cert == cert, (family, seed)
        assert instance_cache_key("stp", twin) == (instance_cache_key("stp", g)[0], twin_labeling)

        solved = SteinerSolver(g).solve()
        assert check_steiner_tree(g, solved.edges, solved.cost, original=True).ok
        cached = kind.to_cache(g, labeling, solved.edges)
        served = kind.from_cache(twin, twin_labeling, cached)
        assert served is not None, (family, seed)
        report = check_steiner_tree(twin, served, solved.cost, original=True)
        assert report.ok, (family, seed, report)


def test_certificate_is_the_minimum_over_leaves_where_refinement_stalls():
    """A 6-cycle beside two triangles: every vertex has degree 2, so color
    refinement splits nothing, yet cycle and triangle vertices lie in
    different orbits.  Only the minimum over all search leaves is then
    invariant; the first leaf found depends on the vertex order.  (The
    search needs more than the serving layer's 4 000 steps.)"""
    g = SteinerGraph.create(12)
    for cycle in ((0, 1, 2, 3, 4, 5), (6, 7, 8), (9, 10, 11)):
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            g.add_edge(u, v, 1.0)
    cert, _ = stp_canonical_labeling(g, budget=20_000)
    for seed in range(4):
        assert stp_canonical_labeling(relabeled(g, seed), budget=20_000)[0] == cert, seed


def test_exhausted_budget_falls_back_to_the_structural_key(monkeypatch):
    # unit costs: color refinement alone cannot tell the vertices apart
    g = FAMILIES["hypercube"].build(dim=4, perturbed=False, seed=0)
    assert stp_canonical_labeling(g) is not None
    assert stp_canonical_labeling(g, budget=1) is None
    starved = dataclasses.replace(KINDS["stp"], canonical=lambda inst: stp_canonical_labeling(inst, budget=1))
    monkeypatch.setitem(runner.KINDS, "stp", starved)
    key, labeling = instance_cache_key("stp", g)
    structural = canonical_json({"kind": "stp", "doc": starved.structure(g)})
    assert labeling is None
    assert key == hashlib.sha256(structural).hexdigest()
    # the structural key is labeling-sensitive: a relabeled twin misses
    assert instance_cache_key("stp", relabeled(g, 5))[0] != key


@pytest.mark.parametrize(
    "build,max_steps",
    [
        # the daemon tests' HARD job: 64 vertices, five refinement rounds a step
        (lambda: hypercube_instance(6, perturbed=False, seed=0), 200),
        (lambda: FAMILIES["grid_holes"].build(rows=7, cols=7, n_holes=2, seed=0), 600),
    ],
    ids=["hc6_unit", "grid_holes_7x7"],
)
def test_budget_charges_refinement_work(build, max_steps, monkeypatch):
    """Each individualization pays for the signatures its refinement
    builds, so a search on a larger graph gives up after proportionally
    fewer of them (it used to run all 4 000, for seconds)."""
    steps = []
    individualize = canonical._individualize

    def counted(*args):
        steps.append(1)
        return individualize(*args)

    monkeypatch.setattr(canonical, "_individualize", counted)
    assert stp_canonical_labeling(build()) is None
    assert 0 < len(steps) <= max_steps
