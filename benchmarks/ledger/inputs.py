"""Seeded inputs: every workload's instances are a pure function of the seed.

The solver workloads draw *twins*: a fixed pool of base instances (named in
``workloads.py`` by generator family and generator seed) is relabeled by the
run's seed — vertices/variables permuted, edges reordered and flipped.  A twin
has its base's optimum, so one committed reference objective per base checks
every seed, while the solver sees different input and takes a different path
through it.  Pools hold only bases whose twins take about the same time
(vetted once, on the seed commit; README.md has the criteria and the reason:
branch-and-cut time is chaotic in its input, and a suite of freely drawn
instances moves 10-20 % from seed to seed, which would drown the changes the
ledger exists to see).  The serving workloads draw a stream of *distinct* tiny
instances instead (twins would be cache hits by construction).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.instances import stp as zoo
from repro.sdp.instances import cardinality_least_squares, min_k_partitioning
from repro.sdp.model import MISDP
from repro.steiner.graph import SteinerGraph
from repro.steiner.instances import bipartite_instance, code_cover_instance, hypercube_instance
from repro.utils import make_rng


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, named stream)."""
    return np.random.default_rng([seed, *stream.encode()])


# -- twins ------------------------------------------------------------------------


def twin_stp(g: SteinerGraph, rng: np.random.Generator) -> SteinerGraph:
    """An isomorphic copy: alive vertices permuted, edges shuffled and flipped."""
    alive = [int(v) for v in g.alive_vertices()]
    image = dict(zip(alive, (int(p) for p in rng.permutation(len(alive)))))
    out = SteinerGraph.create(len(alive))
    edge_ids = g.alive_edges()
    for k in rng.permutation(len(edge_ids)):
        e = g.edges[edge_ids[int(k)]]
        u, v = image[int(e.u)], image[int(e.v)]
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(u, v, float(e.cost))
    for t in g.terminals:
        out.set_terminal(image[int(t)])
    return out


def twin_misdp(inst: MISDP, rng: np.random.Generator) -> MISDP:
    """The same MISDP with variables permuted and each block conjugated by a
    permutation matrix (both leave the feasible set and optimum unchanged)."""
    m = inst.num_vars
    image = [int(p) for p in rng.permutation(m)]  # old index -> new index
    inverse = np.argsort(image)
    out = MISDP(
        name=inst.name,
        b=inst.b[inverse],
        lb=inst.lb[inverse],
        ub=inst.ub[inverse],
        integers=sorted(image[i] for i in inst.integers),
    )
    for block in inst.blocks:
        p = rng.permutation(block.size)
        out.add_block(
            block.C[np.ix_(p, p)],
            {image[i]: A[np.ix_(p, p)] for i, A in block.coefs.items()},
            block.name,
        )
    for row in inst.linear_rows:
        out.add_linear_row({image[i]: c for i, c in row.coefs.items()}, row.lhs, row.rhs, row.name)
    return out


# -- base pools -------------------------------------------------------------------


def partial_hypercube(dim: int, seed: int, drop: float) -> SteinerGraph:
    """Unit hypercube with a random share of edges removed: keeps the PUC
    reduction-resistance, changes the tree shape (as in benchmarks/common.py)."""
    g = hypercube_instance(dim, perturbed=False, seed=seed)
    rng = make_rng(seed)
    for eid in list(g.alive_edges()):
        e = g.edges[eid]
        if rng.random() < drop and g.degree(e.u) > 2 and g.degree(e.v) > 2:
            g.delete_edge(eid)
    return g


Builder = Callable[[int], Any]

STP_FAMILIES: dict[str, Builder] = {
    # B&B-bound: unit costs, presolve removes next to nothing
    "hc4u": lambda s: hypercube_instance(4, perturbed=False, seed=s),
    "hc5u": lambda s: hypercube_instance(5, perturbed=False, seed=s),
    "phc4": lambda s: partial_hypercube(4, s, 0.10),
    "phc5a": lambda s: partial_hypercube(5, s, 0.15),
    "phc5b": lambda s: partial_hypercube(5, s, 0.20),
    "bip10": lambda s: bipartite_instance(10, 20, 3, False, s),
    "bip12": lambda s: bipartite_instance(12, 24, 3, False, s),
    "bip15": lambda s: bipartite_instance(15, 30, 3, False, s),
    # reduction-bound: perturbed costs, solved at or before the root
    "hc6p": lambda s: zoo.hypercube(dim=6, seed=s),
    "hc7p": lambda s: zoo.hypercube(dim=7, seed=s),
    "grid14": lambda s: zoo.grid_holes(rows=14, cols=14, n_holes=3, n_terminals=10, seed=s),
    "inc100": lambda s: zoo.incidence(n=100, extra_edges=100, n_terminals=10, seed=s),
    "inc200": lambda s: zoo.incidence(n=200, extra_edges=200, n_terminals=14, seed=s),
    "inc300": lambda s: zoo.incidence(n=300, extra_edges=300, n_terminals=16, seed=s),
    "orl75": lambda s: zoo.orlib_random(n=75, m=180, n_terminals=12, seed=s),
    "orl150": lambda s: zoo.orlib_random(n=150, m=350, n_terminals=15, seed=s),
}

MISDP_FAMILIES: dict[str, Builder] = {
    "mkp4": lambda s: min_k_partitioning(n=4, k=2, seed=s),
    "mkp5": lambda s: min_k_partitioning(n=5, k=2, seed=s),
    "mkp6": lambda s: min_k_partitioning(n=6, k=2, seed=s),
    "cls3": lambda s: cardinality_least_squares(n_features=3, n_samples=4, seed=s),
}


def base_key(family: str, gen_seed: int) -> str:
    return f"{family}-s{gen_seed}"


def build_pool(
    pool: tuple[tuple[str, tuple[int, ...]], ...], families: dict[str, Builder]
) -> list[tuple[str, Any]]:
    """``[(key, base instance)]`` for a pool given as (family, generator seeds)."""
    return [
        (base_key(family, s), families[family](s)) for family, seeds in pool for s in seeds
    ]


# -- the serving stream -----------------------------------------------------------

#: (weight, builder): three quarters are zoo instances the reductions settle,
#: one quarter the lightest unit-cost PUC-style instances that still need the
#: cut loop in the worker
SERVE_MIX: tuple[tuple[int, Callable[[int], SteinerGraph]], ...] = (
    (2, lambda s: zoo.grid_holes(rows=4, cols=5, n_holes=1, n_terminals=4, seed=s)),
    (2, lambda s: zoo.orlib_random(n=14, m=24, n_terminals=4, seed=s)),
    (1, lambda s: zoo.incidence(n=12, extra_edges=8, n_terminals=4, seed=s)),
    (1, lambda s: zoo.pace(n=14, n_chords=4, n_terminals=4, seed=s)),
    (1, lambda s: code_cover_instance(3, 3, False, s, 0.3)),
    (1, lambda s: bipartite_instance(6, 12, 3, False, s)),
)


def serve_stream(seed: int, count: int) -> list[tuple[str, SteinerGraph]]:
    """``count`` distinct tiny STP instances, cycling through :data:`SERVE_MIX`."""
    slots = [k for k, (weight, _build) in enumerate(SERVE_MIX) for _ in range(weight)]
    out = []
    for i in range(count):
        k = slots[i % len(slots)]
        gen_seed = seed * 100_000 + i
        out.append((f"j{k}-s{gen_seed}", SERVE_MIX[k][1](gen_seed)))
    return out
