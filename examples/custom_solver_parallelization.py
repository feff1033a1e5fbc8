"""The paper's thesis, end to end: build a *customized* CIP solver for
your own problem with plugins, then parallelize it with a page of glue.

The custom problem here is a knapsack-with-conflicts: maximise item
values subject to a capacity row, where conflicting item pairs cannot
both be chosen. We add one problem-specific plugin (a greedy repair
heuristic) on top of the generic MIP stack — the same pattern by which
SCIP-Jack and SCIP-SDP customize SCIP — and then hand the solver to UG
through a tiny UserPlugins class.

Run:  python examples/custom_solver_parallelization.py
"""

import numpy as np

from repro.cip.mip import make_mip_solver
from repro.cip.model import Model, VarType
from repro.cip.plugins import Heuristic
from repro.ug import CIPHandle, UserPlugins, ug
from repro.ug.config import UGConfig


# --- the customized sequential solver (the "SCIP application") ------------

def build_model(seed: int = 7, n: int = 24) -> Model:
    rng = np.random.default_rng(seed)
    values = rng.integers(5, 40, n)
    weights = rng.integers(3, 20, n)
    capacity = int(weights.sum() * 0.35)
    conflicts = set()
    while len(conflicts) < n:
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            conflicts.add((a, b))
    model = Model("knapsack_conflicts")
    model.objective_integral = True
    for i in range(n):
        model.add_variable(f"x{i}", VarType.BINARY, obj=-float(values[i]))
    model.add_constraint({i: float(weights[i]) for i in range(n)}, rhs=float(capacity))
    for a, b in sorted(conflicts):
        model.add_constraint({a: 1.0, b: 1.0}, rhs=1.0, name=f"conflict_{a}_{b}")
    return model


class GreedyRepairHeuristic(Heuristic):
    """Problem-specific plugin: sort by LP value, insert greedily, skipping
    conflicts and capacity overruns."""

    name = "greedy_repair"
    priority = 60

    def run(self, solver, node, x):
        if x is None:
            return
        model = solver.model
        order = sorted(range(model.num_variables), key=lambda i: -float(x[i]))
        chosen = np.zeros(model.num_variables)
        for i in order:
            lo, hi = solver.local_bounds(i)
            if hi < 0.5:
                continue
            chosen[i] = 1.0
            if not model.check_linear(chosen, solver.tol.feas):
                chosen[i] = 0.0 if lo < 0.5 else 1.0
        if model.check_linear(chosen, solver.tol.feas):
            solver.add_solution(model.objective_value(chosen), chosen, check=False)


def make_custom_solver(model, params=None, seed=0):
    solver = make_mip_solver(model.copy(), params)
    solver.include_heuristic(GreedyRepairHeuristic())
    return solver


# --- the glue: everything UG needs, in ~15 lines ---------------------------

def encode_node(node):
    """An open node travels as its variable-bound changes."""
    return {"bounds": [[int(j), float(lo), float(hi)] for j, (lo, hi) in sorted(node.bound_changes.items())]}


class KnapsackUserPlugins(UserPlugins):
    base_solver_name = "KnapsackConflicts"

    def create_handle(self, instance, node, params, seed, incumbent):
        solver = make_custom_solver(instance, params.with_changes(permutation_seed=seed), seed)
        bounds = {int(j): (lo, hi) for j, lo, hi in node.payload.get("bounds", [])}
        solver.setup(root_bounds=bounds, root_estimate=node.dual_bound)
        if incumbent is not None:
            solver.set_cutoff_value(incumbent.value)
        return CIPHandle(solver, encode_node, lambda sol: [float(v) for v in sol.x])


def main() -> None:
    model = build_model()
    seq = make_custom_solver(model).solve()
    print(f"sequential: status={seq.status.value} value={-seq.objective:g} nodes={seq.nodes_processed}")

    cfg = UGConfig(objective_epsilon=1 - 1e-6)
    parallel = ug(model, KnapsackUserPlugins(), n_solvers=4, comm="sim", config=cfg)
    res = parallel.run()
    print(
        f"{res.name}: value={-res.objective:g} solved={res.solved} "
        f"virtual_time={res.stats.computing_time:.3f}s nodes={res.stats.nodes_generated}"
    )
    assert abs(res.objective - seq.objective) < 1e-6
    print("custom solver parallelized — glue was one small UserPlugins class.")


if __name__ == "__main__":
    main()
