"""ug[SteinerJack] glue — the stp_plugins.cpp analogue (must stay <200 LoC)."""

from __future__ import annotations

from repro.cip.params import ParamSet
from repro.steiner.graph import SteinerGraph
from repro.steiner.reductions import reduce_graph
from repro.steiner.solver import SteinerSolver
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.user_plugins import CIPHandle, UserPlugins


# Heuristic portfolios raced during ramp-up (Figure-1 style): each is a
# (name, plugin_whitelists["heuristic"]) pair; None = every registered
# heuristic. The names are the plugin names registered in
# SteinerSolver._build_cip.
STP_PORTFOLIOS: tuple[tuple[str, tuple[str, ...] | None], ...] = (
    ("full", None),
    ("construct", ("steiner_ascend_prune", "steiner_tm")),
    ("mst", ("steiner_mstc", "steiner_key_vertex")),
    ("local", ("steiner_tm", "steiner_key_vertex")),
    ("lean", ()),
)

# Opt-in (extras["stp/race_plugin_sets"]): racing lanes additionally vary
# whole per-kind plugin whitelists; the lane's portfolio overrides its
# "heuristic" entry.
# Only optional plugins are toggled — the Steiner constraint handler is a
# conshdlr (not whitelistable), so feasibility never depends on a lane.
STP_PLUGIN_SETS: tuple[tuple[str, dict[str, tuple[str, ...]] | None], ...] = (
    ("all", None),
    ("no_dual_fixing", {"propagator": ("integrality", "linear_activity")}),
    ("no_generic_branching", {"branching": ("steinervertex",)}),
    ("lean_propagation", {"propagator": ("integrality",)}),
)


class SteinerUserPlugins(UserPlugins):
    """Declares the Steiner solver to UG (ScipUserPlugins analogue)."""

    base_solver_name = "SteinerJack"

    def presolve_instance(self, instance: SteinerGraph, params: ParamSet, seed: int) -> SteinerGraph:
        graph = instance.copy()
        reduce_graph(graph, use_extended=bool(params.get_extra("steiner/extended_reductions", False)), seed=seed)
        return graph

    def root_para_node(self, instance: SteinerGraph) -> ParaNode:
        return ParaNode(payload={"decisions": [], "fixings": []})

    def create_handle(self, instance, node, params, seed, incumbent):
        solver = SteinerSolver(instance, params=params, seed=seed)
        decisions = tuple((int(v), str(d)) for v, d in node.payload.get("decisions", []))
        fixings = tuple((int(e), int(h), float(lo), float(hi)) for e, h, lo, hi in node.payload.get("fixings", []))
        solver.prepare(
            decisions,
            fixings,
            cutoff_value=None if incumbent is None else incumbent.value,
            use_extended=bool(params.get_extra("steiner/extended_reductions", True)),
            reduce=bool(params.get_extra("ug/layered_presolve", True)),
            dual_bound_estimate=node.dual_bound,
        )
        if solver.cip is None:  # the second presolve layer settled the subproblem
            edges, cost = solver._trivial_solution
            return CIPHandle(None, settled=ParaSolution(cost, {"edges": list(edges)}))

        def encode_node(cip_node):
            decisions, fixings = solver.node_to_subproblem(cip_node)
            return {"decisions": [list(d) for d in decisions], "fixings": [list(f) for f in fixings]}

        return CIPHandle(solver.cip, encode_node, lambda _sol: {"edges": solver.extract_original_edges()})

    def racing_param_sets(self, n: int, base: ParamSet) -> list[ParamSet]:
        sets = []
        selections = ("bestbound", "dfs")
        race_plugin_sets = bool(base.get_extra("stp/race_plugin_sets", False))
        for k in range(n):
            pname, portfolio = STP_PORTFOLIOS[k % len(STP_PORTFOLIOS)]
            extras = {"stp/portfolio": pname}
            whitelists = base.plugin_whitelists
            if race_plugin_sets:
                sname, whitelists = STP_PLUGIN_SETS[k % len(STP_PLUGIN_SETS)]
                extras["stp/plugin_set"] = sname
            if portfolio is not None:
                whitelists = {**(whitelists or {}), "heuristic": portfolio}
            sets.append(
                base.with_changes(
                    permutation_seed=k,
                    node_selection=selections[k % 2],
                    heur_frequency=(3, 5, 10, 1)[k % 4],
                    max_sepa_rounds=(12, 4, 20, 8)[k % 4],
                    plugin_whitelists=whitelists,
                    extras=extras,
                )
            )
        return sets
