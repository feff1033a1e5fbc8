"""Instantiation facade: build and run a ug[<base solver>, <library>].

The factory mirrors the paper's naming scheme: a UG-parallelized solver
is named after its base solver and communication library, e.g.
``ug[SteinerJack, C++11]`` (ThreadEngine) or ``ug[SteinerJack, SimMPI]``
(virtual-time SimEngine standing in for MPI runs, cf. DESIGN.md §4).
``wall_clock_limit`` is a real-time budget every engine honors: once it
is spent the run is interrupted and returns its incumbent and bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cip.params import ParamSet
from repro.exceptions import CommError
from repro.obs.trace import Tracer
from repro.ug.checkpoint import load_checkpoint
from repro.ug.config import UGConfig
from repro.ug.cluster import ClusterSupervisor
from repro.ug.engine_core import build_para_solver
from repro.ug.engines import SimEngine, ThreadEngine
from repro.ug.load_coordinator import LoadCoordinator
from repro.ug.net.loopback_engine import LoopbackNetEngine
from repro.ug.net.process_engine import ProcessEngine
from repro.ug.para_solution import ParaSolution
from repro.ug.statistics import UGStatistics
from repro.ug.user_plugins import UserPlugins

#: comm -> (the paper's library name, the engine class)
_ENGINES: dict[str, tuple[str, Any]] = {
    "sim": ("SimMPI", SimEngine),
    "threads": ("C++11", ThreadEngine),
    # distributed-memory engines (repro.ug.net): real processes over the
    # wire codec, and their deterministic single-threaded loopback twin
    "process": ("MPI", ProcessEngine),
    "loopback": ("NetLoop", LoopbackNetEngine),
}


@dataclass
class UGResult:
    """Outcome of a ug[...] run."""

    name: str
    incumbent: ParaSolution | None
    dual_bound: float
    stats: UGStatistics
    solved: bool
    # the run's event trace (empty unless config.trace_enabled)
    trace: Tracer | None = None

    @property
    def objective(self) -> float:
        return float("inf") if self.incumbent is None else self.incumbent.value

    @property
    def trace_dropped(self) -> int:
        """Events evicted by the trace ring buffer during this run.

        Non-zero means the trace is partial: the ``repro.verify`` tree
        auditors will refuse to certify it (raise
        ``UGConfig.trace_capacity`` to capture the full stream).  Also
        mirrored on ``stats.trace_events_dropped``.
        """
        return 0 if self.trace is None else self.trace.dropped


@dataclass
class UGSolver:
    """A configured parallel solver instance."""

    instance: Any
    user_plugins: UserPlugins
    n_solvers: int
    comm: str = "sim"
    params: ParamSet = field(default_factory=ParamSet)
    config: UGConfig = field(default_factory=UGConfig)
    seed: int = 0
    wall_clock_limit: float = float("inf")

    def __post_init__(self) -> None:
        if self.comm not in _ENGINES:
            raise CommError(f"unknown comm {self.comm!r}; choose from {sorted(_ENGINES)}")
        if self.n_solvers < 1:
            raise CommError("need at least one ParaSolver")

    @property
    def name(self) -> str:
        return f"ug[{self.user_plugins.base_solver_name}, {_ENGINES[self.comm][0]}]"

    def run(
        self,
        restart_from: str | None = None,
        initial_incumbent: ParaSolution | None = None,
        tracer: Tracer | None = None,
    ) -> UGResult:
        """Execute the run; optionally restart from a checkpoint file.

        ``tracer`` injects a pre-built :class:`~repro.obs.trace.Tracer`
        instead of letting the engine construct one from the config —
        callers that need to observe the event stream *while the run is
        in flight* (the ``repro.serve`` per-job progress streams) hold a
        reference and poll ``Tracer.events_since``.

        Restarting re-applies the LoadCoordinator-level presolve (a fresh
        LoadCoordinator is built) and seeds the pool with the checkpoint's
        primitive nodes — exactly the paper's restart mechanism.  A
        corrupted or truncated primary checkpoint falls back to the newest
        valid rotated ``.bak`` copy (counted in
        ``stats.checkpoints_recovered``), so a crash mid-write never
        strands a campaign.
        ``initial_incumbent`` seeds a known solution without a checkpoint
        (the paper's Table 3 pattern: rerun from scratch with the best
        solution, usable for presolving, propagation and heuristics).
        """
        initial_pool = None
        recovered_from_backup = False
        if restart_from is not None:
            cp = load_checkpoint(restart_from)
            recovered_from_backup = cp.recovered
            initial_pool = cp.nodes
            if cp.incumbent is not None and (
                initial_incumbent is None or cp.incumbent.value < initial_incumbent.value
            ):
                initial_incumbent = cp.incumbent

        lc = LoadCoordinator(
            self.instance,
            self.user_plugins,
            self.params,
            self.config,
            self.n_solvers,
            self.seed,
            initial_pool=initial_pool,
            initial_incumbent=initial_incumbent,
        )
        if recovered_from_backup:
            lc.stats.bump("checkpoints_recovered")
        if restart_from is not None:
            # shape-changing restart support: the checkpoint may have been
            # written at a different rank count — audit that the restored
            # frontier covers the saved one node for node before solving
            from repro.verify.restart import audit_restart_coverage

            audit_restart_coverage(cp, lc.restored_nodes).raise_if_failed()
            saved_ranks = cp.meta.get("n_ranks")
            if saved_ranks is not None and int(saved_ranks) != self.n_solvers:
                lc.stats.bump("shape_restarts")
        solvers = {
            rank: build_para_solver(
                rank, lc.instance, self.user_plugins, self.params, self.seed, self.config
            )
            for rank in range(1, self.n_solvers + 1)
        }
        engine_cls = _ENGINES[self.comm][1]
        if engine_cls is ProcessEngine and self.config.cluster_plan is not None:
            engine_cls = ClusterSupervisor  # keeps the TCP listener open for joiners
        engine = engine_cls(lc, solvers, self.config, tracer=tracer)
        engine.wall_clock_limit = self.wall_clock_limit
        engine.run()
        if engine.tracer is not None and engine.tracer.dropped:
            lc.stats.trace_events_dropped = engine.tracer.dropped

        solved = (
            lc.incumbent is not None
            and lc.proven_complete
            and (lc.stats.solved_in_racing or (lc.pool_size() == 0 and not lc.active))
        )
        dual = lc.stats.dual_final if solved else lc.global_dual_bound()
        return UGResult(self.name, lc.incumbent, dual, lc.stats, solved, trace=engine.tracer)


def ug(
    instance: Any,
    user_plugins: UserPlugins,
    n_solvers: int,
    comm: str = "sim",
    params: ParamSet | None = None,
    config: UGConfig | None = None,
    seed: int = 0,
    wall_clock_limit: float = float("inf"),
) -> UGSolver:
    """Build a ug[<base solver>, <library>] parallel solver.

    This is the entire user-facing parallelization API: pass the instance,
    the application's :class:`UserPlugins` glue and a solver count.
    """
    return UGSolver(
        instance,
        user_plugins,
        n_solvers,
        comm,
        params or ParamSet(),
        config or UGConfig(),
        seed,
        wall_clock_limit,
    )
