"""The ParaSolver state machine — Algorithm 2 of the paper.

A ParaSolver wraps a base solver (via the application's
:class:`~repro.ug.user_plugins.UserPlugins`) and interleaves solving with
communication: it reports solutions immediately, sends periodic status,
toggles collect mode on request and ships its best candidate subproblem
to the Supervisor while collecting.

The class is a pure event-driven state machine: ``handle_message`` and
``do_work`` never block, so the same code runs under real threads
(ThreadEngine) and under the virtual-time SimEngine.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.cip.params import ParamSet
from repro.exceptions import ReproError
from repro.obs.trace import NULL_TRACER
from repro.ug.messages import LOAD_COORDINATOR_RANK, Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.user_plugins import SolverHandle, UserPlugins

SendFn = Callable[[int, MessageTag, Any], None]

# fallback work charge for steps that report none (keeps virtual time moving)
_MIN_STEP_WORK = 1e-5


class ParaSolver:
    """One worker of the Supervisor–Worker scheme."""

    def __init__(
        self,
        rank: int,
        instance: Any,
        user_plugins: UserPlugins,
        params: ParamSet,
        seed: int,
        status_interval_work: float = 0.05,
        min_open_to_shed: int = 4,
        objective_epsilon: float = 1e-9,
        transfer_batch: int = 1,
    ) -> None:
        if rank == LOAD_COORDINATOR_RANK:
            raise ValueError("rank 0 is reserved for the LoadCoordinator")
        self.rank = rank
        self.instance = instance
        self.user_plugins = user_plugins
        self.base_params = params
        self.seed = seed
        self.status_interval_work = status_interval_work
        self.min_open_to_shed = min_open_to_shed
        # nodes shed per collect step, coalesced into one NODE_TRANSFER
        # (config.net_batch_nodes; 1 = the classic one-node protocol)
        self.transfer_batch = max(1, int(transfer_batch))
        # must match the coordinator's pruning epsilon: with the integral
        # setting (1 - 1e-6) a worker reporting every 1e-9 improvement
        # would spam solutions the Supervisor rejects
        self.objective_epsilon = objective_epsilon
        # engine-attached telemetry sink; events use busy_work as clock
        self.tracer = NULL_TRACER

        self.state = "idle"  # idle | working | racing | terminated
        self.handle: SolverHandle | None = None
        self.collect_mode = False
        self.current_node: ParaNode | None = None
        self.best_known = math.inf
        self._work_since_status = 0.0
        self._first_step = False
        self.nodes_processed_total = 0
        self.busy_work = 0.0

    # -- message handling -------------------------------------------------------

    def handle_message(self, msg: Message, send: SendFn) -> None:
        tag = msg.tag
        if tag is MessageTag.TERMINATION:
            self.state = "terminated"
            self.handle = None
            return
        if tag is MessageTag.INCUMBENT:
            value = float(msg.payload["value"])
            if value < self.best_known:
                self.best_known = value
                if self.handle is not None:
                    self.handle.inject_incumbent_value(value)
            return
        if tag is MessageTag.START_COLLECTING:
            self.collect_mode = True
            return
        if tag is MessageTag.STOP_COLLECTING:
            self.collect_mode = False
            return
        if tag in (MessageTag.SUBPROBLEM, MessageTag.RACING_START):
            node: ParaNode = msg.payload["node"]
            params: ParamSet = msg.payload.get("settings") or self.base_params
            incumbent_value = msg.payload.get("incumbent")
            incumbent = None
            if incumbent_value is not None and math.isfinite(incumbent_value):
                self.best_known = min(self.best_known, float(incumbent_value))
                incumbent = ParaSolution(self.best_known)
            self.current_node = node
            # second layer of layered presolving happens inside create_handle
            self.handle = self.user_plugins.create_handle(
                self.instance, node, params, self.seed + self.rank, incumbent
            )
            # kernel-level robustness events (quarantine, LP failover,
            # budget stops) flow into the same run trace under this rank
            self.handle.attach_telemetry(self.tracer, self.rank)
            self.state = "racing" if tag is MessageTag.RACING_START else "working"
            self.collect_mode = False
            self._work_since_status = 0.0
            self._first_step = True
            return
        if tag is MessageTag.RACING_WINNER:
            # continue the race tree as the main worker and start shedding
            # open nodes so the Supervisor can feed the idle losers
            if self.state == "racing":
                self.state = "working"
            self.collect_mode = True
            return
        if tag is MessageTag.JOIN:
            # welcome packet for a late joiner: absorb the current incumbent
            # and the run's settings (e.g. the racing winner's ParamSet)
            payload = msg.payload or {}
            value = payload.get("incumbent")
            if value is not None and math.isfinite(value):
                self.best_known = min(self.best_known, float(value))
            settings = payload.get("settings")
            if settings is not None:
                self.base_params = settings
            return
        if tag is MessageTag.DRAIN:
            # graceful leave: hand the in-flight subproblem back (None when
            # idle) so the Supervisor re-queues it without burning a retry,
            # then retire this rank
            if self.state == "terminated":
                return
            node = self.current_node if self.is_busy else None
            send(
                LOAD_COORDINATOR_RANK,
                MessageTag.DRAINED,
                {
                    "rank": self.rank,
                    "node": node,
                    "nodes_processed": self.nodes_processed_total,
                },
            )
            self._drop_subproblem("terminated")
            return
        if tag is MessageTag.RACING_LOSER:
            # discard the race tree; solutions were already reported
            self._drop_subproblem()
            send(LOAD_COORDINATOR_RANK, MessageTag.TERMINATED, {"racing_loser": True, "rank": self.rank})
            return
        raise AssertionError(f"ParaSolver {self.rank}: unexpected tag {tag}")

    # -- work --------------------------------------------------------------------

    def do_work(self, send: SendFn) -> float | None:
        """Advance the base solver by one node; returns work spent or None.

        A library-level failure inside the base solver (``ReproError``) is
        contained: the subproblem is surrendered back to the Supervisor
        with ``failed=True`` (which reclaims and retries it elsewhere) and
        this ParaSolver returns to the idle pool instead of taking the
        whole rank down.  Programming errors still propagate.
        """
        if self.state not in ("working", "racing") or self.handle is None:
            return None
        tracer = self.tracer
        try:
            step = self.handle.step()
        except ReproError:
            tracer.emit(self.busy_work, "step_failure", self.rank, nodes=self.nodes_processed_total)
            send(
                LOAD_COORDINATOR_RANK,
                MessageTag.TERMINATED,
                {"rank": self.rank, "failed": True, "nodes_processed": self.nodes_processed_total},
            )
            self._drop_subproblem()
            return _MIN_STEP_WORK
        work = max(step.work, _MIN_STEP_WORK)
        self.busy_work += work
        self.nodes_processed_total += step.nodes_processed
        if tracer.enabled:
            tracer.emit(
                self.busy_work,
                "step",
                self.rank,
                work=work,
                nodes=step.nodes_processed,
                dual=step.dual_bound,
                n_open=step.n_open,
                finished=step.finished,
            )

        for sol in step.solutions:
            if sol.value < self.best_known - self.objective_epsilon:
                self.best_known = sol.value
                tracer.emit(self.busy_work, "solution", self.rank, value=sol.value)
                send(LOAD_COORDINATOR_RANK, MessageTag.SOLUTION_FOUND, {"solution": sol, "rank": self.rank})

        if step.finished:
            if step.status == "numerical_error":
                # the kernel degraded (essential plugin failed) but kept a
                # valid dual bound: surrender the subproblem like a
                # contained step failure, flagged so the Supervisor can
                # account numerical trouble separately from crashes
                tracer.emit(
                    self.busy_work, "numerical_failure", self.rank, dual=step.dual_bound
                )
                send(
                    LOAD_COORDINATOR_RANK,
                    MessageTag.TERMINATED,
                    {
                        "rank": self.rank,
                        "failed": True,
                        "numerical": True,
                        "dual_bound": step.dual_bound,
                        "nodes_processed": self.nodes_processed_total,
                    },
                )
            else:
                send(
                    LOAD_COORDINATOR_RANK,
                    MessageTag.TERMINATED,
                    {
                        "rank": self.rank,
                        "dual_bound": step.dual_bound,
                        "nodes_processed": self.nodes_processed_total,
                    },
                )
            self._drop_subproblem()
            return work

        self._work_since_status += work
        if self._work_since_status >= self.status_interval_work or self._first_step:
            self._work_since_status = 0.0
            status: dict[str, Any] = {
                "rank": self.rank,
                "dual_bound": step.dual_bound,
                "n_open": step.n_open,
                "nodes_processed": self.nodes_processed_total,
                "state": self.state,
            }
            if self._first_step:
                status["first_step_work"] = work
                self._first_step = False
            send(LOAD_COORDINATOR_RANK, MessageTag.STATUS, status)
        if self.collect_mode and self.state == "working" and step.n_open >= self.min_open_to_shed:
            assert self.current_node is not None
            lineage = self.current_node.lineage + (
                (self.current_node.lc_id,) if self.current_node.lc_id >= 0 else ()
            )
            shed: list[ParaNode] = []
            # the first extraction keeps the classic n_open >= min_open_to_shed
            # gate; each further one must still leave min_open_to_shed nodes
            while len(shed) < self.transfer_batch and (
                not shed or step.n_open - len(shed) >= self.min_open_to_shed
            ):
                para = self.handle.extract_para_node()
                if para is None:
                    break
                para.lineage = lineage
                tracer.emit(self.busy_work, "shed", self.rank, dual=para.dual_bound, depth=para.depth)
                shed.append(para)
            if len(shed) == 1:
                send(LOAD_COORDINATOR_RANK, MessageTag.NODE_TRANSFER, {"node": shed[0], "rank": self.rank})
            elif shed:
                send(LOAD_COORDINATOR_RANK, MessageTag.NODE_TRANSFER, {"nodes": shed, "rank": self.rank})
        return work

    def _drop_subproblem(self, state: str = "idle") -> None:
        """Let go of the current subproblem and its tree, then enter ``state``."""
        self.state = state
        self.handle = None
        self.current_node = None
        self.collect_mode = False

    @property
    def is_busy(self) -> bool:
        return self.state in ("working", "racing")
