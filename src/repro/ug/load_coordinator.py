"""The LoadCoordinator — Algorithm 1 of the paper, plus racing ramp-up,
dynamic load balancing, checkpointing, restart and failure recovery.

The LoadCoordinator never touches a B&B tree: it keeps a small pool of
extracted :class:`ParaNode` subproblems, assigns them to idle solvers,
maintains the global incumbent, toggles collect mode when the pool runs
low on heavy subproblems, and periodically saves the primitive nodes.

Fault tolerance (the Tables 2-3 restart-series story): every message a
worker sends doubles as a heartbeat.  An *active* solver silent for
``config.heartbeat_timeout`` is declared dead; its assigned ParaNode is
reclaimed into the pool (re-numbered, so stale lineage cannot collide)
and handed to a survivor.  The run degrades gracefully — it terminates
correctly even when every solver dies — and a base-solver step failure
reported by a live ParaSolver is likewise contained by reclaiming the
node, with a bounded retry count so one poisonous subproblem cannot loop
forever.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, Callable

from repro.cip.params import ParamSet
from repro.obs.trace import NULL_TRACER
from repro.ug.checkpoint import save_checkpoint
from repro.ug.config import UGConfig
from repro.ug.messages import ACCEPTED_FROM_DEAD_TAGS, LOAD_COORDINATOR_RANK, Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.statistics import UGStatistics
from repro.ug.user_plugins import UserPlugins

SendFn = Callable[[int, MessageTag, Any], None]

# collect mode (Algorithm 1): start collecting while fewer than
# n_idle + POOL_BUFFER nodes are pooled, from at most MAX_COLLECTORS
# solvers, and stop at POOL_HIGH_WATERMARK_FACTOR times that target
POOL_BUFFER = 1
POOL_HIGH_WATERMARK_FACTOR = 2.0
MAX_COLLECTORS = 4
# rotating .bak copies kept next to the checkpoint (cp.json.bak1 is the
# newest backup); load_checkpoint falls back to them on corruption
CHECKPOINT_RETAIN = 2


class LoadCoordinator:
    """Supervisor of the Supervisor–Worker scheme."""

    def __init__(
        self,
        instance: Any,
        user_plugins: UserPlugins,
        params: ParamSet,
        config: UGConfig,
        n_solvers: int,
        seed: int = 0,
        initial_pool: list[ParaNode] | None = None,
        initial_incumbent: ParaSolution | None = None,
    ) -> None:
        self.user_plugins = user_plugins
        self.params = params
        self.config = config
        self.n_solvers = n_solvers
        self.seed = seed
        # layered presolving, first layer: presolve the instance once here
        self.instance = user_plugins.presolve_instance(instance, params, seed)

        self._pool: list[tuple[float, int, ParaNode]] = []
        self._pool_seq = itertools.count()
        self._lc_ids = itertools.count()
        # membership is a *runtime* property (repro.ug.cluster): ranks may
        # join after launch (fresh ids from _next_rank) and leave either
        # gracefully (DRAIN -> departed) or by dying (-> dead)
        self.ranks: set[int] = set(range(1, n_solvers + 1))
        self._next_rank = n_solvers + 1
        self.draining: set[int] = set()
        self._drain_requested: dict[int, float] = {}
        self.departed: set[int] = set()
        self.idle: set[int] = set(range(1, n_solvers + 1))
        self.active: dict[int, ParaNode] = {}
        self.collecting: set[int] = set()
        self.incumbent: ParaSolution | None = initial_incumbent
        self.finished = False
        self.stats = UGStatistics(n_solvers=n_solvers, peak_ranks=n_solvers)
        # engine-attached telemetry sink (NULL_TRACER outside engines)
        self.tracer = NULL_TRACER
        self._trace_now = 0.0
        self._last_status: dict[int, dict[str, Any]] = {}
        self._nodes_processed: dict[int, int] = {}
        self._solver_dual: dict[int, float] = {}
        self._racing = False
        self._racing_settings: list[ParamSet] = []
        self._settings_of_rank: dict[int, int] = {}
        self._root_reported = False
        self._last_checkpoint = 0.0
        self._terminated_racers: set[int] = set()
        self._restart_pool = list(initial_pool or [])
        # fault tolerance: dead ranks, per-rank last-heard timestamps, and a
        # flag raised when a subproblem had to be abandoned (so we never
        # claim a proven optimum over an incompletely explored tree); the
        # abandoned subtrees' best dual bound caps the global bound, since
        # the lost region may hide solutions down to that value
        self.dead: set[int] = set()
        self._last_heartbeat: dict[int, float] = {}
        self._alive_until: dict[int, float] = {}
        self._lost_subtrees = False
        self._lost_dual = math.inf
        self._racing_root_dual = -math.inf
        # set by the engine so injected checkpoint corruption replays
        # deterministically; None outside fault-injection runs
        self.fault_injector: Any = None
        # incumbent broadcast debounce (config.net_incumbent_debounce)
        self._pending_incumbent = False
        self._last_incumbent_broadcast = -math.inf
        if self.incumbent is not None:
            self.stats.primal_initial = self.incumbent.value
        if self._restart_pool:
            self.stats.dual_initial = min(n.dual_bound for n in self._restart_pool)
        # immutable snapshot of the restored frontier, so repro.verify can
        # audit that a (possibly shape-changing) restart covers the saved
        # checkpoint even after the live nodes are renumbered and assigned
        self.restored_nodes: tuple[ParaNode, ...] = tuple(
            ParaNode.from_json(n.to_json()) for n in self._restart_pool
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self, send: SendFn, now: float) -> None:
        """Initial distribution: restart pool, racing, or single-root."""
        self._trace_now = now
        if self._restart_pool:
            for node in self._restart_pool:
                self._push_pool(node, renumber=True)
            self._restart_pool = []
            self._assign(send, now)
            return
        root = self.user_plugins.root_para_node(self.instance)
        if self.config.ramp_up == "racing" and self.n_solvers >= 2:
            self._racing = True
            self._racing_root_dual = root.dual_bound
            self._racing_settings = self.user_plugins.racing_param_sets(self.n_solvers, self.params)
            for rank in sorted(self.idle):
                settings = self._racing_settings[(rank - 1) % len(self._racing_settings)]
                self._settings_of_rank[rank] = ((rank - 1) % len(self._racing_settings)) + 1
                node = ParaNode(payload=dict(root.payload), dual_bound=root.dual_bound)
                node.lc_id = next(self._lc_ids)
                node.origin_rank = rank
                self.active[rank] = node
                self._last_heartbeat[rank] = now
                self.tracer.emit(
                    now, "racing_start", rank, settings=self._settings_of_rank[rank], lc_id=node.lc_id
                )
                send(
                    rank,
                    MessageTag.RACING_START,
                    {"node": node, "settings": settings, "incumbent": self._incumbent_value()},
                )
            self.idle.clear()
            self._record_active(now)
            self.stats.bump("transferred_nodes", self.n_solvers)
        else:
            root.lc_id = next(self._lc_ids)
            self._push_pool(root)
            self._assign(send, now)

    # -- pool helpers ----------------------------------------------------------

    def _push_pool(self, node: ParaNode, renumber: bool = False) -> None:
        if renumber or node.lc_id < 0:
            node.lc_id = next(self._lc_ids)
        heapq.heappush(self._pool, (node.dual_bound, next(self._pool_seq), node))

    def _incumbent_value(self) -> float | None:
        return None if self.incumbent is None else self.incumbent.value

    def pool_size(self) -> int:
        return len(self._pool)

    def _assign(self, send: SendFn, now: float) -> None:
        """Algorithm 1's inner while: feed idle solvers from the pool."""
        while self.idle and self._pool:
            _, _, node = heapq.heappop(self._pool)
            if (
                self.incumbent is not None
                and node.dual_bound >= self.incumbent.value - self.config.objective_epsilon
            ):
                self.tracer.emit(now, "prune", 0, lc_id=node.lc_id, dual=node.dual_bound)
                continue  # pruned by bound
            rank = min(self.idle)
            self.idle.discard(rank)
            node.origin_rank = rank
            self.active[rank] = node
            self._last_heartbeat[rank] = now
            self.tracer.emit(now, "assign", rank, lc_id=node.lc_id, dual=node.dual_bound)
            send(
                rank,
                MessageTag.SUBPROBLEM,
                {"node": node, "incumbent": self._incumbent_value(), "settings": self._solver_params(rank)},
            )
            self.stats.bump("transferred_nodes")
        self._record_active(now)
        self._update_collecting(send)
        self._check_termination(send, now)

    def _solver_params(self, rank: int) -> ParamSet:
        # after racing, every solver continues with the winner's settings if
        # known; otherwise the base parameters with a per-rank permutation
        if self.stats.racing_winner is not None and self._racing_settings:
            return self._racing_settings[(self.stats.racing_winner - 1) % len(self._racing_settings)]
        return self.params.with_changes(permutation_seed=self.params.permutation_seed + rank)

    def _record_active(self, now: float) -> None:
        if self.stats.peak("max_active_solvers", len(self.active)):
            self.stats.first_max_active_time = now

    # -- collect mode (heavy-subproblem management) ------------------------------

    def _update_collecting(self, send: SendFn) -> None:
        if self._racing or self.finished:
            return
        # collecting only makes sense while idle solvers are starving
        if not self.idle:
            if self.collecting:
                self._stop_collecting(send)
            return
        want = len(self.idle) + POOL_BUFFER
        high = int(want * POOL_HIGH_WATERMARK_FACTOR)
        if self.collecting and len(self._pool) >= max(high, 1):
            self._stop_collecting(send)
        elif not self.collecting and len(self._pool) < want and self.active:
            # pick the solvers believed to have the largest trees
            def open_count(rank: int) -> int:
                return int(self._last_status.get(rank, {}).get("n_open", 0))

            # never ask a leaving rank to collect — it is already winding down
            candidates = sorted(
                (r for r in self.active if r not in self.draining), key=lambda r: -open_count(r)
            )
            for rank in candidates[:MAX_COLLECTORS]:
                self.tracer.emit(self._trace_now, "collect_start", rank, pool=len(self._pool))
                send(rank, MessageTag.START_COLLECTING, None)
                self.collecting.add(rank)

    def _stop_collecting(self, send: SendFn) -> None:
        for rank in self.collecting:
            self.tracer.emit(self._trace_now, "collect_stop", rank, pool=len(self._pool))
            send(rank, MessageTag.STOP_COLLECTING, None)
        self.collecting.clear()

    # -- message handling ---------------------------------------------------------

    def handle_message(self, msg: Message, send: SendFn, now: float) -> None:
        tag = msg.tag
        payload = msg.payload or {}
        self._trace_now = now
        if msg.src != LOAD_COORDINATOR_RANK:
            if msg.src in self.dead:
                # a rank declared dead may still have messages in flight (or
                # be a false positive that kept computing): a late solution
                # is welcome, stale bookkeeping is not
                if tag not in ACCEPTED_FROM_DEAD_TAGS:
                    return
            else:
                # every worker message doubles as a heartbeat
                self._last_heartbeat[msg.src] = now
        if tag is MessageTag.SOLUTION_FOUND:
            self._on_solution(payload["solution"], send)
        elif tag is MessageTag.NODE_TRANSFER:
            # accepts both the classic single-node payload ({"node": ...})
            # and the coalesced form ({"nodes": [...]}) a batching solver
            # ships when net_batch_nodes > 1
            nodes: list[ParaNode] = payload.get("nodes") or (
                [payload["node"]] if payload.get("node") is not None else []
            )
            origin = int(payload.get("rank", msg.src))
            for node in nodes:
                node.origin_rank = origin
                if (
                    self.incumbent is None
                    or node.dual_bound < self.incumbent.value - self.config.objective_epsilon
                ):
                    self._push_pool(node)
            self._assign(send, now)
        elif tag is MessageTag.DRAINED:
            self._on_drained(payload, send, now)
        elif tag is MessageTag.STATUS:
            rank = payload["rank"]
            if rank not in self.active:
                # a stale or delayed STATUS from a rank that already left
                # the working set (terminated, racing loser, failed) must
                # not re-enter _last_status — it was popped on TERMINATED,
                # and a resurrected entry can spuriously trip
                # _maybe_finish_racing's open-node threshold
                self.tracer.emit(now, "stale_status", rank)
                return
            self._last_status[rank] = payload
            self._nodes_processed[rank] = payload.get("nodes_processed", 0)
            self._solver_dual[rank] = payload.get("dual_bound", -math.inf)
            if not self._root_reported and "first_step_work" in payload:
                self.stats.root_time = payload["first_step_work"]
                self._root_reported = True
            if self._racing:
                self._maybe_finish_racing(send, now)
            else:
                self._update_collecting(send)
        elif tag is MessageTag.TERMINATED:
            rank = payload["rank"]
            if payload.get("failed"):
                # the ParaSolver contained a base-solver error: the solver
                # itself survives, but its subproblem must be re-explored
                if payload.get("numerical"):
                    # the kernel degraded (NUMERICAL_ERROR) rather than
                    # crashed: same containment, separate accounting
                    self.stats.bump("numerical_failures")
                    self.tracer.emit(
                        now, "numerical_failure_contained", rank,
                        dual=payload.get("dual_bound", -math.inf),
                    )
                else:
                    self.stats.bump("step_failures")
                    self.tracer.emit(now, "step_failure_contained", rank)
                if "nodes_processed" in payload:
                    self._nodes_processed[rank] = payload["nodes_processed"]
                self.collecting.discard(rank)
                self._last_status.pop(rank, None)
                self._solver_dual.pop(rank, None)
                if self._racing:
                    # a failed racer drops out like a loser; its root copy is
                    # still covered by the surviving racers
                    self.active.pop(rank, None)
                    self._terminated_racers.add(rank)
                    self.idle.add(rank)
                    if not self._racers_left():
                        self._end_without_racers(send, now)
                    return
                self._reclaim_active_node(rank)
                self.idle.add(rank)
                self._assign(send, now)
                return
            if payload.get("racing_loser"):
                self._terminated_racers.add(rank)
                self.idle.add(rank)
                self.active.pop(rank, None)
                self._assign(send, now)
                return
            self.active.pop(rank, None)
            self.idle.add(rank)
            self.collecting.discard(rank)
            self._last_status.pop(rank, None)
            self._solver_dual.pop(rank, None)
            if "nodes_processed" in payload:
                self._nodes_processed[rank] = payload["nodes_processed"]
            if self._racing:
                # a racer finished the whole instance during the race
                self.stats.solved_in_racing = True
                self._racing = False
                self.stats.racing_winner = None
                self.tracer.emit(now, "solved_in_racing", rank)
                self._broadcast_termination(send, now)
                return
            self._assign(send, now)
        else:  # pragma: no cover - protocol violation
            raise AssertionError(f"LoadCoordinator: unexpected tag {tag}")

    def _on_solution(self, sol: ParaSolution, send: SendFn) -> None:
        if not sol.improves(self.incumbent):
            return
        if math.isinf(self.stats.primal_initial):
            self.stats.primal_initial = sol.value
        self.incumbent = sol
        self.stats.primal_final = sol.value
        self.tracer.emit(self._trace_now, "incumbent", 0, value=sol.value)
        # share the bound with every busy solver — debounced: improvements
        # landing inside net_incumbent_debounce of the last broadcast are
        # held, and only the best value flushes on a later tick.  Sound by
        # construction: a worker holding a stale bound merely prunes less
        # until the flush, and new assignments carry the live incumbent in
        # their SUBPROBLEM payload regardless
        debounce = self.config.net_incumbent_debounce
        if debounce <= 0 or self._trace_now - self._last_incumbent_broadcast >= debounce:
            self._broadcast_incumbent(send)
        else:
            self._pending_incumbent = True
            self.stats.bump("incumbent_broadcasts_deferred")
        # prune the pool
        eps = self.config.objective_epsilon
        kept = [(b, s, n) for b, s, n in self._pool if n.dual_bound < sol.value - eps]
        if len(kept) != len(self._pool):
            self.tracer.emit(self._trace_now, "pool_prune", 0, removed=len(self._pool) - len(kept))
            self._pool = kept
            heapq.heapify(self._pool)

    def _broadcast_incumbent(self, send: SendFn) -> None:
        """Ship the current best value to every busy solver, now."""
        if self.incumbent is None:
            return
        for rank in self.active:
            send(rank, MessageTag.INCUMBENT, {"value": self.incumbent.value})
        self._last_incumbent_broadcast = self._trace_now
        self._pending_incumbent = False

    # -- racing -----------------------------------------------------------------

    def _maybe_finish_racing(self, send: SendFn, now: float) -> None:
        deadline_hit = now >= self.config.racing_deadline
        threshold_hit = any(
            st.get("n_open", 0) >= self.config.racing_open_node_threshold
            for st in self._last_status.values()
        )
        if not (deadline_hit or threshold_hit):
            return
        contenders = [
            r for r in self.active if r not in self._terminated_racers and r not in self.draining
        ]
        if not contenders:
            return
        # winner: best (highest) dual bound, more open nodes breaks ties
        def key(rank: int) -> tuple[float, int]:
            st = self._last_status.get(rank, {})
            return (st.get("dual_bound", -math.inf), st.get("n_open", 0))

        winner = max(contenders, key=key)
        self._racing = False
        self.stats.racing_winner = self._settings_of_rank.get(winner)
        self.stats.racing_time = now
        winner_node = self.active[winner]
        self.tracer.emit(
            now,
            "racing_winner",
            winner,
            settings=self._settings_of_rank.get(winner),
            deadline_hit=deadline_hit,
            contenders=len(contenders),
        )
        send(winner, MessageTag.RACING_WINNER, None)
        self.collecting.add(winner)
        for rank in contenders:
            if rank != winner:
                self.tracer.emit(now, "racing_loser", rank)
                send(rank, MessageTag.RACING_LOSER, None)
                self.active.pop(rank, None)
        self.active = {winner: winner_node}
        self._record_active(now)

    # -- failure detection and recovery ------------------------------------------

    def live_solvers(self) -> set[int]:
        """Current members not declared dead (departed ranks left the set)."""
        return self.ranks - self.dead

    # -- elastic membership (repro.ug.cluster) ------------------------------------

    def next_rank_id(self) -> int:
        """A fresh rank id for a joiner; never reuses a past member's id."""
        return self._next_rank

    def note_rank_join(self, send: SendFn, now: float, rank: int | None = None) -> int:
        """Admit a new rank into the running solve.

        The engine has already wired the rank's channel; here it becomes a
        member: welcome packet (current incumbent + the settings a launch
        rank would use, e.g. the racing winner's ParamSet), then straight
        into the idle set so the next :meth:`_assign` can feed it.
        """
        if rank is None:
            rank = self._next_rank
        if rank in self.ranks or rank in self.departed:
            raise ValueError(f"rank {rank} was already a member of this run")
        if self.finished:
            return rank
        self._next_rank = max(self._next_rank, rank + 1)
        self._trace_now = now
        self.ranks.add(rank)
        self.idle.add(rank)
        self._last_heartbeat[rank] = now
        self.stats.bump("ranks_joined")
        self.stats.peak("peak_ranks", len(self.live_solvers()))
        self.tracer.emit(now, "rank_join", rank, live=len(self.live_solvers()))
        send(
            rank,
            MessageTag.JOIN,
            {"incumbent": self._incumbent_value(), "settings": self._solver_params(rank)},
        )
        self._assign(send, now)
        return rank

    def request_drain(self, rank: int, send: SendFn, now: float) -> None:
        """Ask ``rank`` to leave gracefully (voluntary scale-down).

        The rank answers with DRAINED carrying its in-flight node, which
        re-enters the pool *without* burning a ``max_node_retries`` attempt
        — unlike a crash, nothing was lost.  A drain unanswered for
        ``config.drain_grace`` escalates onto the death/reclaim path.
        """
        if self.finished or rank in self.dead or rank in self.departed or rank in self.draining:
            return
        if rank not in self.ranks:
            return
        self._trace_now = now
        self.draining.add(rank)
        self._drain_requested[rank] = now
        # no new work for a leaving rank
        self.idle.discard(rank)
        self.collecting.discard(rank)
        self.stats.bump("drains_requested")
        self.tracer.emit(now, "drain_request", rank, active=rank in self.active)
        send(rank, MessageTag.DRAIN, None)

    def _on_drained(self, payload: dict[str, Any], send: SendFn, now: float) -> None:
        """A rank confirmed its drain: requeue its node, retire the rank."""
        rank = payload["rank"]
        if rank in self.dead or rank in self.departed:
            return
        if "nodes_processed" in payload:
            self._nodes_processed[rank] = payload["nodes_processed"]
        was_contender = (
            self._racing and rank in self.active and rank not in self._terminated_racers
        )
        self.active.pop(rank, None)
        node = payload.get("node")
        requeued = False
        # racing roots are copies of the same subproblem — survivors still
        # cover the tree, so a draining racer's node is not requeued
        if node is not None and not self._racing:
            if (
                self.incumbent is None
                or node.dual_bound < self.incumbent.value - self.config.objective_epsilon
            ):
                node.origin_rank = rank
                self._push_pool(node, renumber=True)
                self.stats.bump("nodes_returned")
                requeued = True
        self.ranks.discard(rank)
        self.departed.add(rank)
        self._forget_rank(rank)
        self.stats.bump("ranks_drained")
        self.tracer.emit(now, "rank_drained", rank, requeued=requeued, live=len(self.live_solvers()))
        if not self.live_solvers():
            # the whole fleet left — nobody to feed; stop (honestly: a
            # non-empty pool keeps the run from claiming completeness)
            self._end_without_racers(send, now)
            return
        if self._racing:
            if was_contender and not self._racers_left():
                self._end_without_racers(send, now)
            return
        self._assign(send, now)

    def _check_drains(self, send: SendFn, now: float) -> None:
        """Escalate drains the rank never answered (crashed mid-drain?)."""
        if not self.draining or self.finished:
            return
        for rank in sorted(self.draining):
            if now - self._drain_requested.get(rank, now) > self.config.drain_grace:
                self.stats.bump("drain_timeouts")
                self.tracer.emit(now, "drain_timeout", rank)
                self._mark_dead(rank, send, now)
                if self.finished:
                    return

    def _racers_left(self) -> bool:
        return any(r not in self._terminated_racers for r in self.active)

    def _end_without_racers(self, send: SendFn, now: float) -> None:
        """No racer (or no rank at all) is left to work: end the run.

        A race still running is lost with it: the racing root was never
        fully explored by any survivor, so the optimality claim and the
        global dual bound are surrendered.  (A racer that solved the whole
        instance has already ended the race.)
        """
        if self._racing:
            self._racing = False
            self._lost_subtrees = True
            self._lost_dual = min(self._lost_dual, self._racing_root_dual)
        self._broadcast_termination(send, now)

    def _forget_rank(self, rank: int) -> None:
        """Drop every per-rank record of a rank that left the run."""
        self.idle.discard(rank)
        self.collecting.discard(rank)
        self.draining.discard(rank)
        self._terminated_racers.discard(rank)
        self._drain_requested.pop(rank, None)
        self._last_status.pop(rank, None)
        self._solver_dual.pop(rank, None)
        self._last_heartbeat.pop(rank, None)

    def _reclaim_active_node(self, rank: int) -> None:
        """Pull ``rank``'s assigned node back into the pool (re-numbered)."""
        node = self.active.pop(rank, None)
        if node is None:
            return
        if (
            self.incumbent is not None
            and node.dual_bound >= self.incumbent.value - self.config.objective_epsilon
        ):
            return  # already pruned by bound — nothing was lost
        node.attempts += 1
        if node.attempts > self.config.max_node_retries:
            # a poisonous subproblem: stop retrying, surrender completeness
            self._lost_subtrees = True
            self._lost_dual = min(self._lost_dual, node.dual_bound)
            self.tracer.emit(self._trace_now, "abandon", rank, dual=node.dual_bound, attempts=node.attempts)
            return
        self._push_pool(node, renumber=True)
        self.stats.bump("nodes_reclaimed")
        self.tracer.emit(self._trace_now, "reclaim", rank, lc_id=node.lc_id, attempts=node.attempts)

    def _mark_dead(self, rank: int, send: SendFn, now: float) -> None:
        """Declare ``rank`` lost, reclaim its work, keep the run going."""
        if rank in self.dead:
            return
        self.dead.add(rank)
        self.stats.bump("solver_failures")
        self.tracer.emit(now, "solver_dead", rank, racing=self._racing)
        if self._racing:
            # racing roots are copies of the same subproblem — the surviving
            # racers still cover the whole tree, so nothing is reclaimed
            self.active.pop(rank, None)
        else:
            self._reclaim_active_node(rank)
        self._forget_rank(rank)
        if not self.live_solvers():
            # every solver is gone — nobody left to feed; stop gracefully
            self._end_without_racers(send, now)
            return
        if self._racing:
            # a dead racer leaves the contest; the race goes on among the
            # survivors (and ends immediately if none remain racing)
            if not self._racers_left():
                self._end_without_racers(send, now)
            return
        self._assign(send, now)

    def note_rank_death(self, rank: int, send: SendFn, now: float, reason: str = "unknown") -> None:
        """Engine-observed death (process exit, closed pipe, kill signal).

        The distributed engines see failures the heartbeat cannot: a child
        process exiting, a pipe EOF.  They funnel those observations here,
        onto the same reclaim/continue path as a heartbeat timeout, so
        both detection mechanisms share one recovery story.
        """
        if rank in self.dead or self.finished:
            return
        if rank not in self.ranks:
            # a departed rank's connection closing is the tail end of a
            # graceful drain, not a death — nothing to reclaim
            return
        self._trace_now = now
        self.tracer.emit(now, "rank_death_observed", rank, reason=reason)
        self._mark_dead(rank, send, now)

    def note_rank_alive(self, rank: int, until: float) -> None:
        """Engine-observed liveness, the counterpart of
        :meth:`note_rank_death`: the engine can see ``rank`` computing
        until ``until``, so its silence up to then is no missed heartbeat."""
        self._alive_until[rank] = until

    def nodes_processed_total(self) -> int:
        """Processed B&B nodes summed over every rank's last report."""
        return sum(self._nodes_processed.values())

    def _check_heartbeats(self, send: SendFn, now: float) -> None:
        timeout = self.config.heartbeat_timeout
        if math.isinf(timeout) or self.finished:
            return
        # watch every live rank expected to speak again: active workers,
        # and ranks winding down (e.g. a racing loser that has yet to
        # confirm TERMINATED).  Idle ranks are silent by design.
        for rank in sorted(self.live_solvers() - self.idle):
            last = max(self._last_heartbeat.get(rank, now), self._alive_until.get(rank, -math.inf))
            if now - last > timeout:
                self._mark_dead(rank, send, now)
                if self.finished:
                    return

    # -- ticks: deadline, checkpoints, limits ------------------------------------

    def on_tick(self, send: SendFn, now: float) -> None:
        """Called by the engine after every event."""
        if self.finished:
            return
        self._trace_now = now
        self._check_heartbeats(send, now)
        if self.finished:
            return
        self._check_drains(send, now)
        if self.finished:
            return
        if (
            self._pending_incumbent
            and now - self._last_incumbent_broadcast >= self.config.net_incumbent_debounce
        ):
            self._broadcast_incumbent(send)
        if self._racing and now >= self.config.racing_deadline:
            self._maybe_finish_racing(send, now)
        if (
            self.config.checkpoint_path is not None
            and now - self._last_checkpoint >= self.config.checkpoint_interval
        ):
            self.write_checkpoint(self.config.checkpoint_path, now)
            self._last_checkpoint = now

    def interrupt(self, send: SendFn, now: float) -> None:
        """Stop the run (time/node limit): terminate everyone, keep state."""
        if not self.finished:
            self._trace_now = now
            self.tracer.emit(now, "interrupt", 0)
            if self.config.checkpoint_path is not None:
                self.write_checkpoint(self.config.checkpoint_path, now)
            self._broadcast_termination(send, now)

    def _broadcast_termination(self, send: SendFn, now: float) -> None:
        self.finished = True
        self.tracer.emit(now, "terminate", 0, pool=len(self._pool), active=len(self.active))
        for rank in sorted(self.ranks):
            send(rank, MessageTag.TERMINATION, None)
        self._finalize_stats(now)

    def _check_termination(self, send: SendFn, now: float) -> None:
        if not self._racing and not self.finished and not self._pool and not self.active:
            self._broadcast_termination(send, now)

    def _finalize_stats(self, now: float) -> None:
        s = self.stats
        s.computing_time = now
        if self.incumbent is not None:
            s.primal_final = self.incumbent.value
        s.dual_final = self.global_dual_bound()
        proven = (
            (not self.active and not self._pool) or s.solved_in_racing
        ) and not self._lost_subtrees
        if proven and self.incumbent is not None and not math.isinf(s.primal_final):
            s.dual_final = s.primal_final  # proven optimal
        s.open_nodes_final = len(self._pool) + sum(
            int(self._last_status.get(r, {}).get("n_open", 0)) for r in self.active
        )
        s.nodes_generated = sum(self._nodes_processed.values())
        s.final_ranks = len(self.live_solvers())

    @property
    def proven_complete(self) -> bool:
        """False when a subproblem had to be abandoned (no optimality claim)."""
        return not self._lost_subtrees

    def global_dual_bound(self) -> float:
        bounds = [n.dual_bound for _, _, n in self._pool]
        for rank, node in self.active.items():
            bounds.append(self._solver_dual.get(rank, node.dual_bound))
        if self._lost_dual < math.inf:
            # an abandoned subtree may hide solutions down to its bound
            bounds.append(self._lost_dual)
        if not bounds:
            return self.incumbent.value if self.incumbent is not None else -math.inf
        return min(bounds)

    # -- checkpointing ------------------------------------------------------------

    def primitive_nodes(self) -> list[ParaNode]:
        """The minimal covering set saved at checkpoints.

        Active assignment seeds cover their solvers' whole subtrees; a
        pooled node is *primitive* iff none of its lineage ancestors is an
        active seed (otherwise regenerating the seed re-creates it).
        """
        saved: list[ParaNode] = [node for node in self.active.values()]
        active_ids = {node.lc_id for node in self.active.values()}
        for _, _, node in self._pool:
            if not any(anc in active_ids for anc in node.lineage):
                saved.append(node)
        return saved

    def write_checkpoint(self, path: str, now: float | None = None) -> None:
        meta = {
            # virtual seconds (Sim) / engine-relative wall seconds (Thread)
            "checkpoint_time": now if now is not None else 0.0,
            "wall_time": time.time(),
            "incumbent_value": self._incumbent_value(),
            "dual_bound": self.global_dual_bound(),
            "solvers_alive": len(self.live_solvers()),
            # rank-count provenance: lets a restart know the checkpoint's
            # cluster shape (and repro.verify flag shape-changing restores)
            "n_ranks": len(self.live_solvers()),
        }
        nodes = self.primitive_nodes()
        save_checkpoint(path, nodes, self.incumbent, self.stats, meta=meta, retain=CHECKPOINT_RETAIN)
        self.stats.bump("checkpoints_written")
        self.tracer.emit(self._trace_now, "checkpoint", 0, nodes=len(nodes))
        if self.fault_injector is not None:
            self.fault_injector.after_checkpoint_write(path)
