"""The six workloads.  Each stresses different layers (see README.md).

A workload builds its inputs from the seed in :meth:`setup`, runs its
timed section in :meth:`run` and checks every answer: through the
``repro.verify`` checkers, and against the committed reference optimum
of the op's base instance (``reference.json``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.ledger import inputs
from benchmarks.ledger.spans import Recorder
from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.cip.result import SolveStatus
from repro.sdp.solver import MISDPSolver
from repro.serve import JobRequest, ServeClient, ServeConfig, daemon_in_thread
from repro.steiner.solver import SteinerSolver
from repro.steiner.stp_io import parse_stp, write_stp
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.ug.net.process_engine import WORKER_POOL, warm_pool
from repro.verify import check_misdp_result, check_steiner_tree, check_ug_steiner_result

clock = time.perf_counter
N_CORES = os.cpu_count() or 1


def load_reference() -> dict[str, Any]:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def agrees(value: float, reference: float | None, tol: float) -> bool:
    """No committed reference (a base added locally) is not a disagreement."""
    return reference is None or abs(value - reference) <= tol * max(1.0, abs(reference))


@dataclass
class Op:
    """One certificate-checked unit of user work."""

    key: str
    seconds: float
    ok: bool
    note: str = ""  # why it failed
    tag: str = ""  # what kind of op (serve: fresh/same/twin; misdp: approach)


@dataclass
class Section:
    """One timed section: its ops, wall time and the program's own counters."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0
    #: counters read off the program's result objects; on the sequential
    #: workloads over the first full pass only, so that they repeat exactly
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount


class Workload:
    name = ""
    sequential = False  # True: passes over a fixed pool of bases, one op at a time
    generate_s = 0.0  # instance generation inside setup()
    input_bytes = 0  # size of the generated inputs as the program receives them

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, seconds: float, rec: Recorder | None) -> Section:
        raise NotImplementedError

    def traced_extras(self) -> dict[str, float]:
        """Per-layer numbers measured beside the timed section (traced run only)."""
        return {}

    def teardown(self) -> None:
        pass


# -- sequential solves ----------------------------------------------------------------

Pool = tuple[tuple[str, tuple[int, ...]], ...]

#: branch-and-cut bound: unit-cost PUC-style instances that presolve barely
#: touches; trees of 1 to about 13 nodes (larger trees vary too much from twin
#: to twin for a fifteen-second window)
BNB_POOL: Pool = (
    ("phc5a", (1, 3, 6, 7, 8, 16, 25, 29)),
    ("phc5b", (2, 14, 16, 17, 18, 23, 25, 26, 30, 33, 36, 43, 47, 49, 51)),
    ("bip10", (3, 4, 7, 8, 9, 18, 23, 24, 25, 29, 31, 45)),
    ("bip12", (2, 23, 26, 44, 50, 51, 52)),
    ("bip15", (32,)),
    ("phc4", (0, 2, 7, 8, 10, 11, 14, 15, 24, 29, 30, 31, 34, 38, 39, 40, 50, 59)),
    ("hc4u", (0,)),
)
#: reduction-bound: larger perturbed-cost zoo instances that the reductions
#: settle alone (no tree at all), but for the hc7p and two orl150 bases, whose
#: small remainder is closed at the root
PRESOLVE_POOL: Pool = (
    ("hc6p", (0, 1, 10, 11, 13, 15, 16, 17, 27, 28, 30, 35, 39, 43, 79, 82)),
    ("orl75", (0, 1, 5, 8, 15, 16, 19, 22, 24, 27, 29, 36, 38, 39, 43, 45, 47, 53, 57, 58, 60, 63, 64, 72)),
    ("orl75", (86, 87)),
    ("orl150", (5, 8, 9, 14, 17, 24, 25, 26)),
    ("inc100", (0, 7, 28, 31, 32, 37)),
    ("inc200", (15, 21, 28)),
    ("inc300", (9, 12)),
    ("grid14", (11, 23, 24, 29)),
    ("hc7p", (1, 8)),
)
MISDP_POOL: Pool = (
    ("mkp4", (4, 6, 10, 11, 14, 17, 20, 23, 24, 26, 30, 33)),
    ("mkp5", (4, 6, 8, 10, 15, 18, 19, 22, 23, 25, 27, 30, 32, 33, 39, 44, 47, 48)),
    ("mkp6", (7, 9, 11, 14, 18)),
)
MISDP_NODE_LIMIT = 250


class SolveSuite(Workload):
    """Sequential solves over seeded twins of a base pool.  Every pass draws
    fresh twins (a solver that remembered its inputs would gain nothing), and
    passes go on until the time is up — at least one, so that every base is
    solved, checked and counted."""

    sequential = True
    kind = "stp"
    pool: Pool = ()
    tags: tuple[str, ...] = ("",)  # each twin is solved once per tag
    #: bases solved untimed in setup (lazy imports, HiGHS start-up): the same
    #: for every seed, so set-up time does not depend on the seed
    warmup: Pool = ()

    def setup(self, seed: int) -> None:
        self.seed = seed
        families = inputs.STP_FAMILIES if self.kind == "stp" else inputs.MISDP_FAMILIES
        t0 = clock()
        self.bases = inputs.build_pool(self.pool, families)
        first = self.twins(0)
        self.generate_s = clock() - t0
        if self.kind == "stp":
            self.input_bytes = sum(len(write_stp(g, k)) for k, g, _tag in first)
        else:
            from repro.sdp.cbf import write_cbf

            self.input_bytes = sum(len(write_cbf(m)) for _k, m, _tag in first[:: len(self.tags)])
        self.reference = load_reference()[self.kind]
        for key, base in inputs.build_pool(self.warmup, families):
            for tag in self.tags:
                self.solve(key, base, tag)

    def twins(self, number: int) -> list[tuple[str, Any, str]]:
        """The ops of pass ``number``: a pure function of (seed, pass number)."""
        rng = inputs.rng_for(self.seed, f"{self.name}/{number}")
        twin = inputs.twin_stp if self.kind == "stp" else inputs.twin_misdp
        order = [self.bases[int(k)] for k in rng.permutation(len(self.bases))]
        return [(key, inst, tag) for key, base in order for inst in [twin(base, rng)] for tag in self.tags]

    def solve(self, key: str, inst: Any, tag: str) -> tuple[bool, str, dict[str, float]]:
        raise NotImplementedError

    def run(self, seconds: float, rec: Recorder | None) -> Section:
        out = Section()
        start, number, solving = clock(), 0, 0.0
        while number == 0 or solving < seconds:
            for key, inst, tag in self.twins(number):
                if number and solving >= seconds:
                    break
                if rec is not None:
                    rec.set_op(len(out.ops))
                t0 = clock()
                try:
                    ok, note, counts = self.solve(key, inst, tag)
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    ok, note, counts = False, f"raised {exc!r}", {}
                out.ops.append(Op(key + tag, clock() - t0, ok, note, tag))
                solving += out.ops[-1].seconds
                if number == 0:
                    for name, amount in counts.items():
                        out.add(name, amount)
            number += 1
        out.wall = clock() - start
        return out


def cip_counts(stats: Any, nodes: int) -> dict[str, float]:
    if stats is None:  # solved by presolve alone: no CIP was built
        return {}
    return {
        "cip.nodes": float(nodes),
        "lp.solves": float(stats.lp_solves),
        "lp.iterations": float(stats.lp_iterations),
        "cip.cuts": float(stats.cuts_added),
        "cip.root_work": float(stats.root_work),
        "cip.total_work": float(stats.total_work),
        "lp.failovers": float(stats.extra.get("lp_failovers", 0.0)),
    }


class StpSuite(SolveSuite):
    def solve(self, key: str, inst: Any, tag: str) -> tuple[bool, str, dict[str, float]]:
        solver = SteinerSolver(inst, seed=0)
        sol = solver.solve()
        report = check_steiner_tree(inst, sol.edges, sol.cost, original=True)
        counts = cip_counts(sol.stats, sol.nodes_processed)
        counts["steiner.edges_in"] = float(inst.num_alive_edges)
        counts["steiner.edges_out"] = float(solver.graph.num_alive_edges)
        if sol.status is not SolveStatus.OPTIMAL:
            return False, f"status {sol.status.name}", counts
        if not report.ok:
            return False, "; ".join(str(c) for c in report.failures), counts
        if sol.dual_bound > sol.cost + 1e-6 or not agrees(sol.cost, self.reference.get(key), 1e-9):
            return False, f"cost {sol.cost} dual {sol.dual_bound} ref {self.reference.get(key)}", counts
        return True, "", counts


class StpBnb(StpSuite):
    name = "stp_bnb"
    pool = BNB_POOL
    warmup = (("hc4u", (0,)), ("bip10", (1,)), ("phc4", (4,)))


class StpPresolve(StpSuite):
    name = "stp_presolve"
    pool = PRESOLVE_POOL
    warmup = (("hc4u", (0,)), ("orl75", (0, 3)), ("hc6p", (0,)))


class Misdp(SolveSuite):
    name = "misdp"
    kind = "misdp"
    pool = MISDP_POOL
    warmup = (("mkp4", (0, 4)),)
    tags = ("/sdp", "/lp")

    def solve(self, key: str, inst: Any, tag: str) -> tuple[bool, str, dict[str, float]]:
        approach = tag[1:]
        sol = MISDPSolver(inst, approach=approach, seed=0).solve(node_limit=MISDP_NODE_LIMIT)
        report = check_misdp_result(inst, sol)
        counts = cip_counts(sol.stats, sol.nodes_processed)
        counts[f"misdp.{approach}_ops"] = 1.0
        if sol.status not in (SolveStatus.OPTIMAL, SolveStatus.GAP_LIMIT):
            return False, f"status {sol.status.name}", counts
        if not report.ok:
            return False, "; ".join(str(c) for c in report.failures), counts
        # the kernel stops at a relative gap of 1e-4 (MISDPSolver's default)
        if not agrees(sol.objective, self.reference.get(key), 2e-4):
            return False, f"objective {sol.objective} ref {self.reference.get(key)}", counts
        return True, "", counts


# -- the parallel engine ----------------------------------------------------------------

PAR_BASE = ("hc5u", 1)  # unit hypercube: branching-heavy, and twins cost the same
PAR_NODE_BUDGET = 16  # must bind: one rank needs 35 nodes to close hc5u, two need more
PAR_TWINS = 64
TO_OPT_BASE = ("phc5a", 2)  # about twenty nodes: the to-optimality pair of the traced run
#: the tuned wire path of bench_engine_overhead: coalesced node transfers,
#: debounced incumbent broadcasts
WIRE_TUNING = {"net_batch_nodes": 8, "net_incumbent_debounce": 0.05}
STP_PARAMS = ParamSet(heur_frequency=5)


def run_ug(graph: Any, n_solvers: int, **config: Any) -> Any:
    cfg = UGConfig(time_limit=1e9, objective_epsilon=1 - 1e-6, **WIRE_TUNING, **config)
    solver = ug(
        graph.copy(), SteinerUserPlugins(), n_solvers=n_solvers, comm="process",
        params=STP_PARAMS, config=cfg, seed=0, wall_clock_limit=120.0,
    )  # fmt: skip
    return solver.run()


class ParScaling(Workload):
    """Node-budgeted ``ug[SteinerJack, MPI]`` runs on the warm worker pool."""

    name = "par_scaling"
    n_solvers = min(2, N_CORES)

    def setup(self, seed: int) -> None:
        t0 = clock()
        base = inputs.STP_FAMILIES[PAR_BASE[0]](PAR_BASE[1])
        rng = inputs.rng_for(seed, self.name)
        self.twins = [inputs.twin_stp(base, rng) for _ in range(PAR_TWINS)]
        self.generate_s = clock() - t0
        self.input_bytes = sum(len(write_stp(g, "hc5u")) for g in self.twins)
        self.optimum = load_reference()["stp"][inputs.base_key(*PAR_BASE)]
        t0 = clock()
        warm_pool(self.n_solvers)
        for g in self.twins[-2:]:  # workers import the solver stack on their first run
            run_ug(g, self.n_solvers, node_limit=PAR_NODE_BUDGET)
        self.warm_s = clock() - t0

    def one(self, graph: Any, n_solvers: int, out: Section, **config: Any) -> tuple[bool, str]:
        res = run_ug(graph, n_solvers, node_limit=PAR_NODE_BUDGET, **config)
        s = res.stats
        for name, amount in (
            ("ug.runs", 1), ("ug.nodes", s.nodes_generated), ("ug.wall", s.computing_time),
            ("ug.idle_ratio", s.idle_ratio), ("ug.ramp_up_s", s.first_max_active_time),
            ("ug.root_time_s", s.root_time), ("ug.max_active", s.max_active_solvers),
            ("ug.transferred", s.transferred_nodes), ("ug.pool_reuses", s.warm_pool_reuses),
            ("ug.ranks", n_solvers),
            ("net.frames", s.net_frames_sent + s.net_frames_received),
            ("net.bytes", s.net_bytes_sent + s.net_bytes_received),
            ("net.coalesced", s.net_msgs_coalesced), ("net.decode_errors", s.net_decode_errors),
        ):  # fmt: skip
            out.add(name, float(amount))
        report = check_ug_steiner_result(graph, res)
        if not report.ok:
            return False, "; ".join(str(c) for c in report.failures)
        if res.solved or s.nodes_generated < PAR_NODE_BUDGET:
            return False, f"node budget did not bind ({s.nodes_generated} nodes, solved={res.solved})"
        if res.objective < self.optimum - 1e-6 or res.dual_bound > self.optimum + 1e-6:
            return False, f"bounds [{res.dual_bound}, {res.objective}] exclude optimum {self.optimum}"
        return True, ""

    def run(self, seconds: float, rec: Recorder | None) -> Section:
        out = Section()
        start, i = clock(), 0
        while i < 1 or clock() - start < seconds:
            if rec is not None:
                rec.set_op(i)
            t0 = clock()
            try:
                ok, note = self.one(self.twins[i % len(self.twins)], self.n_solvers, out)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                ok, note = False, f"raised {exc!r}"
            out.ops.append(Op(f"hc5u-t{i}", clock() - t0, ok, note))
            i += 1
        out.wall = clock() - start
        return out

    def traced_extras(self) -> dict[str, float]:
        """One rank against two on the budgeted runs, the engine's own tracer
        on against off, and one to-optimality pair (informational: search-order
        luck moves a to-optimality parallel run by a factor of two)."""
        def rate(n_solvers: int, runs: int = 2, **config: Any) -> float:
            sec = Section()
            for g in self.twins[-runs:]:
                self.one(g, n_solvers, sec, **config)
            return sec.counts["ug.nodes"] / sec.counts["ug.wall"]

        both = rate(self.n_solvers)
        extra = {
            "ug.net.warm_pool_s": self.warm_s,
            "ug.rank_efficiency": both / (self.n_solvers * rate(1)),
            "obs.ug_trace_overhead_share": both / rate(self.n_solvers, trace_enabled=True) - 1.0,
        }
        base = inputs.STP_FAMILIES[TO_OPT_BASE[0]](TO_OPT_BASE[1])
        t0 = clock()
        one = run_ug(base, 1)
        t1 = clock()
        many = run_ug(base, self.n_solvers)
        t2 = clock()
        if one.solved and many.solved and one.objective == many.objective:
            extra["ug.time_to_opt_speedup"] = (t1 - t0) / (t2 - t1)
            extra["ug.node_inflation"] = many.stats.nodes_generated / max(1, one.stats.nodes_generated)
        return extra

    def teardown(self) -> None:
        WORKER_POOL.shutdown()


# -- the serving path ----------------------------------------------------------------

SERVE_CLIENTS = min(2, N_CORES)  # closed loop: each client has one job in flight
SERVE_STREAM = 2400  # distinct jobs generated per set-up; more than a run can use
SERVE_POLL = 0.002
TMP_ROOT = ".ledger_tmp"  # journals live here, inside the checkout; removed on teardown


class ServeFresh(Workload):
    """Closed-loop clients against an in-thread daemon over the process engine."""

    name = "serve_fresh"
    stream = SERVE_STREAM
    warmup = 16
    context: Any = None  # the running daemon_in_thread, between setup and teardown

    def setup(self, seed: int) -> None:
        t0 = clock()
        self.jobs = self.plan(seed)
        self.generate_s = clock() - t0
        self.input_bytes = sum(len(text) for _key, text, _tag, _src in self.jobs)
        self.reference = load_reference()["serve"].get(str(seed))
        self.answers: dict[str, float] = {}  # key -> first objective served for it
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=TMP_ROOT)
        config = ServeConfig(
            journal_path=os.path.join(self.dir, "journal.jsonl"),
            engine="process", slots=SERVE_CLIENTS, journal_fsync=True,
        )  # fmt: skip
        t0 = clock()
        self.context = daemon_in_thread(config)
        self.daemon = self.context.__enter__()
        # drive the first jobs through untimed: the pooled workers import the
        # solver stack on their first job
        self.cursor = 0
        self.loop(self.warmup, None, None)
        self.warm_s = clock() - t0

    def traced_extras(self) -> dict[str, float]:
        return {"ug.net.warm_pool_s": self.warm_s}

    def plan(self, seed: int) -> list[tuple[str, str, str, int]]:
        """``(key, stp text, tag, index of the instance in the seed's stream)``"""
        return [
            (key, write_stp(g, key), "fresh", i)
            for i, (key, g) in enumerate(inputs.serve_stream(seed, self.stream))
        ]

    def loop(self, max_jobs: int | None, seconds: float | None, rec: Recorder | None) -> Section:
        """Run the closed loop over the next jobs of the stream."""
        out = Section()
        lock = threading.Lock()
        first = self.cursor
        last = len(self.jobs) if max_jobs is None else min(len(self.jobs), first + max_jobs)
        views: dict[int, tuple[float, Any]] = {}
        start = clock()

        def client() -> None:
            with ServeClient(port=self.daemon.port) as conn:
                while seconds is None or clock() - start < seconds:
                    with lock:
                        i = self.cursor
                        if i >= last:
                            return
                        self.cursor += 1
                    if rec is not None:
                        rec.set_op(i)
                    t0 = clock()
                    try:
                        view = conn.submit(JobRequest(kind="stp", payload={"stp": self.jobs[i][1]}))
                        if "outcome" not in view:
                            view = conn.wait(view["job_id"], timeout=60.0, poll=SERVE_POLL)
                    except Exception as exc:  # noqa: BLE001 - rejected, timed out or lost
                        view = {"error": repr(exc)}
                    views[i] = (clock() - t0, view)

        threads = [threading.Thread(target=client, name=f"client-{k}") for k in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.wall = clock() - start
        self.check(views, out)
        return out

    def check(self, views: dict[int, tuple[float, Any]], out: Section) -> None:
        """Certificate-check every answer on the client's own copy of the input."""
        for i in sorted(views):
            seconds, view = views[i]
            key, text, tag, src = self.jobs[i]
            outcome = view.get("outcome") or {}
            ok, note = True, ""
            if view.get("state") != "succeeded" or not outcome.get("certified"):
                ok, note = False, f"state {view.get('state')}: {view.get('error') or outcome.get('detail')}"
            else:
                # status() reports only the size of the solution, so read the
                # edge list off the daemon's own record of the job
                solution = self.daemon.jobs[view["job_id"]].outcome.solution
                report = check_steiner_tree(
                    parse_stp(text), list(solution), outcome["objective"], original=True
                )
                first = self.answers.setdefault(key, outcome["objective"])
                ref = self.reference[src] if self.reference else None
                if not report.ok:
                    ok, note = False, "; ".join(str(c) for c in report.failures)
                elif outcome["objective"] != first or not agrees(first, ref, 1e-9):
                    ok, note = False, f"objective {outcome['objective']} first {first} ref {ref}"
            hit = bool(outcome.get("from_cache"))
            out.ops.append(Op(key, seconds, ok, note, tag + ("+hit" if hit else "")))
            record = self.daemon.jobs.get(view.get("job_id"))
            if record is not None and record.started_at is not None:
                out.add("serve.queue_wait_s", record.started_at - record.submitted_at)
                out.add("serve.ran_jobs", 1.0)

    def run(self, seconds: float, rec: Recorder | None) -> Section:
        before = dict(self.daemon.stats.as_dict())
        size0 = os.path.getsize(self.daemon.config.journal_path)
        out = self.loop(None, seconds, rec)
        for name, value in self.daemon.stats.as_dict().items():
            out.add(f"daemon.{name}", float(value - before[name]))
        out.add("serve.journal_bytes", float(os.path.getsize(self.daemon.config.journal_path) - size0))
        return out

    def teardown(self) -> None:
        if self.context is not None:
            self.context.__exit__(None, None, None)
            self.context = None
            shutil.rmtree(self.dir, ignore_errors=True)
        WORKER_POOL.shutdown()


#: serve_repeat: three fresh jobs in ten; the rest repeat a job submitted
#: between REPEAT_LAG and REPEAT_WINDOW fresh jobs earlier (finished by then,
#: and still inside the daemon's 128-entry cache)
REPEAT_PATTERN = ("fresh", "same", "twin", "same", "fresh", "twin", "same", "twin", "fresh", "same")
REPEAT_LAG, REPEAT_WINDOW = 4, 64


class ServeRepeat(ServeFresh):
    name = "serve_repeat"
    stream = 1800  # fresh jobs; with their repeats about 6000 jobs

    def plan(self, seed: int) -> list[tuple[str, str, str, int]]:
        rng = inputs.rng_for(seed, self.name)
        graphs = inputs.serve_stream(seed, self.stream)
        plan: list[tuple[str, str, str, int]] = []
        n_fresh = 0
        while n_fresh < len(graphs):
            tag = REPEAT_PATTERN[len(plan) % len(REPEAT_PATTERN)]
            if tag == "fresh" or n_fresh <= REPEAT_LAG:
                key, g = graphs[n_fresh]
                plan.append((key, write_stp(g, key), "fresh", n_fresh))
                n_fresh += 1
                continue
            src = int(rng.integers(max(0, n_fresh - REPEAT_WINDOW), n_fresh - REPEAT_LAG))
            key, g = graphs[src]
            if tag == "twin":
                g = inputs.twin_stp(g, rng)
            plan.append((key, write_stp(g, key), tag, src))
        return plan


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (StpBnb, StpPresolve, Misdp, ParScaling, ServeFresh, ServeRepeat)
}
