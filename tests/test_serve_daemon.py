"""Daemon end-to-end: contracts over the wire (one in-process daemon per test).

Covers the serving contracts the issue pins down: cancel racing
completion is a no-op, quota exhaustion is a typed rejection, a
saturated fleet sheds load instead of queueing unboundedly, deadline
expiry serves an incumbent with a certified gap, and an unverifiable
answer is reported FAILED — never silently served.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.serve import (
    JobRequest,
    QueueFullError,
    QuotaExceededError,
    ServeClient,
    ServeConfig,
    TenantQuota,
    UnknownJobError,
    daemon_in_thread,
)
from repro.serve.jobs import InvalidJobError

pytestmark = pytest.mark.fast

EASY = {"generator": "grid", "params": {"rows": 2, "cols": 3, "n_terminals": 3, "seed": 5}}
HARD = {"generator": "hypercube", "params": {"dim": 6, "perturbed": False}}


def grid_payload(seed):
    return {"generator": "grid", "params": {"rows": 2, "cols": 3, "n_terminals": 3, "seed": seed}}


def config(tmp_path, **kw):
    kw.setdefault("slots", 2)
    return ServeConfig(journal_path=str(tmp_path / "journal.jsonl"), **kw)


def stp(payload=EASY, **kw):
    return JobRequest(kind="stp", payload=payload, **kw)


def test_submit_solve_and_status(tmp_path):
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            assert view["state"] == "queued"
            final = client.wait(view["job_id"], timeout=60)
            out = final["outcome"]
            assert final["state"] == "succeeded"
            assert out["certified"] and out["solved"]
            assert out["gap"] == 0.0
            assert out["checks"]["failed"] == 0


def test_unknown_job_and_invalid_request_are_typed(tmp_path):
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(UnknownJobError):
                client.status("deadbeef")
            with pytest.raises(InvalidJobError):
                client.submit({"kind": "stp", "payload": {"generator": "nope"}})
            with pytest.raises(InvalidJobError):
                client.submit({"kind": "lp", "payload": {"generator": "grid"}})
            # json.loads parses NaN: an epsilon that silences every solution
            # report (or prunes against a negative gap) is refused at the door
            for eps in (float("nan"), -1.0):
                with pytest.raises(InvalidJobError, match="objective_epsilon"):
                    client.submit({"kind": "stp", "payload": EASY, "objective_epsilon": eps})
            assert daemon.stats.jobs_rejected_invalid == 4


def test_impossible_generator_request_is_rejected_without_hanging(tmp_path):
    """More edges than a simple graph holds is a typed rejection; the
    generator used to loop forever on the daemon's event loop."""
    request = {
        "kind": "stp",
        "payload": {"generator": "random", "params": {"n": 3, "m": 10, "n_terminals": 2}},
    }
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port, timeout=5.0) as client:
            with pytest.raises(InvalidJobError, match="at most 3 edges"):
                client.submit(request)
            assert client.ping()["pong"] is True


def test_cancel_racing_completion_is_noop(tmp_path):
    """Cancelling after the job finished must not disturb the outcome."""
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            final = client.wait(view["job_id"], timeout=60)
            assert final["state"] == "succeeded"
            cancelled = client.cancel(view["job_id"])
            assert cancelled["noop"] is True
            assert cancelled["state"] == "succeeded"  # state untouched
            # and the outcome is still served
            assert client.status(view["job_id"])["outcome"]["certified"]


def test_cancel_running_job_discards_result(tmp_path):
    release = threading.Event()
    with daemon_in_thread(config(tmp_path)) as daemon:
        orig = daemon._solve

        def gated(record, budget):
            release.wait(timeout=30)
            return orig(record, budget)

        daemon._solve = gated
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            deadline = time.monotonic() + 10
            while client.status(view["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            resp = client.cancel(view["job_id"])
            assert resp.get("cancel_requested") is True
            release.set()
            final = client.wait(view["job_id"], timeout=30)
            assert final["state"] == "cancelled"
            assert "discarded" in final["outcome"]["detail"]


def test_cancel_queued_job(tmp_path):
    release = threading.Event()
    with daemon_in_thread(config(tmp_path, slots=1)) as daemon:
        orig = daemon._solve

        def gated(record, budget):
            release.wait(timeout=30)
            return orig(record, budget)

        daemon._solve = gated
        with ServeClient(port=daemon.port) as client:
            blocker = client.submit(stp())
            queued = client.submit(stp(grid_payload(seed=8)))
            resp = client.cancel(queued["job_id"])
            assert resp["state"] == "cancelled"
            release.set()
            final = client.wait(blocker["job_id"], timeout=60)
            assert final["state"] == "succeeded"
            # the cancelled job was never started
            view = client.status(queued["job_id"])
            assert view["state"] == "cancelled" and view["attempts"] == 0


def test_quota_exhaustion_returns_typed_rejection(tmp_path):
    cfg = config(
        tmp_path,
        slots=1,
        quotas={"small": TenantQuota(max_active=1, max_queued=1)},
    )
    release = threading.Event()
    with daemon_in_thread(cfg) as daemon:
        orig = daemon._solve

        def gated(record, budget):
            release.wait(timeout=30)
            return orig(record, budget)

        daemon._solve = gated
        with ServeClient(port=daemon.port) as client:
            first = client.submit(stp(tenant="small"))
            deadline = time.monotonic() + 10
            while client.status(first["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "first job never started"
                time.sleep(0.02)
            client.submit(stp(grid_payload(seed=7), tenant="small"))  # fills max_queued=1
            with pytest.raises(QuotaExceededError) as exc:
                client.submit(stp(grid_payload(seed=9), tenant="small"))
            assert exc.value.code == "quota_exceeded"
            assert exc.value.retry_after > 0
            # an unrelated tenant is still admitted
            other = client.submit(stp(tenant="other", seed=3))
            assert other["state"] == "queued"
            release.set()
            client.wait(first["job_id"], timeout=60)


def test_saturated_fleet_sheds_load_with_bounded_queue(tmp_path):
    cfg = config(tmp_path, slots=1, max_queue_depth=3)
    release = threading.Event()
    with daemon_in_thread(cfg) as daemon:
        orig = daemon._solve

        def gated(record, budget):
            release.wait(timeout=60)
            return orig(record, budget)

        daemon._solve = gated
        with ServeClient(port=daemon.port) as client:
            first = client.submit(stp(grid_payload(seed=0)))
            deadline = time.monotonic() + 10
            while client.status(first["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "first job never started"
                time.sleep(0.02)
            accepted = [first] + [
                client.submit(stp(grid_payload(seed=i))) for i in range(1, 4)
            ]  # 1 running + 3 queued = the whole bounded queue
            rejections = 0
            for i in range(4, 10):
                with pytest.raises(QueueFullError) as exc:
                    client.submit(stp(grid_payload(seed=i)))
                assert exc.value.retry_after > 0
                rejections += 1
            assert rejections == 6
            stats = client.stats()
            assert stats["queue_depth"] <= 3  # never unbounded
            assert stats["serve"]["jobs_rejected_queue_full"] == 6
            release.set()
            for view in accepted:
                final = client.wait(view["job_id"], timeout=120)
                assert final["state"] == "succeeded"


def test_deadline_expiry_serves_certified_gap(tmp_path):
    """The graceful-degradation contract: incumbent + dual bound + gap."""
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp(HARD, node_limit=2))
            final = client.wait(view["job_id"], timeout=120)
            out = final["outcome"]
            assert final["state"] == "degraded"
            assert out["certified"] is True
            assert not out["solved"]
            assert out["bound"] <= out["objective"]
            assert 0 < out["gap"] < 1
            assert "certified gap" in out["detail"]


@pytest.mark.parametrize("engine,deadline", [
    ("threads", 2.0),
    pytest.param("process", 4.0, marks=pytest.mark.slow),
])
def test_wall_clock_deadline_degrades_on_real_engines(tmp_path, engine, deadline):
    """The job deadline is a wall-clock budget on the wall-clock engines
    too: it expires mid-solve and the run degrades (it used to reach only
    the SimEngine, so a threads/process job ran on until it was solved)."""
    with daemon_in_thread(config(tmp_path, engine=engine)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp(HARD, deadline=deadline))
            final = client.wait(view["job_id"], timeout=90)
            out = final["outcome"]
            assert final["state"] == "degraded"
            assert out["certified"] is True
            assert not out["solved"]
            assert out["bound"] <= out["objective"]
            assert 0 < out["gap"] < 1
            # started -> finished (solve + certificate check, not the
            # fingerprinting around it); the in-flight node step is
            # finished before the ranks stop, hence the slack
            assert client.stats()["job_seconds"]["max"] < 2 * deadline


def test_unverifiable_answer_is_failed_never_served(tmp_path):
    """A solver returning garbage must surface as FAILED with the reason."""
    with daemon_in_thread(config(tmp_path)) as daemon:
        def lying_solve(record, budget):
            # claims optimality with a solution that is not a tree and a
            # fabricated objective — the certificate check must refuse it
            return SimpleNamespace(
                incumbent=SimpleNamespace(value=1.0, payload={"edges": [0]}),
                dual_bound=1.0,
                solved=True,
            )

        daemon._solve = lying_solve
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            final = client.wait(view["job_id"], timeout=30)
            out = final["outcome"]
            assert final["state"] == "failed"
            assert out["certified"] is False
            assert out["solution_size"] == 0  # the bogus answer is not served
            assert "refused" in out["detail"]
            assert client.stats()["serve"]["verify_refusals"] == 1
            # and nothing was cached
            assert client.stats()["cache_size"] == 0


def test_solver_crash_terminates_job_as_failed(tmp_path):
    with daemon_in_thread(config(tmp_path)) as daemon:
        def crashing_solve(record, budget):
            raise RuntimeError("rank 0 segfaulted")

        daemon._solve = crashing_solve
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            final = client.wait(view["job_id"], timeout=30)
            assert final["state"] == "failed"
            assert "crashed" in final["outcome"]["detail"]


def test_cache_hit_serves_instantly_and_is_journaled(tmp_path):
    cfg = config(tmp_path)
    with daemon_in_thread(cfg) as daemon:
        with ServeClient(port=daemon.port) as client:
            first = client.submit(stp())
            client.wait(first["job_id"], timeout=60)
            repeat = client.submit(stp())
            assert repeat["state"] == "succeeded"
            assert repeat["outcome"]["from_cache"] is True
            assert client.stats()["serve"]["cache_hits"] == 1
            cached_id = repeat["job_id"]
    # the cache hit is journaled terminal: a restarted daemon still knows it
    with daemon_in_thread(cfg) as daemon2:
        with ServeClient(port=daemon2.port) as client:
            assert client.status(cached_id)["state"] == "succeeded"
            assert daemon2.stats.jobs_requeued == 0


def test_fingerprint_cache_hits_across_request_spellings(tmp_path):
    """A literal STP text and a generator spec of the same instance hit."""
    from repro.steiner.instances import grid_instance
    from repro.steiner.stp_io import write_stp

    graph = grid_instance(**EASY["params"])
    text = write_stp(graph)
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            first = client.submit(stp())
            client.wait(first["job_id"], timeout=60)
            literal = client.submit(stp(payload={"stp": text}))
            assert literal["outcome"]["from_cache"] is True


def _relabeled(graph, seed):
    """Isomorphic copy: permuted vertex labels, shuffled edge order."""
    import random

    from repro.steiner.graph import SteinerGraph

    rng = random.Random(seed)
    perm = list(range(graph.n))
    rng.shuffle(perm)
    twin = SteinerGraph.create(graph.n)
    eids = list(graph.alive_edges())
    rng.shuffle(eids)
    for eid in eids:
        u, v = graph.edge_endpoints(eid)
        twin.add_edge(perm[u], perm[v], graph.edge_cost(eid))
    for t in graph.terminals:
        twin.set_terminal(perm[int(t)])
    twin.fixed_cost = graph.fixed_cost
    return twin


def test_relabeled_isomorphic_instance_hits_cache_with_translated_solution(tmp_path):
    """Canonical fingerprints make the cache relabeling-invariant: an
    isomorphic copy of a solved instance is served from cache, with the
    stored tree translated into the copy's own edge ids."""
    from repro.steiner.instances import grid_instance
    from repro.steiner.stp_io import write_stp
    from repro.verify.steiner import check_steiner_tree

    graph = grid_instance(**EASY["params"])
    twin = _relabeled(graph, seed=7)
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            first = client.submit(stp(payload={"stp": write_stp(graph)}))
            done = client.wait(first["job_id"], timeout=60)
            assert done["state"] == "succeeded"
            hit = client.submit(stp(payload={"stp": write_stp(twin)}))
            assert hit["state"] == "succeeded"
            assert hit["outcome"]["from_cache"] is True
            assert client.stats()["serve"]["cache_hits"] == 1
            assert daemon.stats.cache_translation_failed == 0
            # the served tree must be valid on the *twin's* edge ids
            outcome = daemon.jobs[hit["job_id"]].outcome
            report = check_steiner_tree(twin, outcome.solution, outcome.objective)
            assert report.ok, report
            assert outcome.objective == pytest.approx(done["outcome"]["objective"])


PARTITION = {"generator": "partition", "params": {"n": 5, "k": 2, "seed": 1}}


def test_misdp_job_is_certified_and_cached(tmp_path):
    """A MISDP job through the daemon: certified optimum equal to the
    sequential solver's (in the sup sense), then a cache hit."""
    from repro.sdp.instances import min_k_partitioning
    from repro.sdp.solver import MISDPSolver

    reference = MISDPSolver(min_k_partitioning(**PARTITION["params"])).solve()
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            first = client.submit(JobRequest(kind="misdp", payload=PARTITION))
            done = client.wait(first["job_id"], timeout=60)
            out = done["outcome"]
            assert done["state"] == "succeeded"
            assert out["certified"] and out["solved"] and out["checks"]["failed"] == 0
            assert out["objective"] == pytest.approx(reference.objective, rel=1e-9, abs=1e-9)
            repeat = client.submit(JobRequest(kind="misdp", payload=PARTITION))
            assert repeat["state"] == "succeeded"
            assert repeat["outcome"]["from_cache"] is True
            served = daemon.jobs[first["job_id"]].outcome
            cached = daemon.jobs[repeat["job_id"]].outcome
            assert (cached.objective, cached.bound, cached.solution) == (
                served.objective, served.bound, served.solution
            )


def test_node_limited_misdp_job_degrades_with_certified_bound(tmp_path):
    # PARTITION closes in one UG node; this sibling needs more than five
    payload = {"generator": "partition", "params": {"n": 5, "k": 2, "seed": 0}}
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(JobRequest(kind="misdp", payload=payload, node_limit=5))
            final = client.wait(view["job_id"], timeout=60)
            out = final["outcome"]
            assert final["state"] == "degraded"
            assert out["certified"] and not out["solved"]
            # sup sense: the dual bound is an upper bound on b'y
            assert out["bound"] >= out["objective"]


def test_stream_yields_events_then_terminal_view(tmp_path):
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            items = list(client.stream(view["job_id"]))
        assert len(items) >= 2
        *events, tail = items
        assert tail["stream_end"] is True
        assert tail["state"] == "succeeded"
        assert all("event" in e for e in events)
        kinds = {e["event"]["kind"] for e in events}
        assert kinds  # real trace events came through the wire


def test_stats_endpoint_shape(tmp_path):
    with daemon_in_thread(config(tmp_path)) as daemon:
        with ServeClient(port=daemon.port) as client:
            view = client.submit(stp())
            client.wait(view["job_id"], timeout=60)
            stats = client.stats()
            assert stats["serve"]["jobs_succeeded"] == 1
            assert stats["slots"] == {"total": 2, "used": 0}
            assert "default" in stats["scheduler"]
            assert stats["job_seconds"]["count"] == 1
