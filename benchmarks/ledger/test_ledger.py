"""Self-tests of the ledger, at a tiny internal scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` from the
repository root (tier-1 collects ``tests/`` only, so these do not run there).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import inputs, spans, stats
from benchmarks.ledger.compare import verdict
from benchmarks.ledger import BENCHMARK
from benchmarks.ledger.runner import run_workload
from repro.steiner.stp_io import write_stp
from benchmarks.ledger.workloads import WORKLOADS, Misdp, ServeFresh, ServeRepeat, StpBnb, StpPresolve

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def tiny(cls, **attrs):
    w = cls()
    for key, val in attrs.items():
        setattr(w, key, val)
    return w


TINY_BNB = dict(pool=(("phc4", (0, 8, 10)), ("bip10", (3, 4)), ("hc4u", (0,))), warmup=(("hc4u", (0,)),))
TINY_PRESOLVE = dict(
    pool=(("orl75", (0, 1, 5)), ("hc6p", (0, 1)), ("inc100", (0, 7))), warmup=(("hc4u", (0,)),)
)
TINY_MISDP = dict(pool=(("mkp4", (4, 10)), ("mkp5", (4, 10))), warmup=())
TINY_SERVE = dict(stream=400, warmup=8)

# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_nested_and_overlapping_children():
    rows = [
        (0, "root", 0.0, 10.0, -1, 0),
        (1, "a", 1.0, 4.0, 0, 0),  # child
        (2, "a.inner", 2.0, 3.0, 1, 0),  # grandchild: only a's self time shrinks
        (3, "b", 3.5, 6.0, 0, 0),  # overlaps child a by 0.5
        (4, "c", 9.0, 12.0, 0, 0),  # sticks out of the parent: clipped to [9, 10]
    ]
    own = spans.self_times(rows)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))  # union [1, 6] plus [9, 10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.5)
    assert spans.covered([(1, 4), (3.5, 6), (9, 12)], 0, 10) == pytest.approx(6.0)


def test_recorder_wraps_by_name_reimports_and_restores_them():
    import repro.cip.solver as cip_solver
    from repro.lp import interface

    original = cip_solver.solve_lp
    rec = spans.Recorder().install((("repro.lp.interface:solve_lp", "lp", "span"),))
    try:
        assert cip_solver.solve_lp is interface.solve_lp is not original
    finally:
        rec.uninstall()
    assert cip_solver.solve_lp is interface.solve_lp is original


def test_span_table_resolves_and_names_a_layer_each():
    rec = spans.Recorder().install()
    rec.uninstall()
    assert len(rec.layer_of) >= len(spans.TABLE)
    layers = {"client", "serve", "verify", "ug", "ug.net", "cip", "lp", "steiner", "sdp"}
    assert set(rec.layer_of.values()) <= layers


# -- statistics ----------------------------------------------------------------------


def test_percentile_and_sample_count_rule():
    data = [float(i) for i in range(1, 101)]
    assert stats.percentile(data, 0.5) == pytest.approx(50.5)
    assert stats.percentile(data, 0.0) == 1.0 and stats.percentile(data, 1.0) == 100.0
    assert stats.reportable(100, 0.90) and not stats.reportable(99, 0.90)
    assert stats.reportable(1000, 0.99) and not stats.reportable(500, 0.99)
    assert stats.tail_ms([0.001] * 99, 0.90) == 0.0  # absent rather than faked
    assert stats.tail_ms([0.001] * 100, 0.90) == pytest.approx(1.0)
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [x * 0.8 for x in steady], "lower", 0.1)[0] == "better"
    assert verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0] == "worse"
    assert verdict(steady, [x * 1.03 for x in steady], "lower", 0.1)[0] == "within bound"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


# -- names -----------------------------------------------------------------------------


def test_names_are_well_formed_and_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    readme = Path(__file__).with_name("README.md").read_text()
    assert all(f"`{n}`" in readme for n in names), [n for n in names if f"`{n}`" not in readme]


def test_reference_covers_every_base_and_both_seeds():
    ref = json.loads(Path(__file__).with_name("reference.json").read_text())
    for cls in (StpBnb, StpPresolve, Misdp):
        for family, seeds in cls.pool:
            assert all(inputs.base_key(family, s) in ref[cls.kind] for s in seeds)
    assert set(ref["serve"]) == {"0", "1"} and all(len(v) >= ServeFresh.stream for v in ref["serve"].values())


# -- inputs ----------------------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs_other_seed_differs():
    def texts(seed: int, number: int) -> list[str]:
        w = tiny(StpBnb, **TINY_BNB, solve=lambda *a: (True, "", {}))
        w.setup(seed)
        return [write_stp(g, k) for k, g, _tag in w.twins(number)]

    assert texts(3, 0) == texts(3, 0) and texts(3, 0) != texts(4, 0)
    assert texts(3, 1) == texts(3, 1) and texts(3, 1) != texts(3, 0)  # fresh twins every pass
    plan = tiny(ServeRepeat, stream=40).plan
    assert plan(5) == plan(5) and plan(5) != plan(6)
    tags = [tag for _k, _t, tag, _src in plan(5)]
    assert 0.6 < sum(t != "fresh" for t in tags) / len(tags) < 0.75


def test_twins_keep_the_optimum():
    from repro.sdp.solver import MISDPSolver
    from repro.steiner.solver import SteinerSolver

    rng = inputs.rng_for(11, "t")
    g = inputs.STP_FAMILIES["phc4"](4)
    twin = inputs.twin_stp(g, rng)
    assert SteinerSolver(twin, seed=0).solve().cost == SteinerSolver(g, seed=0).solve().cost

    def optimum(inst) -> float:
        return MISDPSolver(inst, approach="lp", seed=0).solve(node_limit=250).objective

    m = inputs.MISDP_FAMILIES["mkp4"](3)
    assert optimum(inputs.twin_misdp(m, rng)) == pytest.approx(optimum(m), abs=1e-4)


# -- whole runs, tiny ------------------------------------------------------------------


@pytest.mark.parametrize("cls,attrs", [(StpBnb, TINY_BNB), (StpPresolve, TINY_PRESOLVE), (Misdp, TINY_MISDP)])
def test_sequential_runs_are_correct_and_their_counts_repeat_exactly(cls, attrs):
    first = run_workload(tiny(cls, **attrs), seed=0, seconds=0.0, trace=True)
    again = run_workload(tiny(cls, **attrs), seed=0, seconds=0.0, trace=True)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for exact in ("cip.nodes", "lp.solves", "lp.iterations"):
        assert value(first, exact) == value(again, exact)
    # the layers' self times account for the ops' wall time
    assert value(first, "obs.unattributed_share") < 0.05
    untraced = run_workload(tiny(cls, **attrs), seed=0, seconds=0.0, trace=False)
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value(untraced, m) > 0 for m in untraced["metrics"])


def test_a_wrong_reference_fails_the_op():
    w = tiny(StpBnb, **TINY_BNB)
    w.setup(0)
    w.reference = {key: cost + 1.0 for key, cost in w.reference.items()}
    sec = w.run(0.0, None)
    assert sec.ops and not any(op.ok for op in sec.ops)


LP = "lp.scipy_backend.solve_with_scipy"
JOURNAL = "serve.journal.JobJournal.append"


def test_slowed_lp_is_blamed_on_lp_and_moves_stp_bnb_not_stp_presolve():
    """ROADMAP item 1's acceptance: slow one layer, read the ledger."""
    base = run_workload(tiny(StpBnb, **TINY_BNB), 0, 0.0, True)
    slow = run_workload(tiny(StpBnb, **TINY_BNB), 0, 0.0, True, delays={LP: 0.01})
    assert value(slow, "lp.share") > value(base, "lp.share") + 0.15
    assert value(slow, "lp.solve_ms") > value(base, "lp.solve_ms") + 9.0
    for other in ("steiner.self_share", "cip.self_share"):  # the other layers' shares shrink
        assert value(slow, other) < value(base, other)
    assert value(slow, "obs.op_mean_ms") > 1.5 * value(base, "obs.op_mean_ms")  # the predicted cell moves ...
    flat = run_workload(tiny(StpPresolve, **TINY_PRESOLVE), 0, 0.0, True)
    flat_slow = run_workload(tiny(StpPresolve, **TINY_PRESOLVE), 0, 0.0, True, delays={LP: 0.01})
    # ... the flat one does not
    assert value(flat_slow, "obs.op_mean_ms") < 1.25 * value(flat, "obs.op_mean_ms")
    assert value(flat_slow, "steiner.reduce_share") > 0.5 and value(flat, "lp.share") < 0.1


def test_slowed_journal_is_blamed_on_serve_and_moves_serve_fresh():
    base = run_workload(tiny(ServeFresh, **TINY_SERVE), 0, 1.5, True)
    slow = run_workload(tiny(ServeFresh, **TINY_SERVE), 0, 1.5, True, delays={JOURNAL: 0.01})
    assert base["correct"] and slow["correct"]
    assert value(slow, "serve.journal_append_ms") > value(base, "serve.journal_append_ms") + 9.0
    assert value(slow, "serve.self_share") > value(base, "serve.self_share") + 0.15
    assert value(slow, "lp.share") == value(base, "lp.share") == 0.0  # workers are not wrapped
    assert value(slow, "obs.op_mean_ms") > value(base, "obs.op_mean_ms") + 20.0  # three appends a job


def test_serve_repeat_hits_the_cache_and_hits_equal_their_first_answer():
    result = run_workload(tiny(ServeRepeat, stream=60, warmup=8), 0, 1.5, True)
    assert result["correct"] and result["failed"] == 0
    assert value(result, "serve.cache_hit_share") > 0.5
    assert 0 < value(result, "serve.cache_hit_ms") < value(result, "serve.cache_miss_ms")
