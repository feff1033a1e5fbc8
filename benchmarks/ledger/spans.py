"""Spans recorded from outside the program, around its public entry points.

:data:`TABLE` names every entry point the ledger times, by dotted name,
with the layer it belongs to.  :func:`install` replaces each one with a
recording wrapper — including the copies other ``repro`` modules hold
after ``from x import f`` — and is called only in the traced run, so the
untraced run executes the program exactly as shipped.  Spans live in
memory; the runner writes them out when the benchmark ends.

A layer's *self time* is the time of its spans minus the part their
child spans cover (:func:`self_times`).  Worker processes of the process
engine are not wrapped: spans inside the program are ROADMAP item 5.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: ``(target, layer, mode)``: ``target`` is ``module:attr[.attr]``; mode
#: ``"span"`` records a span per call, ``"count"`` only counts calls (for
#: entry points called too often for a span to be cheap next to the call).
TABLE: tuple[tuple[str, str, str], ...] = (
    # client side of the serving path: what the user waits on
    ("repro.serve.client:ServeClient.submit", "client", "span"),
    ("repro.serve.client:ServeClient.status", "client", "span"),
    # serve: admission, journal, fingerprint, scheduling, certification
    ("repro.serve.daemon:ServeDaemon.submit", "serve", "span"),
    ("repro.serve.journal:JobJournal.append", "serve", "span"),
    ("repro.serve.scheduler:FairShareScheduler.submit", "serve", "span"),
    ("repro.serve.scheduler:FairShareScheduler.next_job", "serve", "span"),
    ("repro.serve.runner:build_instance", "serve", "span"),
    ("repro.serve.runner:instance_cache_key", "serve", "span"),
    ("repro.serve.runner:solve_job", "serve", "span"),
    ("repro.serve.runner:outcome_from_result", "serve", "span"),
    ("repro.serve.cache:VerifiedResultCache.lookup", "serve", "span"),
    ("repro.serve.cache:VerifiedResultCache.insert", "serve", "span"),
    # verify: every certificate check, whoever asks for it
    ("repro.serve.runner:verify_certificate", "verify", "span"),
    ("repro.verify.steiner:check_steiner_tree", "verify", "span"),
    ("repro.verify.steiner:check_ug_steiner_result", "verify", "span"),
    ("repro.verify.sdp:check_misdp_solution", "verify", "span"),
    ("repro.verify.sdp:check_misdp_result", "verify", "span"),
    # ug: one run, and the LoadCoordinator's share of it
    ("repro.ug.instantiation:UGSolver.run", "ug", "span"),
    ("repro.ug.load_coordinator:LoadCoordinator.handle_message", "ug", "span"),
    ("repro.ug.load_coordinator:LoadCoordinator.on_tick", "ug", "span"),
    # ug.net: the wire
    ("repro.ug.net.codec:encode_message", "ug.net", "span"),
    ("repro.ug.net.codec:encode_batch", "ug.net", "span"),
    ("repro.ug.net.codec:decode_frame", "ug.net", "span"),
    # cip: the B&B kernel
    ("repro.cip.solver:CIPSolver.solve", "cip", "span"),
    ("repro.cip.solver:CIPSolver.presolve", "cip", "span"),
    ("repro.cip.solver:CIPSolver.solve_lp_robust", "cip", "span"),
    # lp
    ("repro.lp.scipy_backend:solve_with_scipy", "lp", "span"),
    ("repro.lp.simplex:solve_with_simplex", "lp", "span"),
    ("repro.lp.model:LinearProgram.__init__", "lp", "count"),
    ("repro.lp.model:LinearProgram.add_row", "lp", "count"),
    # steiner
    ("repro.steiner.solver:SteinerSolver.prepare", "steiner", "span"),
    ("repro.steiner.solver:SteinerSolver.solve", "steiner", "span"),
    ("repro.steiner.reductions.pipeline:reduce_graph", "steiner", "span"),
    ("repro.steiner.dual_ascent:dual_ascent", "steiner", "span"),
    ("repro.steiner.shortest_paths:dijkstra", "steiner", "span"),
    ("repro.steiner.shortest_paths:voronoi", "steiner", "span"),
    # sdp
    ("repro.sdp.solver:MISDPSolver.prepare", "sdp", "span"),
    ("repro.sdp.solver:MISDPSolver.solve", "sdp", "span"),
    ("repro.sdp.admm:solve_sdp_relaxation", "sdp", "span"),
)

#: numbers read off a wrapped call's return value and summed by span name:
#: the only way to see them from outside without the caller's cooperation
PROBES: dict[str, Callable[[Any], float]] = {
    "sdp.admm.solve_sdp_relaxation": lambda result: float(result.iterations),
    # rank-seconds the workers spent on their subproblems during the run
    "ug.instantiation.UGSolver.run": lambda result: float(sum(result.stats.solver_busy.values())),
}

#: plugin callbacks wrapped on every ``repro.cip.plugins.Plugin`` subclass
#: that defines them; the span's layer is the package that defines the
#: class (a Steiner heuristic is ``steiner`` work called by ``cip``)
PLUGIN_METHODS = ("separate", "run", "propagate", "presolve")

Span = tuple[int, str, float, float, int, int]  # id, name, start, end, parent id, op id


@dataclass
class Recorder:
    """Everything one traced run records."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, list[int]] = field(default_factory=dict)
    sums: dict[str, float] = field(default_factory=dict)  # PROBES totals by span name
    layer_of: dict[str, str] = field(default_factory=dict)
    #: seconds slept inside the named span before the call (slowed-layer test)
    delays: dict[str, float] = field(default_factory=dict)
    _ids: Any = field(default_factory=itertools.count)
    _tls: Any = field(default_factory=threading.local)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def set_op(self, op_id: int) -> None:
        """Tag spans opened by this thread with ``op_id`` until changed."""
        self._tls.op = op_id

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        spans, tls, ids, clock = self.spans, self._tls, self._ids, time.perf_counter
        delay, probe, sums = self.delays.get(name, 0.0), PROBES.get(name), self.sums

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tls.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
                if probe is not None:
                    sums[name] = sums.get(name, 0.0) + probe(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tls.__dict__.get("op", -1)))

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner: Any, attr: str, name: str, layer: str, mode: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        self.layer_of[name] = layer
        make = self._span_wrapper if mode == "span" else self._count_wrapper
        wrapped: Any = make(fn, name)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        if not isinstance(owner, type):
            # `from module import fn` copies: rebind them too
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def install(self, table: Iterable[tuple[str, str, str]] = TABLE) -> "Recorder":
        for target, layer, mode in table:
            mod_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            name = f"{mod_name.removeprefix('repro.')}.{path}"
            self._replace(owner, attr, name, layer, mode)
        self._install_plugins()
        return self

    def _install_plugins(self) -> None:
        from repro.cip.plugins import Plugin

        todo, seen = [Plugin], set()
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls in seen or not cls.__module__.startswith("repro."):
                continue
            seen.add(cls)
            package = cls.__module__.split(".")[1]
            layer = package if package in ("steiner", "sdp") else "cip"
            for method in PLUGIN_METHODS:
                if method in cls.__dict__:
                    self._replace(cls, method, f"plugin.{method}.{layer}", layer, "span")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


# -- arithmetic on recorded spans ------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _op in spans
    }


@dataclass
class SpanSummary:
    """Per-name and per-layer totals of one traced run."""

    calls: dict[str, int] = field(default_factory=dict)  # spans and count-only entries
    total: dict[str, float] = field(default_factory=dict)  # inclusive seconds by name
    own: dict[int, float] = field(default_factory=dict)  # self time by span id
    self_by_layer: dict[str, float] = field(default_factory=dict)

    def mean_ms(self, name: str) -> float:
        n = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / n * 1e3 if n else 0.0


def summarize(rec: Recorder) -> SpanSummary:
    out = SpanSummary(own=self_times(rec.spans))
    for sid, name, start, end, _parent, _op in rec.spans:
        out.calls[name] = out.calls.get(name, 0) + 1
        out.total[name] = out.total.get(name, 0.0) + (end - start)
        layer = rec.layer_of[name]
        out.self_by_layer[layer] = out.self_by_layer.get(layer, 0.0) + out.own[sid]
    for name, cell in rec.counts.items():
        out.calls[name] = cell[0]
    return out
