"""Tests for the CIP framework: model, tree, nodes, cut pool, params."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cip.cutpool import CutPool
from repro.cip.model import Model, VarType
from repro.cip.node import Node, _merge_local
from repro.cip.params import EMPHASIS_PRESETS, ParamSet, emphasis
from repro.cip.plugins import Cut
from repro.cip.tree import NodeTree
from repro.exceptions import ModelError


class TestModel:
    def test_binary_bounds_clamped(self):
        m = Model()
        v = m.add_variable(vtype=VarType.BINARY, lb=-3, ub=7)
        assert (v.lb, v.ub) == (0.0, 1.0)

    def test_integer_indices(self):
        m = Model()
        m.add_variable(vtype=VarType.CONTINUOUS)
        m.add_variable(vtype=VarType.INTEGER)
        m.add_variable(vtype=VarType.BINARY)
        assert m.integer_indices == [1, 2]

    def test_objective_offset_and_sense(self):
        m = Model(obj_offset=5.0, obj_sense=-1)
        m.add_variable(obj=2.0)
        assert m.objective_value(np.array([3.0])) == pytest.approx(11.0)
        assert m.external_objective(11.0) == pytest.approx(-11.0)

    def test_check_linear(self):
        m = Model()
        m.add_variable(lb=0, ub=1)
        m.add_constraint({0: 1.0}, rhs=0.5)
        assert m.check_linear(np.array([0.4]))
        assert not m.check_linear(np.array([0.9]))

    def test_constraint_validation(self):
        m = Model()
        m.add_variable()
        with pytest.raises(ModelError):
            m.add_constraint({3: 1.0})
        with pytest.raises(ModelError):
            m.add_constraint({0: 1.0}, lhs=2.0, rhs=1.0)

    def test_copy_independent(self):
        m = Model()
        m.add_variable(lb=0, ub=5)
        m.add_constraint({0: 1.0}, rhs=3.0)
        c = m.copy()
        c.variables[0].ub = 1.0
        c.constraints[0].rhs = 9.0
        assert m.variables[0].ub == 5.0
        assert m.constraints[0].rhs == 3.0


class TestNode:
    def test_child_merges_bounds_by_intersection(self):
        root = Node(0, -1, 0, 0.0, {1: (0.0, 5.0)})
        child = root.child(1, {1: (2.0, 10.0)}, {}, None)
        assert child.bound_changes[1] == (2.0, 5.0)
        assert child.depth == 1

    def test_child_estimate_monotone(self):
        root = Node(0, -1, 0, 7.0)
        child = root.child(1, {}, {}, 3.0)
        assert child.lower_bound == 7.0

    def test_local_rows_accumulate(self):
        cut = Cut.from_dict({0: 1.0}, lhs=1.0)
        root = Node(0, -1, 0, 0.0)
        child = root.child(1, {}, {}, None, (cut,))
        grand = child.child(2, {}, {}, None, (cut,))
        assert len(grand.local_rows) == 2

    def test_merge_local_tuples_append(self):
        merged = _merge_local({"d": ((1, "in"),)}, {"d": ((2, "out"),)})
        assert merged["d"] == ((1, "in"), (2, "out"))

    def test_merge_local_scalars_replace(self):
        assert _merge_local({"k": 1}, {"k": 2})["k"] == 2


class TestNodeTree:
    def test_bestbound_order(self):
        t = NodeTree("bestbound")
        t.push(Node(1, 0, 1, 5.0))
        t.push(Node(2, 0, 1, 3.0))
        t.push(Node(3, 0, 1, 4.0))
        assert [t.pop().node_id for _ in range(3)] == [2, 3, 1]

    def test_dfs_order(self):
        t = NodeTree("dfs")
        t.push(Node(1, 0, 1, 0.0))
        t.push(Node(2, 0, 2, 0.0))
        t.push(Node(3, 0, 2, 0.0))
        assert t.pop().node_id == 3  # deepest, most recent

    def test_unknown_selection(self):
        with pytest.raises(ValueError):
            NodeTree("random")

    def test_prune(self):
        t = NodeTree()
        for b in (1.0, 2.0, 3.0):
            t.push(Node(int(b), 0, 1, b))
        assert t.prune_worse_than(2.5) == 1
        assert len(t) == 2
        assert t.best_bound() == 1.0

    def test_extract_heaviest_prefers_shallow(self):
        t = NodeTree()
        t.push(Node(1, 0, 5, 1.0))
        t.push(Node(2, 0, 2, 2.0))
        assert t.extract_heaviest().node_id == 2
        assert len(t) == 1

    def test_empty_behaviour(self):
        t = NodeTree()
        assert t.best_bound() == math.inf
        assert t.extract_heaviest() is None
        assert not t


class TestCutPool:
    def test_dedup(self):
        pool = CutPool()
        c = Cut.from_dict({0: 1.0, 1: 2.0}, rhs=3.0)
        assert pool.add(c)
        assert not pool.add(Cut.from_dict({1: 2.0, 0: 1.0}, rhs=3.0))
        assert len(pool) == 1

    def test_eviction(self):
        pool = CutPool(max_size=9)
        for i in range(12):
            pool.add(Cut.from_dict({0: float(i + 1)}, rhs=1.0))
        assert len(pool) <= 10

    def test_violation(self):
        c = Cut.from_dict({0: 1.0}, lhs=1.0)
        assert c.violation(np.array([0.2])) == pytest.approx(0.8)
        assert c.violation(np.array([1.5])) == 0.0


class TestParams:
    def test_emphasis_presets_exist(self):
        for name in ("default", "easycip", "aggressive", "feasibility", "optimality"):
            assert name in EMPHASIS_PRESETS
            p = emphasis(name)
            assert p.emphasis == name

    def test_unknown_emphasis(self):
        with pytest.raises(ModelError):
            emphasis("supersonic")

    def test_with_changes_known_field(self):
        p = ParamSet().with_changes(node_limit=5)
        assert p.node_limit == 5
        assert ParamSet().node_limit != 5 or True  # original untouched

    def test_with_changes_extras(self):
        p = ParamSet().with_changes(**{"steiner/extended_reductions": True})
        assert p.get_extra("steiner/extended_reductions") is True
        q = p.with_changes(node_limit=3)
        assert q.get_extra("steiner/extended_reductions") is True

    def test_with_changes_rejects_unknown_plain_key(self):
        # a typo (or a retired field) must not vanish into extras
        with pytest.raises(ModelError, match="heur_frequncy"):
            ParamSet().with_changes(heur_frequncy=0)
        with pytest.raises(ModelError, match="heuristics"):
            ParamSet().with_changes(heuristics=False)
        assert ParamSet().with_changes(**{"ns/knob": 1}).get_extra("ns/knob") == 1

    def test_every_field_turns_something(self):
        """Dead-knob guard: every ParamSet field (bar the ``emphasis``
        label and the ``extras`` container) is read as an attribute
        somewhere in the package outside ``cip/params.py``."""
        import ast
        from dataclasses import fields
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        read: set[str] = set()
        for path in root.rglob("*.py"):
            if path == root / "cip" / "params.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        knobs = {f.name for f in fields(ParamSet)} - {"emphasis", "extras"}
        assert sorted(knobs - read) == []

    def test_every_ug_and_serve_field_turns_something(self):
        """Dead-knob guard for ``UGConfig`` and ``ServeConfig``: somewhere in
        ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` (outside the
        defining module) every field is given a value other than its
        default — as a keyword argument, an attribute store or a string
        dict key.  A literal equal to the default does not count.  Names
        are matched without their class, so a same-named keyword of
        another callee counts too."""
        import ast
        from dataclasses import MISSING, fields
        from pathlib import Path

        from repro.serve.daemon import ServeConfig
        from repro.ug.config import UGConfig

        repo = Path(__file__).resolve().parents[1]
        # deployment settings, chosen by whoever starts the daemon; and
        # journal_fsync, which the perf ledger passes (True, its default)
        exempt = {"journal_path", "host", "port", "journal_fsync"}
        knobs: dict[str, tuple[Path, object]] = {}
        for cls, module in ((UGConfig, "src/repro/ug/config.py"),
                            (ServeConfig, "src/repro/serve/daemon.py")):
            for f in fields(cls):
                default = f.default_factory() if f.default_factory is not MISSING else f.default
                knobs[f.name] = (repo / module, default)

        turned: set[str] = set()

        def note(path: Path, name: str, value: ast.expr) -> None:
            if name not in knobs or path == knobs[name][0]:
                return
            try:
                if ast.literal_eval(value) == knobs[name][1]:
                    return
            except ValueError:
                pass  # an expression: assume it can differ from the default
            turned.add(name)

        for top in ("src", "tests", "benchmarks", "examples"):
            for path in (repo / top).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.keyword) and node.arg:
                        note(path, node.arg, node.value)
                    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        for target in targets:
                            if isinstance(target, ast.Attribute) and node.value is not None:
                                note(path, target.attr, node.value)
                    elif isinstance(node, ast.Dict):
                        for key, value in zip(node.keys, node.values):
                            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                                note(path, key.value, value)
        assert sorted(set(knobs) - exempt - turned) == []

    def test_easycip_cheaper_than_aggressive(self):
        assert emphasis("easycip").max_sepa_rounds < emphasis("aggressive").max_sepa_rounds
