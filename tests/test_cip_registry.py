"""PluginRegistry: ordering, whitelists, views, validation.

The registry is the refactored spine of the CIP kernel — these tests pin
its contract: deterministic ``(-priority, arrival)`` ordering,
registration through the solver's ``include_*`` methods, quarantine- and
whitelist-filtered iteration, the plugin-name catalog behind ``ParamSet``
validation, and the wire-codec round trip of per-kind whitelists.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.cip.params import ParamSet
from repro.cip.plugins import Heuristic, Propagator, Relaxator
from repro.cip.quarantine import PluginQuarantine
from repro.cip.registry import (
    PLUGIN_KINDS,
    WHITELISTABLE_KINDS,
    PluginRegistry,
    known_plugin_names,
    validate_plugin_names,
)
from repro.exceptions import ModelError, PluginError

pytestmark = pytest.mark.fast


def _prop(name, priority=0):
    return type(f"P_{name}", (Propagator,), {"name": name, "priority": priority})()


def _heur(name, priority=0):
    return type(f"H_{name}", (Heuristic,), {"name": name, "priority": priority})()


class TestOrdering:
    def test_priority_orders_descending_with_arrival_tiebreak(self):
        reg = PluginRegistry()
        a, b, c = _prop("a", 10), _prop("b", 50), _prop("c", 10)
        for p in (a, b, c):
            reg.register("propagator", p)
        assert reg.names("propagator") == ("b", "a", "c")

    def test_duplicate_name_rejected(self):
        reg = PluginRegistry()
        reg.register("heuristic", _heur("h"))
        with pytest.raises(PluginError, match="registered twice"):
            reg.register("heuristic", _heur("h"))

    def test_relaxator_is_a_singleton_slot(self):
        reg = PluginRegistry()

        class R1(Relaxator):
            name = "r1"

        class R2(Relaxator):
            name = "r2"

        reg.register("relaxator", R1())
        assert reg.relaxator is not None and reg.relaxator.name == "r1"
        with pytest.raises(PluginError, match="already installed"):
            reg.register("relaxator", R2())

    def test_unknown_kind_rejected(self):
        reg = PluginRegistry()
        with pytest.raises(PluginError, match="unknown plugin kind"):
            reg.register("frobnicator", _prop("x"))

    def test_remove_and_clear(self):
        reg = PluginRegistry()
        reg.register("separator", _prop("s1"))
        reg.register("separator", _prop("s2"))
        assert reg.remove("separator", "s1") is True
        assert reg.remove("separator", "s1") is False
        assert reg.names("separator") == ("s2",)
        reg.clear("separator")
        assert reg.plugins("separator") == []


class TestFilteredIteration:
    def test_whitelist_none_empty_and_subset(self):
        reg = PluginRegistry()
        for n in ("a", "b", "c"):
            reg.register("heuristic", _heur(n))
        names = lambda plugins: [p.name for p in plugins]
        assert names(reg.active("heuristic")) == ["a", "b", "c"]
        assert names(reg.active("heuristic", whitelist=())) == []
        assert names(reg.active("heuristic", whitelist=("c", "a"))) == ["a", "c"]

    def test_quarantined_plugins_are_skipped(self):
        reg = PluginRegistry()
        for n in ("a", "b"):
            reg.register("propagator", _prop(n))
        q = PluginQuarantine(max_failures=1)
        q.record_failure("a", RuntimeError("boom"))
        assert [p.name for p in reg.active("propagator", quarantine=q)] == ["b"]

    def test_spec_is_json_serializable_and_ordered(self):
        reg = PluginRegistry()
        reg.register("propagator", _prop("p2", 1))
        reg.register("propagator", _prop("p1", 9))
        reg.register("heuristic", _heur("h"))
        spec = json.loads(json.dumps(reg.spec()))
        assert spec == {"propagator": ["p1", "p2"], "heuristic": ["h"]}
        assert set(spec) <= set(PLUGIN_KINDS)


class TestSolverRegistration:
    @staticmethod
    def _solver():
        from repro.cip.model import Model
        from repro.cip.solver import CIPSolver

        m = Model()
        m.add_variable("x")
        return CIPSolver(m)

    def test_include_orders_by_priority(self):
        solver = self._solver()
        solver.include_heuristic(_heur("ha", 1))
        solver.include_heuristic(_heur("hb", 5))
        assert solver.registry.names("heuristic") == ("hb", "ha")
        solver.registry.clear("heuristic")
        assert solver.registry.plugins("heuristic") == []


class TestCatalogAndParamValidation:
    def test_first_party_names_are_known(self):
        known = known_plugin_names()
        for name in ("integrality", "linear_activity", "steiner_tm", "sdp_eigcuts"):
            assert name in known, name

    def test_validate_unknown_name_raises(self):
        with pytest.raises(ModelError, match="no_such_plugin"):
            validate_plugin_names(["no_such_plugin"], "test")

    def test_paramset_rejects_unknown_whitelist_names(self):
        with pytest.raises(ModelError, match="plugin_whitelists"):
            ParamSet(plugin_whitelists={"propagator": ("not_a_plugin",)})

    def test_paramset_rejects_unwhitelistable_kind(self):
        with pytest.raises(ModelError, match="not whitelistable"):
            ParamSet(plugin_whitelists={"conshdlr": ()})
        assert "conshdlr" not in WHITELISTABLE_KINDS
        assert "relaxator" not in WHITELISTABLE_KINDS

    def test_plugin_whitelists_survive_json_wire(self):
        p = ParamSet(
            plugin_whitelists={"propagator": ("integrality", "linear_activity"), "separator": ()}
        )
        wire = json.loads(json.dumps(asdict(p)))  # tuples become lists on the wire
        q = ParamSet(**wire)
        assert q.plugin_whitelists == p.plugin_whitelists
        assert isinstance(q.plugin_whitelists["propagator"], tuple)

    def test_non_default_params_survive_wire_codec(self):
        from repro.cip.params import emphasis
        from repro.ug.net.codec import decode_payload, encode_payload

        p = emphasis("easycip").with_changes(
            plugin_whitelists={"heuristic": ("steiner_tm",), "separator": ()},
            **{"ns/knob": [1, 2]},
        )
        q = decode_payload(encode_payload(p))
        assert q == p and q != ParamSet()
        assert q.emphasis == "easycip" and q.max_sepa_rounds == 3
        assert q.plugin_whitelists == {"heuristic": ("steiner_tm",), "separator": ()}
        assert q.get_extra("ns/knob") == [1, 2]
