"""Property suite for the ``repro.instances`` generator zoo.

Per family, over >= 20 seeded instances: structural invariants
(connectivity, terminal membership, positive weights, PSD-at-anchor for
the MISDP families), byte-identical regeneration per seed, and lossless
write -> parse round trips. Plus the reader/writer symmetry contract the
round trips exposed (truncation, id-range, self-loop, zero-terminal
handling) and the ``python -m repro.instances`` CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, ModelError
from repro.instances import (
    FAMILIES,
    generate_family,
    instance_text,
    stp_canonical,
    tiny_zoo,
    verify_roundtrip,
)
from repro.instances.misdp import anchor_point
from repro.instances.stp import _connected, orlib_random
from repro.instances.__main__ import main as instances_cli
from repro.steiner.graph import SteinerGraph
from repro.steiner.instances import random_instance
from repro.steiner.stp_io import parse_stp, write_stp

pytestmark = pytest.mark.fast


def _batch(family: str, min_instances: int = 20):
    """>= ``min_instances`` seeded instances spread over every config."""
    fam = FAMILIES[family]
    per_config = -(-min_instances // len(fam.configs))  # ceil
    return generate_family(family, seed=100, instances_per_config=per_config)


@pytest.mark.parametrize("family", [f for f in FAMILIES if FAMILIES[f].kind == "stp"])
class TestStpFamilies:
    def test_structural_invariants(self, family):
        batch = _batch(family)
        assert len(batch) >= 20
        for gi in batch:
            g = gi.instance
            assert g.num_alive_vertices >= 2, gi.name
            assert _connected(g), f"{gi.name} is not connected"
            terms = [int(t) for t in g.terminals]
            assert len(terms) >= 2, gi.name
            for t in terms:
                assert g.vertex_alive[t], f"{gi.name}: dead terminal {t}"
            for eid in g.alive_edges():
                assert g.edges[eid].cost > 0, f"{gi.name}: non-positive cost on edge {eid}"

    def test_byte_identical_regeneration(self, family):
        fam = FAMILIES[family]
        for config in fam.configs:
            a = generate_family(family, seed=7, configs=(config,))[0]
            b = generate_family(family, seed=7, configs=(config,))[0]
            assert instance_text(a) == instance_text(b)
            c = generate_family(family, seed=8, configs=(config,))[0]
            # a different seed must not silently alias the same instance
            assert instance_text(a) != instance_text(c) or stp_canonical(
                a.instance
            ) == stp_canonical(c.instance)

    def test_roundtrip(self, family):
        for gi in _batch(family):
            verify_roundtrip(gi)


@pytest.mark.parametrize("family", [f for f in FAMILIES if FAMILIES[f].kind == "misdp"])
class TestMisdpFamilies:
    def test_structural_invariants(self, family):
        batch = _batch(family)
        assert len(batch) >= 20
        for gi in batch:
            m = gi.instance
            y0 = anchor_point(m.num_vars, int(m.ub[0]), gi.seed)
            assert m.is_feasible(y0), f"{gi.name}: anchor point infeasible"
            for blk in m.blocks:
                eigs = np.linalg.eigvalsh(blk.evaluate(y0))
                assert eigs.min() > 0, f"{gi.name}: block {blk.name} not PD at anchor"
                assert np.allclose(blk.C, blk.C.T), gi.name
            assert list(m.integers) == list(range(m.num_vars)), gi.name
            assert np.all(np.isfinite(m.lb)) and np.all(np.isfinite(m.ub)), gi.name

    def test_byte_identical_regeneration(self, family):
        fam = FAMILIES[family]
        for config in fam.configs:
            a = generate_family(family, seed=7, configs=(config,))[0]
            b = generate_family(family, seed=7, configs=(config,))[0]
            assert instance_text(a) == instance_text(b)

    def test_roundtrip(self, family):
        for gi in _batch(family):
            verify_roundtrip(gi)


class TestRegistry:
    def test_unknown_family_raises(self):
        with pytest.raises(ModelError, match="unknown instance family"):
            generate_family("no_such_family")

    def test_labels_unique_within_batch(self):
        for family in FAMILIES:
            names = [gi.name for gi in _batch(family)]
            assert len(names) == len(set(names))

    def test_tiny_zoo_covers_every_family(self):
        zoo = tiny_zoo()
        assert {gi.family for gi in zoo} == set(FAMILIES)
        # tiny instances must stay brute-force-able
        for gi in zoo:
            if gi.kind == "stp":
                g = gi.instance
                nonterms = g.num_alive_vertices - g.num_terminals
                assert nonterms <= 8, f"{gi.name} too large for subset enumeration"


@pytest.mark.parametrize("generator", [orlib_random, random_instance])
def test_random_generators_refuse_more_edges_than_a_simple_graph_holds(generator):
    # used to loop forever drawing edges that cannot exist
    with pytest.raises(GraphError, match="at most 3 edges"):
        generator(3, 10, 2)
    assert len(generator(3, 3, 2).edges) == 3


class TestParserSymmetry:
    """The latent reader/writer asymmetries the round-trip work exposed."""

    def _graph_section(self, edge_lines: list[str], nodes: int = 4, declared: int | None = None):
        n_e = len(edge_lines) if declared is None else declared
        body = "\n".join(edge_lines)
        return (
            f"SECTION Graph\nNodes {nodes}\nEdges {n_e}\n{body}\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 1\nEND\n"
        )

    def test_writer_rejects_zero_terminals(self):
        g = SteinerGraph.create(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        with pytest.raises(GraphError, match="no terminals"):
            write_stp(g)

    def test_truncated_edge_section_rejected(self):
        text = self._graph_section(["E 1 2 1"], declared=3)
        with pytest.raises(GraphError, match="declares 3 edges but lists 1"):
            parse_stp(text)

    def test_truncated_terminal_section_rejected(self):
        text = (
            "SECTION Graph\nNodes 4\nEdges 1\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nEND\n"
        )
        with pytest.raises(GraphError, match="declares 2 terminals but lists 1"):
            parse_stp(text)

    @pytest.mark.parametrize("line", ["E 0 2 1", "E 2 5 1", "E -1 2 1"])
    def test_out_of_range_edge_ids_rejected_with_1based_message(self, line):
        with pytest.raises(GraphError, match=r"\[1, 4\].*1-based"):
            parse_stp(self._graph_section([line]))

    def test_out_of_range_terminal_rejected(self):
        text = (
            "SECTION Graph\nNodes 4\nEdges 1\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 9\nEND\n"
        )
        with pytest.raises(GraphError, match=r"terminal 9 outside \[1, 4\]"):
            parse_stp(text)

    def test_self_loop_rejected_not_dropped(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_stp(self._graph_section(["E 1 1 5"]))

    def test_writer_output_is_parse_fixed_point(self):
        gi = generate_family("grid_holes", seed=3)[0]  # has dead vertices -> compaction
        _sfx, text = instance_text(gi)
        assert write_stp(parse_stp(text), name=gi.name) == text


class TestCli:
    def test_generate_is_deterministic_and_parseable(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            rc = instances_cli(
                ["generate", "--family", "hypercube", "--seed", "42",
                 "--dimensions", "4", "5", "--output_dir", str(out)]
            )
            assert rc == 0
        files1 = sorted(out1.glob("*.stp"))
        assert files1, "CLI wrote no instances"
        for f1 in files1:
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()
            g = parse_stp(f1.read_text())
            assert g.num_terminals >= 2

    def test_generate_misdp_family(self, tmp_path):
        rc = instances_cli(
            ["generate", "--family", "misdp_random", "--seed", "7", "--output_dir", str(tmp_path)]
        )
        assert rc == 0
        assert sorted(tmp_path.glob("*.cbf"))

    def test_list_families(self, capsys):
        assert instances_cli(["list"]) == 0
        out = capsys.readouterr().out
        for fam in FAMILIES:
            assert fam in out

    def test_dimensions_flag_rejected_for_other_families(self, capsys):
        rc = instances_cli(
            ["generate", "--family", "pace", "--dimensions", "4", "--output_dir", "/tmp/x"]
        )
        assert rc == 2
