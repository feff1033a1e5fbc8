"""The one JSON spelling of durable records, pinned byte for byte.

Journal lines, checkpoint files and instance fingerprints all go through
``repro.utils.records`` (canonical JSON, ``"inf"``/``"-inf"`` floats).
The literals below were written by the code before the three copies were
merged: their bytes must not move, and files in that format must still
load.
"""

from __future__ import annotations

import math

import pytest

from repro.sdp.instances import cardinality_least_squares
from repro.serve.jobs import JobOutcome
from repro.serve.journal import JobJournal, replay_journal
from repro.serve.runner import instance_cache_key
from repro.steiner.instances import grid_instance
from repro.ug.checkpoint import load_checkpoint, save_checkpoint
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.utils import canonical_json, decode_float, encode_float

pytestmark = pytest.mark.fast

JOURNAL_LINE = (
    b'{"crc32":1252788533,"data":{"outcome":{"attempts":1,"bound":36.5,"certified":false,'
    b'"checks":{"failed":0,"passed":4},"detail":"x","from_cache":false,"gap":"inf",'
    b'"objective":39.0,"solution":[2,18,20],"solved":false,"state":"degraded"}},'
    b'"event":"completed","job":"abc123","seq":0}\n'
)

CHECKPOINT_FILE = (
    b'{"crc32":1606011705,"incumbent":{"payload":{"edges":[1,4]},"value":20.0},'
    b'"meta":{"checkpoint_time":0.5,"dual_bound":"-inf","incumbent_value":20.0,"n_ranks":2,'
    b'"nodes_generated":0,"nodes_reclaimed":0,"rank_provenance":{"0":2},"solver_failures":0,'
    b'"transferred_nodes":0,"wall_time":0.0},"nodes":[{"attempts":0,"depth":2,'
    b'"dual_bound":"-inf","lc_id":-1,"lineage":[],"origin_rank":0,"payload":{"bounds":'
    b'[[1,0.0,0.0]]}},{"attempts":0,"depth":1,"dual_bound":12.5,"lc_id":-1,"lineage":[],'
    b'"origin_rank":0,"payload":{"decisions":[[3,"in"]],"fixings":[]}}],"version":1}'
)

MISDP_DIGEST = "3d91af7425ed122d11f72adbcb47394daa92957539ac8a25daeb555e47178260"
STP_DIGEST = "0cd2df8a5aeb1490538826d8569a183e91f839f841f27ed728d32cbb6ed4c75a"


def test_float_codec_round_trips_infinities():
    for x in (math.inf, -math.inf, 0.0, -2.5):
        assert decode_float(encode_float(x)) == x
    assert canonical_json({"b": encode_float(math.inf), "a": 1}) == b'{"a":1,"b":"inf"}'


def test_journal_record_bytes(tmp_path):
    path = tmp_path / "j.jsonl"
    outcome = JobOutcome(
        state="degraded", objective=39.0, bound=36.5, gap=math.inf,
        solution=[2, 18, 20], detail="x", checks={"passed": 4, "failed": 0},
    )
    with JobJournal(path, fsync=False) as journal:
        journal.append("completed", "abc123", {"outcome": outcome.to_json()})
    assert path.read_bytes() == JOURNAL_LINE
    old = tmp_path / "old.jsonl"
    old.write_bytes(JOURNAL_LINE)
    [record] = replay_journal(old).records
    assert JobOutcome.from_json(record.data["outcome"]).gap == math.inf


def test_checkpoint_file_bytes(tmp_path):
    path = tmp_path / "cp.json"
    nodes = [
        ParaNode(payload={"bounds": [[1, 0.0, 0.0]]}, dual_bound=-math.inf, depth=2),
        ParaNode(payload={"decisions": [[3, "in"]], "fixings": []}, dual_bound=12.5, depth=1),
    ]
    meta = {"incumbent_value": 20.0, "dual_bound": -math.inf, "checkpoint_time": 0.5,
            "wall_time": 0.0, "n_ranks": 2}
    save_checkpoint(path, nodes, ParaSolution(20.0, {"edges": [1, 4]}), None, meta=meta)
    assert path.read_bytes() == CHECKPOINT_FILE
    old = tmp_path / "old.json"
    old.write_bytes(CHECKPOINT_FILE)
    cp = load_checkpoint(old)
    assert [n.dual_bound for n in cp.nodes] == [-math.inf, 12.5]
    assert cp.meta["dual_bound"] == -math.inf and cp.incumbent.value == 20.0


def test_fingerprint_digests():
    assert instance_cache_key("misdp", cardinality_least_squares(seed=0)) == (MISDP_DIGEST, None)
    digest, labeling = instance_cache_key("stp", grid_instance(2, 3, 3, seed=5))
    assert digest == STP_DIGEST and sorted(labeling) == list(range(6))
