"""Checkpoint files: primitive nodes + incumbent, JSON on disk — hardened.

The paper's checkpointing strategy saves only *primitive* nodes — nodes
with no ancestor in the LoadCoordinator — which keeps files tiny at the
cost of regenerating subtrees after a restart (Table 2 shows runs ending
with 271,781 open nodes restarting from just 18 saved ones). The restart
benefit: global presolve is re-applied to the instance.

Because the Table 2/3 campaigns only exist as checkpoint/restart *series*
(24-hour job kills, node losses), the files themselves must survive
hostile ends: every write carries a CRC32 checksum, is fsynced before the
atomic rename, and rotates the previous file into a ``.bak1``/``.bak2``…
chain; :func:`load_checkpoint` verifies the checksum and falls back to
the newest valid backup when the primary is truncated or corrupted.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import CheckpointError
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.utils.records import canonical_json, decode_float, encode_float

_FORMAT_VERSION = 1
_CRC_KEY = "crc32"
# meta floats that may be +-inf and therefore travel through encode_float
_META_FLOAT_KEYS = ("incumbent_value", "dual_bound")


@dataclass
class Checkpoint:
    nodes: list[ParaNode]
    incumbent: ParaSolution | None
    meta: dict
    #: file the data actually came from (a .bak on fallback)
    source: str = ""
    #: True when the primary file was unusable and a backup was loaded
    recovered: bool = False
    #: CheckpointError messages for every candidate that failed to load
    errors: list[str] = field(default_factory=list)


def backup_path(path: str | os.PathLike, k: int) -> Path:
    """The k-th rotating backup of ``path`` (k=1 is the newest)."""
    p = Path(path)
    return p.with_name(f"{p.name}.bak{k}")


def _rotate_backups(target: Path, retain: int) -> None:
    """Shift target -> .bak1 -> .bak2 -> ... keeping ``retain`` backups."""
    if retain <= 0 or not target.exists():
        return
    oldest = backup_path(target, retain)
    if oldest.exists():
        oldest.unlink()
    for k in range(retain - 1, 0, -1):
        src = backup_path(target, k)
        if src.exists():
            os.replace(src, backup_path(target, k + 1))
    os.replace(target, backup_path(target, 1))


def rank_provenance(nodes: list[ParaNode]) -> dict[str, int]:
    """Histogram of primitive nodes by the rank that last held them.

    Rank 0 is the LoadCoordinator (a node never assigned, e.g. the root on
    a fresh run).  Recorded in every checkpoint's meta block so a restart
    onto a different cluster shape can still say where the saved frontier
    came from — and :func:`repro.verify.audit_restart_coverage` can check
    the restored pool covers it node for node.
    """
    hist: dict[str, int] = {}
    for node in nodes:
        key = str(getattr(node, "origin_rank", 0))
        hist[key] = hist.get(key, 0) + 1
    return hist


def save_checkpoint(
    path: str | os.PathLike,
    nodes: list[ParaNode],
    incumbent: ParaSolution | None,
    stats=None,
    meta: dict | None = None,
    retain: int = 0,
) -> None:
    """Atomically write a checkpoint file (checksummed, fsynced, rotated).

    ``meta`` extends the metadata block — the LoadCoordinator records the
    checkpoint's virtual/wall timestamps, incumbent value and global dual
    bound there so restart series can report bound trajectories (the
    Tables 2-3 campaign pattern).  ``retain`` > 0 keeps that many rotated
    ``.bakK`` copies of previous checkpoints for corruption fallback.
    """
    doc = {
        "version": _FORMAT_VERSION,
        "nodes": [
            {**n.to_json(), "dual_bound": encode_float(n.dual_bound)} for n in nodes
        ],
        "incumbent": None if incumbent is None else incumbent.to_json(),
        "meta": {
            "nodes_generated": getattr(stats, "nodes_generated", 0),
            "transferred_nodes": getattr(stats, "transferred_nodes", 0),
            "solver_failures": getattr(stats, "solver_failures", 0),
            "nodes_reclaimed": getattr(stats, "nodes_reclaimed", 0),
            "rank_provenance": rank_provenance(nodes),
        },
    }
    if meta:
        extra = dict(meta)
        for key in _META_FLOAT_KEYS:
            if key in extra and isinstance(extra[key], float):
                extra[key] = encode_float(extra[key])
        doc["meta"].update(extra)
    doc[_CRC_KEY] = zlib.crc32(canonical_json({k: v for k, v in doc.items() if k != _CRC_KEY}))
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(canonical_json(doc))
            fh.flush()
            os.fsync(fh.fileno())
        _rotate_backups(target, retain)
        os.replace(tmp, target)
    except OSError as exc:  # pragma: no cover - filesystem failure
        raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_one(path: Path) -> Checkpoint:
    """Parse and verify a single checkpoint file, raising CheckpointError."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is corrupt (bad JSON): {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is corrupt (not an object)")
    if doc.get("version") != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    if _CRC_KEY in doc:  # legacy files without a checksum still load
        expected = doc[_CRC_KEY]
        actual = zlib.crc32(canonical_json({k: v for k, v in doc.items() if k != _CRC_KEY}))
        if expected != actual:
            raise CheckpointError(
                f"checkpoint {path} failed its CRC32 check (stored {expected}, computed {actual})"
            )
    try:
        nodes = []
        for obj in doc["nodes"]:
            obj = dict(obj)
            obj["dual_bound"] = decode_float(obj["dual_bound"])
            nodes.append(ParaNode.from_json(obj))
        incumbent = None if doc["incumbent"] is None else ParaSolution.from_json(doc["incumbent"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is corrupt (bad structure): {exc}") from exc
    meta = dict(doc.get("meta", {}))
    for key in _META_FLOAT_KEYS:
        if key in meta and meta[key] is not None:
            meta[key] = decode_float(meta[key])
    return Checkpoint(nodes, incumbent, meta, source=str(path))


def load_checkpoint(path: str | os.PathLike, fallback: bool = True) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    With ``fallback`` (the default), a primary file that is missing,
    truncated or fails its checksum does not kill the restart: the newest
    valid rotated backup (``.bak1``, then ``.bak2``, ...) is loaded
    instead and the returned checkpoint is marked ``recovered``.
    """
    primary = Path(path)
    candidates = [primary]
    if fallback:
        k = 1
        while backup_path(primary, k).exists():
            candidates.append(backup_path(primary, k))
            k += 1
    errors: list[str] = []
    for candidate in candidates:
        try:
            cp = _load_one(candidate)
        except CheckpointError as exc:
            errors.append(str(exc))
            continue
        cp.recovered = candidate != primary
        cp.errors = errors
        return cp
    raise CheckpointError(
        "no usable checkpoint found; tried "
        + ", ".join(str(c) for c in candidates)
        + ": "
        + "; ".join(errors)
    )
