"""One JSON spelling for durable records: journal lines, checkpoints, fingerprints.

:func:`canonical_json` is the byte form every CRC32 and digest is taken
over (sorted keys, no whitespace), and :func:`encode_float` /
:func:`decode_float` carry ``±inf``, which strict JSON cannot spell, as
the strings ``"inf"`` / ``"-inf"``.
"""

from __future__ import annotations

import json
import math
from typing import Any


def canonical_json(doc: Any) -> bytes:
    """Stable serialization: equal documents give equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def encode_float(x: float) -> float | str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def decode_float(x: Any) -> float:
    if isinstance(x, str):
        return math.inf if x == "inf" else -math.inf
    return float(x)
