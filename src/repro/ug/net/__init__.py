"""Distributed-memory networking for the UG runtime (DESIGN.md §5e).

Three layers, bottom up:

* :mod:`repro.ug.net.codec` — the versioned binary wire format (framed,
  CRC-checked, pickle-free typed-JSON payloads).
* :mod:`repro.ug.net.transport` — pluggable frame carriers: in-memory
  loopback, ``multiprocessing.Pipe``, TCP with backpressure.
* :mod:`repro.ug.net.channel` — the codec/transport boundary with
  fault-injection and ``repro.obs`` accounting.

On top ride two engines: :class:`LoopbackNetEngine` (deterministic,
single-threaded, full wire path — the testable twin) and
:class:`ProcessEngine` (one OS process per rank — true parallelism).
The engine classes are exported lazily (PEP 562): they build on
:mod:`repro.ug.engine_core`, which itself imports this package's
channel and transport modules.
"""

from __future__ import annotations

from typing import Any

from repro.ug.net.channel import MessageChannel, corrupt_frame
from repro.ug.net.codec import (
    BadMagicError,
    ChecksumError,
    FrameDecodeError,
    PayloadDecodeError,
    PayloadEncodeError,
    TruncatedFrameError,
    UnknownTagError,
    UnsupportedVersionError,
    WireError,
    decode_message,
    encode_message,
    roundtrip_message,
)
from repro.ug.net.transport import (
    BackpressureError,
    LoopbackTransport,
    PipeTransport,
    TcpTransport,
    Transport,
    TransportClosedError,
    tcp_listener,
)

__all__ = [
    "BackpressureError",
    "BadMagicError",
    "ChecksumError",
    "FrameDecodeError",
    "LoopbackNetEngine",
    "LoopbackTransport",
    "MessageChannel",
    "PayloadDecodeError",
    "PayloadEncodeError",
    "PipeTransport",
    "ProcessEngine",
    "TcpTransport",
    "Transport",
    "TransportClosedError",
    "TruncatedFrameError",
    "UnknownTagError",
    "UnsupportedVersionError",
    "WireError",
    "corrupt_frame",
    "decode_message",
    "encode_message",
    "roundtrip_message",
    "tcp_listener",
]

_LAZY = {
    "ProcessEngine": ("repro.ug.net.process_engine", "ProcessEngine"),
    "LoopbackNetEngine": ("repro.ug.net.loopback_engine", "LoopbackNetEngine"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
