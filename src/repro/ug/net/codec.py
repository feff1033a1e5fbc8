"""Versioned binary wire format for Supervisor-Worker messages.

A frame is::

    +-------+---------+-----+-----+-----+-------+-------------+---------+-------+
    | magic | version | tag | src | dst | seq   | payload_len | payload | crc32 |
    | 2s    | u8      | u8  | i32 | i32 | i64   | u32         | bytes   | u32   |
    +-------+---------+-----+-----+-----+-------+-------------+---------+-------+

The CRC32 covers everything before the trailer (header + payload), so a
flipped bit anywhere in the frame is detected.  The payload is a typed
JSON document: every protocol dataclass (:class:`ParaNode`,
:class:`ParaSolution`, :class:`ParamSet`) is encoded structurally under a
``__kind`` tag and rebuilt as a *fresh object* on decode — there is no
pickle anywhere, so delivery can never alias the sender's objects and a
malicious/corrupt frame can never execute code.

Malformed input surfaces as a typed :class:`FrameDecodeError` subclass
(truncation, bad magic, unsupported version, unknown tag, checksum
mismatch, unparseable payload); receivers trace and count these via
``repro.obs`` instead of crashing.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.cip.params import ParamSet
from repro.exceptions import CommError
from repro.ug.messages import Message, MessageTag
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution

MAGIC = b"UG"
WIRE_VERSION = 1

_HEADER = struct.Struct("!2sBBiiqI")  # magic, version, tag, src, dst, seq, payload_len
_TRAILER = struct.Struct("!I")  # crc32 of header + payload

HEADER_SIZE = _HEADER.size
TRAILER_SIZE = _TRAILER.size

#: hard ceiling on a single payload (a ParaNode is a few KB; anything near
#: this limit is a corrupt length field, not a real message)
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

# stable tag <-> code table; append only, never renumber (wire contract)
_TAG_TO_CODE: dict[MessageTag, int] = {
    MessageTag.SUBPROBLEM: 1,
    MessageTag.INCUMBENT: 2,
    MessageTag.START_COLLECTING: 3,
    MessageTag.STOP_COLLECTING: 4,
    MessageTag.TERMINATION: 5,
    MessageTag.RACING_START: 6,
    MessageTag.RACING_WINNER: 7,
    MessageTag.RACING_LOSER: 8,
    MessageTag.SOLUTION_FOUND: 9,
    MessageTag.STATUS: 10,
    MessageTag.TERMINATED: 11,
    MessageTag.NODE_TRANSFER: 12,
    MessageTag.DRAIN: 13,
    MessageTag.DRAINED: 14,
    MessageTag.JOIN: 15,
    MessageTag.RESET: 16,
}
_CODE_TO_TAG = {code: tag for tag, code in _TAG_TO_CODE.items()}

#: frame-level tag code for a coalesced frame carrying several messages;
#: deliberately far from the append-only protocol range so a future tag
#: can never collide with it.  A BATCH code exists only at the frame
#: layer — there is no MessageTag for it, batches dissolve on decode.
BATCH_FRAME_CODE = 255


# -- typed errors ---------------------------------------------------------------


class WireError(CommError):
    """Base class for wire-format failures (encode or decode side)."""


class PayloadEncodeError(WireError):
    """A payload object has no wire representation (programming error)."""


class FrameDecodeError(WireError):
    """Base class for everything a hostile/corrupt frame can trigger."""


class TruncatedFrameError(FrameDecodeError):
    """The byte buffer ends before the frame does."""


class BadMagicError(FrameDecodeError):
    """The frame does not start with the ``UG`` magic."""


class UnsupportedVersionError(FrameDecodeError):
    """The frame's wire version is not one this codec speaks."""


class UnknownTagError(FrameDecodeError):
    """The frame's tag code maps to no known :class:`MessageTag`."""


class ChecksumError(FrameDecodeError):
    """The CRC32 trailer does not match the frame contents."""


class PayloadDecodeError(FrameDecodeError):
    """The payload bytes are not a valid typed-JSON document."""


# -- payload (de)serialization ---------------------------------------------------

_KIND_KEY = "__kind"


def _to_wire(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-safe tree with ``__kind`` tags."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return {_KIND_KEY: "float", "v": "nan"}
        return {_KIND_KEY: "float", "v": "inf" if obj > 0 else "-inf"}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _to_wire(float(obj))
    if isinstance(obj, (list, tuple)):
        return [_to_wire(x) for x in obj]
    if isinstance(obj, dict):
        items = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise PayloadEncodeError(f"payload dict key {key!r} is not a string")
            items[key] = _to_wire(value)
        if _KIND_KEY in obj:  # escape a user dict that shadows our tag
            return {_KIND_KEY: "dict", "v": items}
        return items
    if isinstance(obj, ParaNode):
        return {_KIND_KEY: "ParaNode", "v": _to_wire(obj.to_json())}
    if isinstance(obj, ParaSolution):
        return {_KIND_KEY: "ParaSolution", "v": _to_wire(obj.to_json())}
    if isinstance(obj, ParamSet):
        return {_KIND_KEY: "ParamSet", "v": _to_wire(asdict(obj))}
    raise PayloadEncodeError(f"cannot serialize payload object of type {type(obj).__name__}")


def _from_wire(obj: Any) -> Any:
    """Rebuild fresh Python objects from the typed-JSON tree."""
    if isinstance(obj, list):
        return [_from_wire(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    kind = obj.get(_KIND_KEY)
    if kind is None:
        return {k: _from_wire(v) for k, v in obj.items()}
    body = obj.get("v")
    if kind == "dict":
        return {k: _from_wire(v) for k, v in dict(body).items()}
    if kind == "float":
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[body]
    if kind == "ParaNode":
        return ParaNode.from_json(_from_wire(body))
    if kind == "ParaSolution":
        return ParaSolution.from_json(_from_wire(body))
    if kind == "ParamSet":
        fields = _from_wire(body)
        known = {k: v for k, v in fields.items() if k in ParamSet.__dataclass_fields__}
        return ParamSet(**known)
    raise PayloadDecodeError(f"unknown payload kind {kind!r}")


def encode_payload(payload: Any) -> bytes:
    """Serialize a message payload to canonical JSON bytes."""
    doc = _to_wire(payload)
    # allow_nan=False: every non-finite float must have gone through the
    # typed encoding above; a bare Infinity in the JSON is a codec bug
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def decode_payload(data: bytes) -> Any:
    try:
        doc = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise PayloadDecodeError(f"payload is not valid JSON: {exc}") from exc
    try:
        return _from_wire(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadDecodeError(f"malformed typed payload: {exc}") from exc


# -- frame (de)serialization ------------------------------------------------------


def encode_message(msg: Message) -> bytes:
    """Encode one :class:`Message` as a self-delimiting binary frame."""
    payload = encode_payload(msg.payload)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise PayloadEncodeError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD_BYTES")
    try:
        tag_code = _TAG_TO_CODE[msg.tag]
    except KeyError:
        raise PayloadEncodeError(f"message tag {msg.tag!r} has no wire code") from None
    seq = msg.seq if msg.seq is not None else -1
    head = _HEADER.pack(MAGIC, WIRE_VERSION, tag_code, msg.src, msg.dst, seq, len(payload))
    body = head + payload
    return body + _TRAILER.pack(zlib.crc32(body))


def frame_length(buffer: bytes) -> int | None:
    """Total frame size announced by a buffered header, or None if the
    buffer is still shorter than one header.  Raises the early typed
    errors (magic/version/length sanity) so stream readers fail fast."""
    if len(buffer) < HEADER_SIZE:
        return None
    magic, version, _tag, _src, _dst, _seq, payload_len = _HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise BadMagicError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise UnsupportedVersionError(f"unsupported wire version {version}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise TruncatedFrameError(f"announced payload of {payload_len} bytes is implausible")
    return HEADER_SIZE + payload_len + TRAILER_SIZE


def _checked_frame(frame: bytes) -> tuple[int, int, int, int, bytes]:
    """Validate length/magic/version/CRC; return (tag_code, src, dst, seq,
    payload bytes).  Shared by the single-message and batch decode paths."""
    total = frame_length(frame)
    if total is None:
        raise TruncatedFrameError(f"frame of {len(frame)} bytes is shorter than a header")
    if len(frame) < total:
        raise TruncatedFrameError(f"frame truncated: have {len(frame)} of {total} bytes")
    if len(frame) > total:
        raise FrameDecodeError(f"frame has {len(frame) - total} trailing bytes")
    body, trailer = frame[: total - TRAILER_SIZE], frame[total - TRAILER_SIZE :]
    (stored_crc,) = _TRAILER.unpack(trailer)
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise ChecksumError(f"frame CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})")
    _magic, _version, tag_code, src, dst, seq, payload_len = _HEADER.unpack_from(frame)
    return tag_code, src, dst, seq, frame[HEADER_SIZE : HEADER_SIZE + payload_len]


def decode_message(frame: bytes) -> Message:
    """Decode exactly one frame back into a fresh :class:`Message`.

    Every failure mode raises a :class:`FrameDecodeError` subclass; the
    returned message shares no object identity with whatever was encoded.
    BATCH frames are rejected here — use :func:`decode_frame` on paths
    that may legitimately receive coalesced traffic.
    """
    tag_code, src, dst, seq, payload_bytes = _checked_frame(frame)
    if tag_code == BATCH_FRAME_CODE:
        raise FrameDecodeError("BATCH frame on a single-message decode path")
    tag = _CODE_TO_TAG.get(tag_code)
    if tag is None:
        raise UnknownTagError(f"unknown message tag code {tag_code}")
    payload = decode_payload(payload_bytes)
    return Message(tag=tag, src=src, dst=dst, payload=payload, seq=seq)


# -- frame coalescing (BATCH) -----------------------------------------------------
#
# A BATCH frame amortizes the per-frame cost (header, CRC, transport
# syscall, fault-injection bookkeeping) over several protocol messages:
# the payload is a JSON array of inner records, each carrying the tag
# code, routing and seq a standalone frame would have carried in its
# header.  The frame-level src/dst/seq mirror the first inner message, so
# traffic accounting by endpoint still works.  A corrupt BATCH loses all
# of its messages at once — deterministic, and exactly what a dropped
# TCP segment would do to back-to-back small frames.


def encode_batch(msgs: list[Message]) -> bytes:
    """Encode several messages as one coalesced BATCH frame."""
    if not msgs:
        raise PayloadEncodeError("cannot encode an empty BATCH frame")
    if len(msgs) == 1:
        return encode_message(msgs[0])
    records = []
    for msg in msgs:
        try:
            tag_code = _TAG_TO_CODE[msg.tag]
        except KeyError:
            raise PayloadEncodeError(f"message tag {msg.tag!r} has no wire code") from None
        records.append(
            {
                "t": tag_code,
                "s": msg.src,
                "d": msg.dst,
                "q": msg.seq if msg.seq is not None else -1,
                "p": _to_wire(msg.payload),
            }
        )
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise PayloadEncodeError(f"BATCH payload of {len(payload)} bytes exceeds MAX_PAYLOAD_BYTES")
    first = msgs[0]
    seq = first.seq if first.seq is not None else -1
    head = _HEADER.pack(MAGIC, WIRE_VERSION, BATCH_FRAME_CODE, first.src, first.dst, seq, len(payload))
    body = head + payload
    return body + _TRAILER.pack(zlib.crc32(body))


def decode_frame(frame: bytes) -> list[Message]:
    """Decode one frame into its messages: ``[msg]`` for a plain frame,
    every coalesced message (in send order) for a BATCH frame."""
    tag_code, src, dst, seq, payload_bytes = _checked_frame(frame)
    if tag_code != BATCH_FRAME_CODE:
        tag = _CODE_TO_TAG.get(tag_code)
        if tag is None:
            raise UnknownTagError(f"unknown message tag code {tag_code}")
        return [Message(tag=tag, src=src, dst=dst, payload=decode_payload(payload_bytes), seq=seq)]
    try:
        records = json.loads(payload_bytes.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise PayloadDecodeError(f"BATCH payload is not valid JSON: {exc}") from exc
    if not isinstance(records, list) or not records:
        raise PayloadDecodeError("BATCH payload is not a non-empty array")
    out: list[Message] = []
    for rec in records:
        if not isinstance(rec, dict) or not {"t", "s", "d", "q", "p"} <= rec.keys():
            raise PayloadDecodeError("malformed BATCH record")
        tag = _CODE_TO_TAG.get(rec["t"])
        if tag is None:
            raise UnknownTagError(f"unknown message tag code {rec['t']} inside BATCH")
        try:
            payload = _from_wire(rec["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PayloadDecodeError(f"malformed typed payload in BATCH: {exc}") from exc
        out.append(
            Message(tag=tag, src=int(rec["s"]), dst=int(rec["d"]), payload=payload, seq=int(rec["q"]))
        )
    return out


def roundtrip_message(msg: Message) -> Message:
    """Encode-then-decode ``msg``: a fresh, isolation-safe copy.

    What any wire channel does to a message, without the channel — the
    codec tests' shorthand for "survives the wire unchanged".
    """
    return decode_message(encode_message(msg))
