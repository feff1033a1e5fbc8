"""The codec boundary: one :class:`MessageChannel` per remote rank.

A channel owns one :class:`~repro.ug.net.transport.Transport` endpoint
and is the *only* place where protocol messages meet bytes: sends are
stamped (per-run sequence), encoded, fault-injected at the frame seam
(drop / corrupt / truncate, per the run's
:class:`~repro.ug.faults.FaultPlan`) and counted; receives are decoded
with every malformed frame surfacing as a typed
:class:`~repro.ug.net.codec.FrameDecodeError` that is traced and
counted instead of crashing the engine.
"""

from __future__ import annotations

import collections
from typing import Any, Callable

from repro.ug.messages import Message, MessageTag, SeqStamper
from repro.ug.net.codec import FrameDecodeError, decode_frame, encode_batch, encode_message
from repro.ug.net.transport import Transport, TransportClosedError


def corrupt_frame(frame: bytes, mode: str) -> bytes:
    """Deterministically damage a frame (the injector's frame seam)."""
    if mode == "truncate":
        return frame[: max(len(frame) // 2, 1)]
    # flip one byte two thirds in — lands in the payload/CRC region for
    # any realistic frame, so the checksum check must catch it
    pos = (2 * len(frame)) // 3
    return frame[:pos] + bytes([frame[pos] ^ 0xFF]) + frame[pos + 1 :]


class MessageChannel:
    """Encode/decode endpoint for one remote rank, with accounting."""

    def __init__(
        self,
        transport: Transport,
        *,
        local_rank: int,
        remote_rank: int,
        stamper: SeqStamper | None = None,
        injector: Any = None,
        stats: Any = None,
        tracer: Any = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.transport = transport
        self.local_rank = local_rank
        self.remote_rank = remote_rank
        self.stamper = stamper or SeqStamper()
        self.injector = injector
        # the run's UGStatistics (None: per-channel counters only)
        self.stats = stats
        self.tracer = tracer
        self.clock = clock or (lambda: 0.0)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.decode_errors = 0
        # send-side coalescing buffer and decoded-but-undelivered messages
        # from a BATCH frame (recv hands them out one at a time)
        self._outbox: list[Message] = []
        self._inbox: collections.deque[Message] = collections.deque()

    # -- sending ---------------------------------------------------------------

    def send(self, dst: int, tag: MessageTag, payload: Any) -> bool:
        """Build, stamp and ship one message; False when it was dropped
        (injected fault or closed transport — a dead rank is a black hole)."""
        msg = Message(tag=tag, src=self.local_rank, dst=dst, payload=payload, seq=self.stamper())
        return self.send_message(msg)

    def queue(self, dst: int, tag: MessageTag, payload: Any) -> None:
        """Stamp one message and buffer it for the next :meth:`flush`.

        Queued messages coalesce into a single BATCH frame, so the
        per-frame cost (header, CRC, syscall) is paid once per flush —
        the wire-path fix for chatty worker loops (STATUS piggybacks on
        whatever RESULT/SOLUTION/NODE_TRANSFER traffic the step produced).
        """
        self.queue_message(
            Message(tag=tag, src=self.local_rank, dst=dst, payload=payload, seq=self.stamper())
        )

    def queue_message(self, msg: Message) -> None:
        """Buffer an already-stamped message for the next :meth:`flush`."""
        self._outbox.append(msg)

    def flush(self) -> bool:
        """Ship everything queued as one frame; True unless the transport
        is closed (black hole) or the whole frame was fault-dropped."""
        if not self._outbox:
            return True
        msgs, self._outbox = self._outbox, []
        if len(msgs) == 1:
            return self.send_message(msgs[0])
        frame = encode_batch(msgs)
        if self.stats is not None:
            self.stats.bump("net_batches_sent")
            self.stats.bump("net_msgs_coalesced", len(msgs))
        return self._ship_frame(frame, tag=f"batch[{len(msgs)}]", dst=msgs[0].dst)

    def send_message(self, msg: Message) -> bool:
        return self._ship_frame(encode_message(msg), tag=msg.tag.value, dst=msg.dst)

    def _ship_frame(self, frame: bytes, tag: str, dst: int) -> bool:
        """The single frame seam: fault injection, transport, accounting."""
        action = None
        if self.injector is not None:
            action = self.injector.frame_action(self.local_rank, dst)
        if action == "drop":
            self._trace("frame_fault", action="drop", tag=tag, dst=dst)
            return False
        if action in ("corrupt", "truncate"):
            self._trace("frame_fault", action=action, tag=tag, dst=dst)
            frame = corrupt_frame(frame, action)
        try:
            self.transport.send_frame(frame)
        except TransportClosedError:
            self._trace("send_closed", tag=tag, dst=dst)
            return False
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        if self.stats is not None:
            self.stats.bump("net_frames_sent")
            self.stats.bump("net_bytes_sent", len(frame))
        return True

    # -- receiving -------------------------------------------------------------

    def recv(self, timeout: float = 0.0) -> Message | None:
        """One decoded message, or None when nothing (valid) is available.

        A malformed frame is traced/counted and *skipped* — the loop keeps
        reading, so one corrupt frame can never make a receiver treat the
        channel as drained while good frames sit buffered behind it (net
        faults degrade to message loss, which PR 1's heartbeat/reclaim
        machinery already survives).  BATCH frames dissolve here: the
        first message returns now, the rest queue for subsequent calls.
        Raises :class:`TransportClosedError` once the peer is gone."""
        if self._inbox:
            return self._inbox.popleft()
        while True:
            frame = self.transport.recv_frame(timeout)
            if frame is None:
                return None
            self.frames_received += 1
            self.bytes_received += len(frame)
            if self.stats is not None:
                self.stats.bump("net_frames_received")
                self.stats.bump("net_bytes_received", len(frame))
            try:
                msgs = decode_frame(frame)
            except FrameDecodeError as exc:
                self.decode_errors += 1
                if self.stats is not None:
                    self.stats.bump("net_decode_errors")
                self._trace("net_decode_error", error=type(exc).__name__, bytes=len(frame))
                # skip the bad frame; anything already buffered behind it
                # must come out on this same call
                timeout = 0.0
                continue
            self._inbox.extend(msgs[1:])
            return msgs[0]

    def drain(self, limit: int = 1024) -> list[Message]:
        """Every message currently available, without blocking."""
        out: list[Message] = []
        for _ in range(limit):
            try:
                msg = self.recv(0.0)
            except TransportClosedError:
                break
            if msg is None:
                break
            out.append(msg)
        return out

    def close(self) -> None:
        self.transport.close()

    @property
    def closed(self) -> bool:
        return self.transport.closed

    def _trace(self, kind: str, **data: Any) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(self.clock(), kind, self.remote_rank, **data)
