"""Deterministic in-process engine over the full net stack.

:class:`LoopbackNetEngine` is the virtual-clock event heap of the
:class:`~repro.ug.engines.SimEngine` with delivery swapped for the real
wire path: **every** message crosses a per-rank
:class:`~repro.ug.net.channel.MessageChannel` pair over
:class:`~repro.ug.net.transport.LoopbackTransport` — binary codec frames,
frame-seam fault injection — so the distributed-memory machinery
(encode/decode, CRC rejection, rank death, heartbeat reclaim, elastic
joins and drains) is testable bit-identically without spawning a single
process.  It is to the ProcessEngine what the SimEngine is to MPI: the
deterministic twin.

A frame is shipped when its message is sent; the arrival event
``config.latency`` virtual seconds later makes the receiver drain its
endpoint.  A message the fault plan delays is held back on the heap
instead and shipped by its own arrival event.
"""

from __future__ import annotations

from repro.ug.engines import SimEngine
from repro.ug.messages import LOAD_COORDINATOR_RANK, Message


class LoopbackNetEngine(SimEngine):
    """Single-threaded, virtual-time engine over loopback transports."""

    def _start_rank(self, rank: int) -> bool:
        self._wire_loopback(rank)
        return super()._start_rank(rank)

    def _post(self, msg: Message, now: float, extra_delay: float) -> None:
        t = now + self.config.latency + extra_delay
        if extra_delay > 0:
            self._arrival(msg, t, msg)
        elif msg.dst == LOAD_COORDINATOR_RANK:
            # mirror the process worker's coalescing: worker->LC messages
            # ride the channel outbox and flush at the same loop seams (one
            # BATCH frame per handle/work burst), so frame sequences — and
            # frame-seam fault replay — match
            self.rank_channels[msg.src].queue_message(msg)
        else:
            self._arrival(msg, t, None)
            self.channels[msg.dst].send_message(msg)  # frame faults inside

    def _end_burst(self, rank: int) -> None:
        channel = self.rank_channels[rank]
        shipped = channel.frames_sent
        channel.flush()
        if channel.frames_sent > shipped:  # nothing queued or frame dropped: no arrival
            self._push(self._clock[rank] + self.config.latency, "lcmsg", rank)

    def _run_solver(self, rank: int) -> None:
        super()._run_solver(rank)
        # a process parent sees a worker inside a long node step alive
        # (``is_alive()``); this twin sees the rank's clock ahead of the
        # heap's, so ``heartbeat_timeout`` need not exceed the longest step
        if self._clock[rank] > self.now:
            self.lc.note_rank_alive(rank, self._clock[rank])

    def _collect(self, rank: int, msg: Message | None, to_lc: bool) -> list[Message]:
        sender, receiver = (
            (self.rank_channels, self.channels) if to_lc else (self.channels, self.rank_channels)
        )
        if msg is not None:
            sender[rank].send_message(msg)
        return receiver[rank].drain()
