"""Pluggable frame transports: loopback, multiprocessing pipes, TCP.

A :class:`Transport` moves opaque byte frames between two endpoints; it
knows nothing about the wire codec above it.  Three implementations:

* :class:`LoopbackTransport` — an in-memory pair of FIFO queues: polled
  (never blocking, fully deterministic) by the loopback net engine and
  the corruption/kill tests, waited on by the thread engine's ranks.
* :class:`PipeTransport` — a ``multiprocessing.Pipe`` duplex connection;
  the default carrier of the ProcessEngine (frames ride
  ``send_bytes``/``recv_bytes``, which are already length-delimited).
* :class:`TcpTransport` — a TCP socket with its own 4-byte length
  prefix, connect/read timeouts, retry-with-backoff on transient
  errors, and a bounded outbound queue whose ``send_frame`` *blocks*
  when full — backpressure instead of unbounded memory growth.
"""

from __future__ import annotations

import collections
import hmac
import os
import queue
import random
import socket
import struct
import threading
import time
from typing import Any

from repro.exceptions import CommError


class TransportClosedError(CommError):
    """The peer endpoint is gone (EOF, reset, or explicit close)."""


class BackpressureError(CommError):
    """The bounded outbound queue stayed full past the send timeout."""


# -- retry backoff ----------------------------------------------------------------

#: hard ceiling on any single retry sleep; 2**attempt alone grows unbounded
DEFAULT_BACKOFF_CAP = 2.0
#: per-attempt TCP dial-in timeout, seconds (also bounds the hello read)
CONNECT_TIMEOUT = 5.0


def backoff_delay(base: float, attempt: int, cap: float = DEFAULT_BACKOFF_CAP, seed: int = 0) -> float:
    """Capped exponential backoff with deterministic seeded jitter.

    The delay for retry ``attempt`` (1-based) is ``base * 2**(attempt-1)``
    clamped to ``cap``, scaled by a jitter factor in [0.5, 1.0) drawn from
    a PRNG keyed on ``seed`` and ``attempt`` — the same seed always yields
    the same schedule, so virtual-time engines (and the cluster watchdog)
    replay bit-identically while real TCP retries still de-synchronize.
    """
    raw = min(base * (2 ** max(attempt - 1, 0)), cap)
    jitter = random.Random(seed * 2_654_435_761 + attempt).random()
    return raw * (0.5 + 0.5 * jitter)


# -- rank/token hello handshake ----------------------------------------------------

#: shared-secret size for the TCP hello; compared timing-safely below
TOKEN_BYTES = 16

_HELLO = struct.Struct(f"!i{TOKEN_BYTES}s")  # rank, shared-secret token

HELLO_SIZE = _HELLO.size


def make_hello_token() -> bytes:
    """A fresh per-run shared secret for the TCP hello handshake."""
    return os.urandom(TOKEN_BYTES)


def send_hello(sock: socket.socket, rank: int, token: bytes) -> None:
    """Authenticate a dial-in: ship ``(rank, token)`` before any frame."""
    sock.sendall(_HELLO.pack(rank, token))


def recv_hello(sock: socket.socket, timeout: float) -> tuple[int, bytes] | None:
    """Read one hello off a freshly accepted socket, or None on a short
    read/timeout (the caller drops the stranger)."""
    sock.settimeout(timeout)
    buf = b""
    try:
        while len(buf) < HELLO_SIZE:
            chunk = sock.recv(HELLO_SIZE - len(buf))
            if not chunk:
                return None
            buf += chunk
    except OSError:
        return None
    rank, token = _HELLO.unpack(buf)
    return rank, token


def hello_token_matches(got: bytes, expected: bytes) -> bool:
    """Timing-safe token comparison (``hmac.compare_digest``, not ``==``)."""
    return hmac.compare_digest(bytes(got), bytes(expected))


class Transport:
    """Duplex frame channel between exactly two endpoints."""

    def send_frame(self, frame: bytes) -> None:
        """Ship one opaque frame; raises :class:`TransportClosedError`
        once the peer is gone and :class:`BackpressureError` when a
        bounded outbound queue cannot accept the frame in time."""
        raise NotImplementedError

    def recv_frame(self, timeout: float = 0.0) -> bytes | None:
        """One frame, or None if nothing arrives within ``timeout``
        seconds; raises :class:`TransportClosedError` on EOF."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


# -- in-memory loopback -----------------------------------------------------------


class LoopbackTransport(Transport):
    """One endpoint of an in-memory duplex channel (see :meth:`pair`).

    Frames come out in the exact order they went in.  With ``timeout`` 0
    (all the virtual-clock engines ever pass) an empty queue just returns
    None and nothing blocks, so those runs stay deterministic; a positive
    ``timeout`` sleeps on ``mail``, which every arriving frame sets — the
    thread engine's ranks wait on their own endpoint's event, and its
    coordinator on one event shared by all of its endpoints.
    """

    def __init__(self) -> None:
        self._inbox: collections.deque[bytes] = collections.deque()
        self._peer: "LoopbackTransport | None" = None
        self._closed = False
        # the thread engine's ranks and coordinator share the inboxes
        self._lock = threading.Lock()
        self.mail = threading.Event()

    @staticmethod
    def pair() -> tuple["LoopbackTransport", "LoopbackTransport"]:
        a, b = LoopbackTransport(), LoopbackTransport()
        a._peer, b._peer = b, a
        return a, b

    def _peer_gone(self) -> bool:
        return self._closed or self._peer is None or self._peer._closed

    def send_frame(self, frame: bytes) -> None:
        if self._peer_gone():
            raise TransportClosedError("loopback peer is closed")
        with self._peer._lock:
            self._peer._inbox.append(bytes(frame))
        self._peer.mail.set()

    def recv_frame(self, timeout: float = 0.0) -> bytes | None:
        if not self._inbox and timeout > 0 and not self._peer_gone():
            self.mail.wait(timeout)
            self.mail.clear()
        # closure is sampled first: a peer's last frame precedes its close(),
        # so it must still come out before the closure is reported
        gone = self._peer_gone()
        with self._lock:
            if self._inbox:
                return self._inbox.popleft()
        if gone:
            raise TransportClosedError("loopback peer is closed")
        return None

    def pending(self) -> int:
        with self._lock:
            return len(self._inbox)

    def close(self) -> None:
        self._closed = True
        # wake a reader sleeping on either end so it sees the closure now
        self.mail.set()
        if self._peer is not None:
            self._peer.mail.set()

    @property
    def closed(self) -> bool:
        return self._closed


# -- multiprocessing pipe ---------------------------------------------------------


class PipeTransport(Transport):
    """Frames over a duplex ``multiprocessing.Connection``."""

    def __init__(self, conn: Any) -> None:
        self.conn = conn
        self._closed = False
        self._send_lock = threading.Lock()

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosedError("pipe transport is closed")
        try:
            with self._send_lock:
                self.conn.send_bytes(frame)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            self._closed = True
            raise TransportClosedError(f"pipe peer is gone: {exc}") from exc

    def recv_frame(self, timeout: float = 0.0) -> bytes | None:
        if self._closed:
            raise TransportClosedError("pipe transport is closed")
        try:
            if not self.conn.poll(timeout):
                return None
            return self.conn.recv_bytes()
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            self._closed = True
            raise TransportClosedError(f"pipe peer is gone: {exc}") from exc

    def pending(self) -> int:
        """1 when at least one frame is readable right now (a Connection
        cannot count its buffer without consuming it), else 0."""
        if self._closed:
            return 0
        try:
            return 1 if self.conn.poll(0) else 0
        except (BrokenPipeError, ConnectionError, EOFError, OSError):
            return 0

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    @property
    def closed(self) -> bool:
        return self._closed


# -- TCP sockets ------------------------------------------------------------------

_LEN_PREFIX = struct.Struct("!I")
_RECV_CHUNK = 1 << 16


class TcpTransport(Transport):
    """Length-prefixed frames over a TCP socket.

    Outbound frames go through a bounded queue drained by a sender
    thread; when the queue is full ``send_frame`` blocks up to
    ``send_timeout`` seconds and then raises :class:`BackpressureError`
    — a slow peer throttles the sender instead of ballooning memory.
    Transient socket timeouts during a send are retried with exponential
    backoff before the transport declares itself broken.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_outbound: int = 1024,
        send_timeout: float = 30.0,
        send_retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        jitter_seed: int = 0,
    ) -> None:
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.send_timeout = send_timeout
        self.send_retries = send_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter_seed = jitter_seed
        self._closed = False
        self._error: Exception | None = None
        self._rbuf = bytearray()
        self._frames: collections.deque[bytes] = collections.deque()
        self._outbound: queue.Queue[bytes | None] = queue.Queue(maxsize=max(1, max_outbound))
        self.queue_peak = 0  # high-water mark of the outbound queue
        self._sender = threading.Thread(target=self._drain_outbound, daemon=True, name="TcpTransport-send")
        self._sender.start()

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_timeout: float = CONNECT_TIMEOUT,
        connect_retries: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        jitter_seed: int = 0,
        **kwargs: Any,
    ) -> "TcpTransport":
        """Dial ``host:port``, retrying transient refusals with capped,
        jittered backoff (the listener may not be up yet when a spawned
        rank dials in)."""
        attempt = 0
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=connect_timeout)
                sock.settimeout(None)
                return cls(
                    sock, backoff=backoff, backoff_cap=backoff_cap, jitter_seed=jitter_seed, **kwargs
                )
            except (ConnectionRefusedError, ConnectionResetError, socket.timeout, TimeoutError) as exc:
                attempt += 1
                if attempt > connect_retries:
                    raise TransportClosedError(
                        f"cannot connect to {host}:{port} after {attempt} attempts: {exc}"
                    ) from exc
                time.sleep(backoff_delay(backoff, attempt, cap=backoff_cap, seed=jitter_seed))

    # -- sending ---------------------------------------------------------------

    def send_frame(self, frame: bytes) -> None:
        if self._closed or self._error is not None:
            raise TransportClosedError(f"tcp transport is closed ({self._error})")
        try:
            self._outbound.put(bytes(frame), timeout=self.send_timeout)
        except queue.Full:
            raise BackpressureError(
                f"outbound queue full for {self.send_timeout}s — peer not draining"
            ) from None
        self.queue_peak = max(self.queue_peak, self._outbound.qsize())

    def _drain_outbound(self) -> None:
        while True:
            frame = self._outbound.get()
            if frame is None:
                return
            data = _LEN_PREFIX.pack(len(frame)) + frame
            attempt = 0
            while True:
                try:
                    self.sock.sendall(data)
                    break
                except (socket.timeout, InterruptedError, BlockingIOError):
                    attempt += 1
                    if attempt > self.send_retries:
                        self._error = TransportClosedError("send retries exhausted")
                        return
                    time.sleep(
                        backoff_delay(self.backoff, attempt, cap=self.backoff_cap, seed=self.jitter_seed)
                    )
                except OSError as exc:
                    self._error = TransportClosedError(f"tcp send failed: {exc}")
                    return

    # -- receiving -------------------------------------------------------------

    def recv_frame(self, timeout: float = 0.0) -> bytes | None:
        if self._frames:
            return self._frames.popleft()
        if self._closed:
            raise TransportClosedError("tcp transport is closed")
        self.sock.settimeout(max(timeout, 1e-6))
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except (socket.timeout, BlockingIOError, InterruptedError):
            return None
        except OSError as exc:
            self._closed = True
            raise TransportClosedError(f"tcp recv failed: {exc}") from exc
        if chunk == b"":
            self._closed = True
            raise TransportClosedError("tcp peer closed the connection")
        self._rbuf.extend(chunk)
        self._parse_frames()
        return self._frames.popleft() if self._frames else None

    def pending(self) -> int:
        """Frames already parsed off the socket and awaiting delivery."""
        return len(self._frames)

    def _parse_frames(self) -> None:
        while len(self._rbuf) >= _LEN_PREFIX.size:
            (length,) = _LEN_PREFIX.unpack_from(self._rbuf)
            end = _LEN_PREFIX.size + length
            if len(self._rbuf) < end:
                return
            self._frames.append(bytes(self._rbuf[_LEN_PREFIX.size : end]))
            del self._rbuf[:end]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._outbound.put_nowait(None)
        except queue.Full:  # pragma: no cover - sender is stuck; shut the socket anyway
            pass
        self._sender.join(timeout=2.0)
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    @property
    def closed(self) -> bool:
        return self._closed or self._error is not None


def tcp_listener(host: str = "127.0.0.1", port: int = 0, backlog: int = 16) -> socket.socket:
    """A listening socket for ProcessEngine's TCP mode (port 0 = ephemeral)."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(backlog)
    return srv
