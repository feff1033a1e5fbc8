"""Wire codec, transports, channels and the deterministic loopback engine."""

from __future__ import annotations

import math
import socket
import struct

import numpy as np
import pytest

from repro.apps.stp_plugins import SteinerUserPlugins
from repro.cip.params import ParamSet
from repro.steiner.instances import hypercube_instance
from repro.ug import ug
from repro.ug.config import UGConfig
from repro.ug.engines import SimEngine, ThreadEngine
from repro.ug.faults import FaultPlan, FrameFault, SolverCrash
from repro.ug.messages import Message, MessageTag, SeqStamper
from repro.ug.net.channel import MessageChannel, corrupt_frame
from repro.ug.net.codec import (
    HEADER_SIZE,
    WIRE_VERSION,
    BadMagicError,
    ChecksumError,
    FrameDecodeError,
    PayloadDecodeError,
    PayloadEncodeError,
    TruncatedFrameError,
    UnknownTagError,
    UnsupportedVersionError,
    decode_message,
    encode_message,
    roundtrip_message,
)
from repro.ug.net.transport import (
    BackpressureError,
    LoopbackTransport,
    PipeTransport,
    TcpTransport,
    TransportClosedError,
    tcp_listener,
)
from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.verify import audit_ug_run, check_ug_steiner_result

STP_CFG = dict(time_limit=1e9, objective_epsilon=1 - 1e-6)

TAGS = list(MessageTag)


def random_payload(rng: np.random.Generator, depth: int = 0):
    """A randomized protocol-shaped payload (every wire kind reachable)."""
    kind = rng.integers(0, 9 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return int(rng.integers(-(2**40), 2**40))
    if kind == 2:
        return float(rng.choice([rng.normal() * 1e6, math.inf, -math.inf, 0.0]))
    if kind == 3:
        return "".join(chr(int(c)) for c in rng.integers(32, 0x2FA0, size=8))
    if kind == 4:
        return ParaNode(
            payload={"fixed": [int(x) for x in rng.integers(0, 100, size=5)]},
            dual_bound=float(rng.normal()),
            depth=int(rng.integers(0, 30)),
            lc_id=int(rng.integers(-1, 1000)),
            lineage=tuple(int(x) for x in rng.integers(0, 50, size=3)),
            attempts=int(rng.integers(0, 4)),
        )
    if kind == 5:
        return ParaSolution(float(rng.normal()), payload={"edges": [1, 2, 3]})
    if kind == 6:
        return {f"k{i}": random_payload(rng, depth + 1) for i in range(int(rng.integers(1, 4)))}
    if kind == 7:
        return [random_payload(rng, depth + 1) for _ in range(int(rng.integers(1, 4)))]
    return ParamSet(permutation_seed=int(rng.integers(0, 100)), time_limit=math.inf)


def assert_payload_equal(a, b):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b)
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for k in a:
            assert_payload_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_payload_equal(x, y)
    else:
        assert a == b


class TestCodecRoundtrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_messages(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            msg = Message(
                tag=TAGS[int(rng.integers(0, len(TAGS)))],
                src=int(rng.integers(0, 64)),
                dst=int(rng.integers(0, 64)),
                payload=random_payload(rng),
                seq=int(rng.integers(0, 2**40)),
            )
            out = roundtrip_message(msg)
            assert out.tag is msg.tag
            assert out.src == msg.src and out.dst == msg.dst and out.seq == msg.seq
            assert_payload_equal(msg.payload, out.payload)

    def test_nan_payload(self):
        out = roundtrip_message(Message(MessageTag.STATUS, 1, 0, {"x": math.nan}, seq=1))
        assert math.isnan(out.payload["x"])

    def test_numpy_scalars_coerced(self):
        msg = Message(MessageTag.STATUS, 1, 0, {"n": np.int64(7), "x": np.float64(1.5)}, seq=0)
        out = roundtrip_message(msg)
        assert out.payload == {"n": 7, "x": 1.5}
        assert isinstance(out.payload["n"], int)

    def test_kind_key_escaping(self):
        """A user dict that shadows the codec's tag survives unscathed."""
        payload = {"__kind": "ParaNode", "v": [1, 2]}
        out = roundtrip_message(Message(MessageTag.STATUS, 1, 0, payload, seq=0))
        assert out.payload == payload
        assert isinstance(out.payload, dict)

    def test_no_aliasing(self):
        """Decoded objects share nothing with what was encoded."""
        node = ParaNode(payload={"fixed": [1, 2]}, dual_bound=3.0)
        msg = Message(MessageTag.SUBPROBLEM, 0, 1, {"node": node, "incumbent": 9.0}, seq=4)
        out = roundtrip_message(msg)
        got = out.payload["node"]
        assert got is not node and got.payload is not node.payload
        got.payload["fixed"].append(99)
        assert node.payload["fixed"] == [1, 2]

    def test_paramset_roundtrip_keeps_extras_and_infs(self):
        ps = ParamSet(time_limit=math.inf, extras={"custom": 3})
        out = roundtrip_message(Message(MessageTag.RACING_START, 0, 1, {"settings": ps}, seq=0))
        got = out.payload["settings"]
        assert isinstance(got, ParamSet)
        assert got.time_limit == math.inf and got.extras == {"custom": 3}

    def test_unencodable_payload_raises(self):
        with pytest.raises(PayloadEncodeError):
            encode_message(Message(MessageTag.STATUS, 1, 0, {"bad": object()}, seq=0))
        with pytest.raises(PayloadEncodeError):
            encode_message(Message(MessageTag.STATUS, 1, 0, {1: "non-string key"}, seq=0))


class TestCodecRejection:
    def frame(self, payload=None) -> bytes:
        return encode_message(Message(MessageTag.STATUS, 3, 0, payload or {"rank": 3}, seq=7))

    def test_truncated_frame(self):
        f = self.frame()
        with pytest.raises(TruncatedFrameError):
            decode_message(f[: len(f) // 2])
        with pytest.raises(TruncatedFrameError):
            decode_message(f[: HEADER_SIZE - 2])

    def test_flipped_crc_byte(self):
        f = bytearray(self.frame())
        f[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_message(bytes(f))

    def test_flipped_payload_byte(self):
        f = self.frame()
        pos = HEADER_SIZE + 2
        bad = f[:pos] + bytes([f[pos] ^ 0x55]) + f[pos + 1 :]
        with pytest.raises(ChecksumError):
            decode_message(bad)

    def test_bad_magic(self):
        f = self.frame()
        with pytest.raises(BadMagicError):
            decode_message(b"XX" + f[2:])

    def test_wrong_version(self):
        f = bytearray(self.frame())
        f[2] = WIRE_VERSION + 1
        # CRC re-stamped so the version check (not the checksum) fires
        import zlib

        body = bytes(f[:-4])
        with pytest.raises(UnsupportedVersionError):
            decode_message(body + struct.pack("!I", zlib.crc32(body)))

    def test_unknown_tag_code(self):
        import zlib

        f = bytearray(self.frame())
        f[3] = 250  # no MessageTag has this code
        body = bytes(f[:-4])
        with pytest.raises(UnknownTagError):
            decode_message(body + struct.pack("!I", zlib.crc32(body)))

    def test_trailing_garbage(self):
        with pytest.raises(FrameDecodeError):
            decode_message(self.frame() + b"extra")

    def test_garbage_payload_json(self):
        import zlib

        head = struct.Struct("!2sBBiiqI").pack(b"UG", WIRE_VERSION, 10, 1, 0, 0, 4)
        body = head + b"!!!!"
        with pytest.raises(PayloadDecodeError):
            decode_message(body + struct.pack("!I", zlib.crc32(body)))

    def test_corrupt_frame_helper_is_caught(self):
        for mode in ("corrupt", "truncate"):
            with pytest.raises(FrameDecodeError):
                decode_message(corrupt_frame(self.frame(), mode))


class TestSeqStamper:
    def test_per_run_sequences(self):
        a, b = SeqStamper(), SeqStamper()
        assert [a(), a(), a()] == [0, 1, 2]
        assert b() == 0  # independent of any other stamper

    def test_bare_message_still_autostamps(self):
        m1, m2 = Message(MessageTag.STATUS, 1, 0), Message(MessageTag.STATUS, 1, 0)
        assert m1.seq is not None and m2.seq is not None and m1 < m2

    def test_engines_stamp_from_their_own_counter(self):
        from tests.test_ug_engines import build

        e1, _ = build(SimEngine, n_solvers=1)
        e2, _ = build(SimEngine, n_solvers=1)
        assert e1._msg_seq() == 0
        assert e2._msg_seq() == 0  # a fresh engine run restarts its sequence


class TestLoopbackTransport:
    def test_fifo_pair(self):
        a, b = LoopbackTransport.pair()
        a.send_frame(b"one")
        a.send_frame(b"two")
        assert b.recv_frame() == b"one"
        assert b.pending() == 1
        assert b.recv_frame() == b"two"
        assert b.recv_frame() is None

    def test_closed_peer(self):
        a, b = LoopbackTransport.pair()
        b.close()
        with pytest.raises(TransportClosedError):
            a.send_frame(b"x")
        with pytest.raises(TransportClosedError):
            b.recv_frame()

    def test_buffered_frames_survive_peer_close(self):
        a, b = LoopbackTransport.pair()
        a.send_frame(b"last words")
        a.close()
        assert b.recv_frame() == b"last words"
        with pytest.raises(TransportClosedError):
            b.recv_frame()


class TestPipeTransport:
    def test_roundtrip_and_eof(self):
        import multiprocessing

        c1, c2 = multiprocessing.Pipe(duplex=True)
        a, b = PipeTransport(c1), PipeTransport(c2)
        a.send_frame(b"hello")
        assert b.recv_frame(timeout=1.0) == b"hello"
        assert b.recv_frame(timeout=0.0) is None
        a.close()
        with pytest.raises(TransportClosedError):
            b.recv_frame(timeout=0.5)


class TestTcpTransport:
    def make_pair(self, **kwargs):
        srv = tcp_listener()
        host, port = srv.getsockname()
        client = TcpTransport.connect(host, port, **kwargs)
        sock, _ = srv.accept()
        server = TcpTransport(sock, **kwargs)
        srv.close()
        return client, server

    def test_roundtrip(self):
        a, b = self.make_pair()
        try:
            a.send_frame(b"ping" * 100)
            got = None
            for _ in range(100):
                got = b.recv_frame(timeout=0.1)
                if got is not None:
                    break
            assert got == b"ping" * 100
        finally:
            a.close()
            b.close()

    def test_connect_refused_raises_after_retries(self):
        srv = tcp_listener()
        host, port = srv.getsockname()
        srv.close()  # nobody listening any more
        with pytest.raises(TransportClosedError):
            TcpTransport.connect(host, port, connect_retries=1, connect_timeout=0.2, backoff=0.01)

    def test_backpressure_bounded_queue(self):
        a, b = self.make_pair(max_outbound=2, send_timeout=0.2)
        try:
            # tiny socket buffers so the sender thread wedges quickly
            a.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            b.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            big = b"\x00" * (1 << 20)
            with pytest.raises(BackpressureError):
                for _ in range(64):  # nobody reads: queue must fill
                    a.send_frame(big)
            assert a.queue_peak >= 1
        finally:
            a.close()
            b.close()


class TestMessageChannel:
    def test_send_recv_counts(self):
        ta, tb = LoopbackTransport.pair()
        a = MessageChannel(ta, local_rank=0, remote_rank=1)
        b = MessageChannel(tb, local_rank=1, remote_rank=0)
        assert a.send(1, MessageTag.INCUMBENT, {"value": 5.0})
        msg = b.recv()
        assert msg is not None and msg.payload == {"value": 5.0} and msg.seq == 0
        assert a.frames_sent == 1 and a.bytes_sent > 0
        assert b.frames_received == 1 and b.decode_errors == 0

    def test_decode_error_degrades_to_loss(self):
        ta, tb = LoopbackTransport.pair()
        a = MessageChannel(ta, local_rank=0, remote_rank=1)
        b = MessageChannel(tb, local_rank=1, remote_rank=0)
        ta.send_frame(b"not a frame at all")
        a.send(1, MessageTag.STATUS, {"rank": 0})
        drained = b.drain()
        assert len(drained) == 1 and drained[0].tag is MessageTag.STATUS
        assert b.decode_errors == 1

    def test_send_to_dead_peer_is_blackhole(self):
        ta, tb = LoopbackTransport.pair()
        a = MessageChannel(ta, local_rank=0, remote_rank=1)
        tb.close()
        assert a.send(1, MessageTag.STATUS, None) is False


@pytest.fixture(scope="module")
def hc4():
    return hypercube_instance(4, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc5():
    # big enough that a mid-run kill actually lands while ranks are busy
    return hypercube_instance(5, perturbed=False, seed=1)


@pytest.fixture(scope="module")
def hc5_sim(hc5):
    return ug(hc5.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim",
              config=UGConfig(**STP_CFG)).run()


class TestLoopbackNetEngine:
    def test_matches_sim_objective(self, hc4):
        cfg = UGConfig(trace_enabled=True, **STP_CFG)
        sim = ug(hc4.copy(), SteinerUserPlugins(), n_solvers=3, comm="sim",
                 config=UGConfig(**STP_CFG)).run()
        res = ug(hc4.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
                 config=cfg).run()
        assert res.solved and res.objective == sim.objective
        assert res.stats.net_frames_sent > 0
        assert res.stats.net_bytes_sent > 0
        assert res.stats.net_decode_errors == 0
        check_ug_steiner_result(hc4, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()

    def test_racing_ramp_up(self, hc4):
        cfg = UGConfig(ramp_up="racing", trace_enabled=True, **STP_CFG)
        res = ug(hc4.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
                 config=cfg).run()
        assert res.solved
        check_ug_steiner_result(hc4, res).raise_if_failed()

    def test_rank_kill_detected_and_recovered(self, hc5, hc5_sim):
        """The ISSUE's acceptance scenario, fully deterministic: a rank is
        killed mid-run, the heartbeat path declares it dead, its node is
        reclaimed, and the final claim stays honest."""
        plan = FaultPlan(crashes=(SolverCrash(rank=2, at_time=0.05),))
        cfg = UGConfig(heartbeat_timeout=0.5, trace_enabled=True,
                       fault_plan=plan, **STP_CFG)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
                 config=cfg).run()
        assert res.stats.solver_failures == 1
        assert res.stats.surviving_solvers == 2
        assert res.objective == hc5_sim.objective
        # honest claim: either the node was reclaimed and re-explored
        # (still optimal) or completeness was surrendered (not solved)
        if res.solved:
            assert res.stats.nodes_reclaimed >= 1
        check_ug_steiner_result(hc5, res).raise_if_failed()
        audit_ug_run(res).raise_if_failed()
        kinds = {e.kind for e in res.trace.events()}
        assert "crash" in kinds and "solver_dead" in kinds

    def test_frame_corruption_survived(self, hc5, hc5_sim):
        """Corrupted frames degrade to message loss, which the heartbeat
        path recovers from — the run still ends with a correct tree."""
        plan = FaultPlan(frame_faults=(FrameFault(src=1, action="corrupt", count=2),))
        cfg = UGConfig(heartbeat_timeout=0.5, trace_enabled=True,
                       fault_plan=plan, **STP_CFG)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
                 config=cfg).run()
        assert res.stats.net_decode_errors >= 1
        assert res.incumbent is not None
        assert res.objective == hc5_sim.objective
        check_ug_steiner_result(hc5, res).raise_if_failed()
        kinds = {e.kind for e in res.trace.events()}
        assert "frame_fault" in kinds and "net_decode_error" in kinds

    def test_frame_drop_survived(self, hc5, hc5_sim):
        plan = FaultPlan(frame_faults=(FrameFault(src=2, action="drop", count=1),
                                       FrameFault(src=1, action="truncate", count=1)))
        cfg = UGConfig(heartbeat_timeout=0.5, trace_enabled=True,
                       fault_plan=plan, **STP_CFG)
        res = ug(hc5.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
                 config=cfg).run()
        assert res.incumbent is not None
        assert res.objective == hc5_sim.objective
        assert res.stats.faults_injected >= 2

    def test_deterministic_replay(self, hc4):
        cfg = dict(trace_enabled=True, **STP_CFG)
        runs = [
            ug(hc4.copy(), SteinerUserPlugins(), n_solvers=3, comm="loopback",
               config=UGConfig(**cfg)).run()
            for _ in range(2)
        ]
        assert runs[0].objective == runs[1].objective
        assert runs[0].stats.net_frames_sent == runs[1].stats.net_frames_sent
        assert runs[0].stats.net_bytes_sent == runs[1].stats.net_bytes_sent
        t0 = [e.to_json() for e in runs[0].trace.events()]
        t1 = [e.to_json() for e in runs[1].trace.events()]
        assert t0 == t1


class TestThreadEnginePayloadIsolation:
    def _wired(self):
        """A ThreadEngine with rank 1's wire up but no thread started:
        (engine, rank 1's endpoint, the coordinator's endpoint for rank 1)."""
        from tests.test_ug_engines import build

        engine, _ = build(ThreadEngine, n_solvers=1)
        engine._wire_loopback(1)
        return engine, engine.rank_channels[1], engine.channels[1]

    def test_delivered_payload_does_not_alias_sender(self):
        """Regression: ThreadEngine used to put the sender's Message object
        straight onto the receiver's queue, so mutating a delivered payload
        mutated the sender's dict.  Every delivery now crosses the codec."""
        _engine, rank_end, lc_end = self._wired()
        original = {"rank": 1, "inner": {"n_open": 3}, "items": [1, 2]}
        rank_end.send(0, MessageTag.STATUS, original)
        delivered = lc_end.recv()
        assert delivered.payload == original
        assert delivered.payload is not original
        delivered.payload["inner"]["n_open"] = 999
        delivered.payload["items"].append(99)
        assert original == {"rank": 1, "inner": {"n_open": 3}, "items": [1, 2]}

    def test_wire_counters_tick(self):
        engine, rank_end, lc_end = self._wired()
        rank_end.send(0, MessageTag.STATUS, {"rank": 1})
        assert lc_end.recv() is not None
        assert engine.lc.stats.net_frames_sent == 1
        assert engine.lc.stats.net_frames_received == 1
        assert engine.lc.stats.net_bytes_sent > 0

    def test_full_thread_run_over_codec(self, hc4):
        res = ug(hc4.copy(), SteinerUserPlugins(), n_solvers=2, comm="threads",
                 config=UGConfig(**STP_CFG), wall_clock_limit=120).run()
        assert res.solved
        assert res.stats.net_frames_sent > 0
        assert res.stats.net_frames_sent == res.stats.net_frames_received
        check_ug_steiner_result(hc4, res).raise_if_failed()
