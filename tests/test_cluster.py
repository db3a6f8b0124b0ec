"""Wire protocol and multi-process worker runs."""

import json
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import direlieff.cluster as cluster
from direlieff.cluster import (
    MSG_ASSIGN_PARTITIONS,
    MSG_ERROR,
    MSG_REGISTER,
    MSG_RUN_STAGE,
    MSG_SHUTDOWN,
    MSG_STAGE_RESULT,
    PROTOCOL_VERSION,
    ClusterEngine,
    ClusterError,
    decode_assignment,
    encode_assignment,
    encode_frame,
    read_frame,
)
from direlieff.engine import EngineConfig, LocalEngine, PartitionedDataset
from direlieff.model import DiffConfig, DiffMode, RankConfig
from direlieff.pipeline import compute_priors, compute_ranges, rank, select_samples
from direlieff.stages import NEIGHBORS, PRIORS, RANGES, NeighborParams, check_block
from direlieff.wire import pack, unpack

from _support import random_mixed_block, read_frames, reap, spawn_worker, worker_thread


class TestFraming:
    def test_round_trip(self):
        frames, rest = read_frames(encode_frame(MSG_RUN_STAGE, b"hello"))
        assert (frames, rest) == ([(MSG_RUN_STAGE, b"hello")], b"")

    def test_empty_payload(self):
        frames, rest = read_frames(encode_frame(MSG_SHUTDOWN, b""))
        assert (frames, rest) == ([(MSG_SHUTDOWN, b"")], b"")

    def test_rest_preserved(self):
        buf = encode_frame(MSG_REGISTER, b"a") + encode_frame(MSG_ERROR, b"b")
        frames, rest = read_frames(buf)
        assert frames == [(MSG_REGISTER, b"a")]
        assert read_frames(rest)[0] == [(MSG_ERROR, b"b")]

    def test_truncated_header(self):
        with pytest.raises(ConnectionError, match="mid-frame"):
            read_frames(b"\x00\x00")

    def test_truncated_payload(self):
        frame = encode_frame(MSG_RUN_STAGE, b"abcdef")
        with pytest.raises(ConnectionError, match="mid-frame"):
            read_frames(frame[:-1])

    def test_unknown_tag_rejected_on_parse(self):
        bad = b"\x00\x00\x00\x00" + bytes([99])
        with pytest.raises(ClusterError, match="tag"):
            read_frames(bad)

    def test_result_over_limit_rejected_before_payload(self):
        head = struct.pack("!IB", 11, MSG_STAGE_RESULT)  # no payload follows
        with pytest.raises(ClusterError, match="STAGE_RESULT of 11 bytes exceeds cap 10"):
            read_frames(head, max_result=10)
        assert read_frames(encode_frame(MSG_STAGE_RESULT, b"x" * 10), max_result=10)[0] == [(MSG_STAGE_RESULT, b"x" * 10)]
        assert read_frames(encode_frame(MSG_ERROR, b"x" * 11), max_result=10)[0] == [(MSG_ERROR, b"x" * 11)]

    def test_unknown_tag_rejected_on_encode(self):
        with pytest.raises(ClusterError, match="tag"):
            encode_frame(0, b"")

    @pytest.mark.parametrize("cut", [0, 1, 1 << 19])
    def test_large_frame_over_a_socket(self, monkeypatch, cut):
        """A frame larger than the socket's buffers, and than the reader's
        first buffer (`_FIRST_READ`, made small here), arrives whole while
        it is still being sent; cut short by `cut` bytes, it fails
        mid-frame."""
        monkeypatch.setattr(cluster, "_FIRST_READ", 1000)
        payload = np.random.default_rng(0).bytes(3 << 20)
        frame = encode_frame(MSG_STAGE_RESULT, payload)
        sender, receiver = socket.socketpair()
        with sender, receiver:
            receiver.settimeout(30)

            def send():
                sender.sendall(frame[: len(frame) - cut])
                sender.shutdown(socket.SHUT_WR)

            thread = threading.Thread(target=send)
            thread.start()
            try:
                if cut:
                    with pytest.raises(ConnectionError, match="mid-frame"):
                        read_frame(receiver)
                else:
                    assert read_frame(receiver) == (MSG_STAGE_RESULT, payload)
                    assert receiver.recv(1) == b""
            finally:
                thread.join(timeout=30)

    @pytest.mark.parametrize("name, body", [("assign", b""), ("neighbors", bytes(range(256)) * 5000)],
                             ids=["empty", "1.2MiB"])
    def test_named_frame(self, name, body):
        """The worker's one-copy reply frame is the frame of the named
        payload, and the body comes back as a read-only view."""
        frame = cluster._named_frame(MSG_STAGE_RESULT, name, body)
        assert frame == encode_frame(MSG_STAGE_RESULT, cluster._pack_named(name, body))
        got_name, got_body = cluster._unpack_named(bytearray(frame[5:]))
        assert (got_name, got_body) == (name, body)
        assert isinstance(got_body, memoryview) and got_body.readonly

    def test_named_frame_over_frame_limit(self, monkeypatch):
        monkeypatch.setattr(cluster, "_MAX_FRAME_PAYLOAD", 100)
        assert len(cluster._named_frame(MSG_STAGE_RESULT, "x", b"\x00" * 95)) == 5 + 100
        with pytest.raises(ClusterError, match="101 bytes exceeds the 4-byte frame limit"):
            cluster._named_frame(MSG_STAGE_RESULT, "x", b"\x00" * 96)

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(range(1, 7)),
        payload=st.binary(max_size=2048),
        trailer=st.binary(max_size=64),
    )
    def test_round_trip_property(self, tag, payload, trailer):
        frame = encode_frame(tag, payload)
        [(got_tag, got_payload)], rest = read_frames(frame + trailer)
        assert got_tag == tag
        assert got_payload == payload
        assert rest == trailer
        assert encode_frame(got_tag, got_payload) == frame


class TestBlockWire:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, a = int(rng.integers(1, 20)), int(rng.integers(1, 8))
        schema, block = random_mixed_block(rng, n, a, 0, 2)
        buf = pack(block.ids, block.labels, block.values)
        assert len(buf) == 3 * 8 + n * (8 + 4 + 8 * a)
        out = check_block(*unpack(buf, np.int64, np.int32, np.float64), schema)
        assert np.array_equal(out.ids, block.ids)
        assert np.array_equal(out.labels, block.labels)
        # bit pattern comparison: NaNs and signed zeros must survive too
        assert np.array_equal(
            out.values.view(np.uint64), block.values.view(np.uint64)
        )


@pytest.fixture
def mixed_dataset():
    rng = np.random.default_rng(7)
    schema, block = random_mixed_block(rng, 60, 4, 2, 3)
    blocks = [block.slice(0, 25), block.slice(25, 40), block.slice(40, 60)]
    return PartitionedDataset.from_blocks(blocks, schema=schema)


class TestClusterRuns:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_stages_match_local(self, mixed_dataset, num_workers):
        local = LocalEngine()
        procs, addrs = [], []
        for _ in range(num_workers):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            with ClusterEngine(addrs) as eng:
                schema = mixed_dataset.schema
                for stage in (RANGES, PRIORS):
                    remote = eng.run_stage(mixed_dataset, stage, None)
                    want = local.run_stage(mixed_dataset, stage, None)
                    assert stage.encode_result(remote, schema) == stage.encode_result(
                        want, schema
                    )
                eng.shutdown()
        finally:
            codes = reap(procs)
        assert codes == [0] * num_workers

    def test_rank_matches_local_bit_exact(self, mixed_dataset):
        cfg = RankConfig(m=12, k=3, seed=5, diff=DiffConfig(DiffMode.RAMP))
        want = rank(mixed_dataset, cfg, engine=LocalEngine())
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            with ClusterEngine(addrs) as eng:
                got = rank(mixed_dataset, cfg, engine=eng)
                eng.shutdown()
        finally:
            codes = reap(procs)
        assert codes == [0, 0]
        assert np.array_equal(
            got.weights.values.view(np.uint64), want.weights.values.view(np.uint64)
        )
        assert np.array_equal(got.ranking, want.ranking)

    def test_partition_lens_and_helpers(self, mixed_dataset):
        assert mixed_dataset.partition_lens() == [25, 15, 20]
        proc, addr = spawn_worker()
        try:
            with ClusterEngine([addr]) as eng:
                ranges = compute_ranges(mixed_dataset, eng)
                priors = compute_priors(mixed_dataset, eng)
                eng.shutdown()
        finally:
            (code,) = reap([proc])
        assert code == 0
        local = LocalEngine()
        assert np.array_equal(
            ranges.mins, compute_ranges(mixed_dataset, local).mins, equal_nan=True
        )
        assert np.array_equal(priors.counts, compute_priors(mixed_dataset, local).counts)

    def test_worker_death_names_address(self, mixed_dataset):
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        victim = f"{addrs[1][0]}:{addrs[1][1]}"
        try:
            with ClusterEngine(addrs) as eng:
                procs[1].kill()
                procs[1].wait()
                with pytest.raises(ClusterError, match=victim):
                    eng.run_stage(mixed_dataset, RANGES, None)
        finally:
            reap(procs)

    def test_oversized_result_rejected(self, mixed_dataset):
        proc, addr = spawn_worker()
        try:
            with ClusterEngine([addr], EngineConfig(max_result_bytes=4)) as eng:
                with pytest.raises(ClusterError, match="exceeds"):
                    eng.run_stage(mixed_dataset, RANGES, None)
        finally:
            (code,) = reap([proc])
        # the driver aborts the run; the worker notices the drop and exits 1
        assert code == 1

    def test_result_over_frame_limit_reported(self, mixed_dataset, monkeypatch):
        # the neighbour result of m=60, k=10 is about 115 kB, the other
        # messages of this run are under 10 kB
        monkeypatch.setattr(cluster, "_MAX_FRAME_PAYLOAD", 10_000)
        with worker_thread() as (host, port):
            eng = ClusterEngine([(host, port)], timeout=30.0)
            with pytest.raises(ClusterError, match=f"worker {host}:{port}: .*exceeds the 4-byte frame limit"):
                rank(mixed_dataset, RankConfig(m=60, k=10, seed=1), engine=eng)
            assert eng._conns == []  # the driver hung up, which ends the session

    @pytest.mark.parametrize("mangle", [lambda b: b[:10], lambda b: b[:-1], lambda b: bytes(b) + b"\x00"])
    def test_malformed_result_names_worker(self, mixed_dataset, mangle):
        class Mangled:
            """The neighbour stage as the worker runs it; its result bytes
            are damaged on arrival at the driver."""

            def __getattr__(self, attr):
                return getattr(NEIGHBORS, attr)

            def decode_result(self, buf, schema, params):
                return NEIGHBORS.decode_result(mangle(buf), schema, params)

        proc, addr = spawn_worker()
        try:
            with ClusterEngine([addr]) as eng:
                ranges = compute_ranges(mixed_dataset, eng)
                samples = select_samples(mixed_dataset, eng, 4, 1)
                params = NeighborParams(samples, 3, ranges, DiffConfig())
                with pytest.raises(ClusterError, match=f"worker {addr[0]}:{addr[1]}: malformed"):
                    eng.run_stage(mixed_dataset, Mangled(), params)
        finally:
            (code,) = reap([proc])
        assert code == 1  # the driver dropped the connection

    def test_connect_refused(self):
        eng = ClusterEngine([("127.0.0.1", 1)], timeout=2.0)
        with pytest.raises(ClusterError):
            eng.connect()


def fake_worker(hello: dict, replies=()):
    """A listening socket that greets one driver with REGISTER `hello`,
    answers each frame it reads next with one raw frame of `replies`, then
    records what it reads next (b"" once the driver closes)."""
    srv = socket.create_server(("127.0.0.1", 0))
    seen = []

    def serve():
        conn, _ = srv.accept()
        with conn:
            conn.sendall(encode_frame(MSG_REGISTER, json.dumps(hello).encode("utf-8")))
            for reply in replies:
                read_frame(conn)
                conn.sendall(reply)
            seen.append(conn.recv(1))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return srv, thread, seen


class TestHandshake:
    @pytest.mark.parametrize("protocol", [None, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1])
    def test_other_protocol_version_rejected(self, protocol):
        hello = {} if protocol is None else {"protocol": protocol}
        srv, thread, seen = fake_worker(hello)
        host, port = srv.getsockname()[:2]
        try:
            eng = ClusterEngine([(host, port)], timeout=10.0)
            want = f"worker {host}:{port}: protocol {protocol}, expected {PROTOCOL_VERSION}"
            with pytest.raises(ClusterError, match=want):
                eng.connect()
            thread.join(timeout=10.0)
        finally:
            srv.close()
        assert not thread.is_alive()
        assert seen == [b""]  # the driver closed the connection
        assert eng._conns == []


# STAGE_RESULT payloads whose stage name cannot be read: too short for the
# name length, a negative length, a length past the payload, and a name
# that is not UTF-8
BAD_NAMED = [b"\x00\x01", b"\xff\xff\xff\xff", b"\x00\x00\x00\x09ranges", b"\x00\x00\x00\x02\xff\xfe"]
BAD_NAMED_IDS = ["short", "negative", "overrun", "not-utf8"]
# a frame of unknown tag 99
UNKNOWN_TAG = b"\x00\x00\x00\x00\x63"


class TestDriverReplies:
    """A worker reply the driver cannot read ends in a ClusterError naming
    the worker, and the driver hangs up."""

    def assert_rejected(self, ds, replies, match, config=None):
        srv, thread, seen = fake_worker({"protocol": PROTOCOL_VERSION}, replies)
        host, port = srv.getsockname()[:2]
        try:
            eng = ClusterEngine([(host, port)], config, timeout=10.0)
            with pytest.raises(ClusterError, match=f"worker {host}:{port}: {match}"):
                eng.run_stage(ds, RANGES, None)
            thread.join(timeout=10.0)
        finally:
            srv.close()
        assert not thread.is_alive()
        assert seen == [b""]  # the driver closed the connection
        assert eng._conns == []

    @pytest.mark.parametrize("payload", BAD_NAMED, ids=BAD_NAMED_IDS)
    def test_malformed_assignment_reply(self, mixed_dataset, payload):
        self.assert_rejected(mixed_dataset, [encode_frame(MSG_STAGE_RESULT, payload)], "malformed STAGE_RESULT")

    @pytest.mark.parametrize("payload", BAD_NAMED, ids=BAD_NAMED_IDS)
    def test_malformed_stage_result(self, mixed_dataset, payload):
        stored = cluster._pack_named("assign", pack(np.array([60])))
        replies = [encode_frame(MSG_STAGE_RESULT, stored), encode_frame(MSG_STAGE_RESULT, payload)]
        self.assert_rejected(mixed_dataset, replies, "malformed STAGE_RESULT")

    def test_unknown_tag(self, mixed_dataset):
        self.assert_rejected(mixed_dataset, [UNKNOWN_TAG], "unknown message tag 99")

    def test_result_over_cap_rejected_before_payload(self, mixed_dataset):
        stored = cluster._pack_named("assign", pack(np.array([60])))
        head = struct.pack("!IB", 1 << 20, MSG_STAGE_RESULT)  # the payload never follows
        t0 = time.perf_counter()
        replies = [encode_frame(MSG_STAGE_RESULT, stored), head]
        cap = EngineConfig(max_result_bytes=1000)
        self.assert_rejected(mixed_dataset, replies, "STAGE_RESULT of 1048576 bytes exceeds cap 1000", cap)
        assert time.perf_counter() - t0 < 5.0  # well inside the driver's 10 s timeout


def test_announced_length_is_not_committed(mixed_dataset):
    """A STAGE_RESULT header that announces 1 GiB, under the default cap,
    then a few bytes and a hang-up, is a ClusterError; the driver's buffer
    commits no more than `_FIRST_READ` (traced allocations), not 1 GiB.
    The worker reads ASSIGN frames with the same reader."""
    srv = socket.create_server(("127.0.0.1", 0))
    stored = cluster._pack_named("assign", pack(np.array([60])))

    def serve():
        conn, _ = srv.accept()
        with conn:
            conn.sendall(encode_frame(MSG_REGISTER, json.dumps({"protocol": PROTOCOL_VERSION}).encode("utf-8")))
            read_frame(conn)
            conn.sendall(encode_frame(MSG_STAGE_RESULT, stored))
            read_frame(conn)
            conn.sendall(struct.pack("!IB", 1 << 30, MSG_STAGE_RESULT) + b"abc")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = srv.getsockname()[:2]
    tracemalloc.start()
    try:
        with pytest.raises(ClusterError, match=f"worker {host}:{port}: connection lost: connection closed mid-frame"):
            ClusterEngine([(host, port)], timeout=10.0).run_stage(mixed_dataset, RANGES, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        thread.join(timeout=10.0)
        srv.close()
    assert peak < 96 << 20  # a 64 MiB first read and the rest of the run


class TestWorkerProcess:
    def test_malformed_frame_exits_nonzero(self):
        import socket as socketlib

        proc, (host, port) = spawn_worker()
        try:
            conn = socketlib.create_connection((host, port), timeout=10)
            tag, _ = __import__("direlieff.cluster", fromlist=["read_frame"]).read_frame(conn)
            assert tag == MSG_REGISTER
            conn.sendall(b"\x00\x00\x00\x00\x63")  # unknown tag 99
            reply_tag, payload = __import__(
                "direlieff.cluster", fromlist=["read_frame"]
            ).read_frame(conn)
            assert reply_tag == MSG_ERROR
            assert b"tag" in payload
            conn.close()
        finally:
            (code,) = reap([proc])
        assert code == 1

    def test_stage_before_assignment_reports_error(self):
        from direlieff.cluster import read_frame

        import socket as socketlib

        proc, (host, port) = spawn_worker()
        try:
            conn = socketlib.create_connection((host, port), timeout=10)
            assert read_frame(conn)[0] == MSG_REGISTER
            conn.sendall(encode_frame(MSG_RUN_STAGE, b"\x00\x00\x00\x06rangesx"))
            reply_tag, payload = read_frame(conn)
            assert reply_tag == MSG_ERROR
            assert b"RUN_STAGE before ASSIGN_PARTITIONS" in payload
            conn.sendall(encode_frame(MSG_SHUTDOWN, b""))
            conn.close()
        finally:
            (code,) = reap([proc])
        assert code == 0

    def test_truncated_assignment_reports_error(self, mixed_dataset):
        proc, (host, port) = spawn_worker()
        parts = [(i, mixed_dataset.partition(i)) for i in range(mixed_dataset.num_partitions)]
        payload = encode_assignment(mixed_dataset.schema, parts)
        try:
            conn = socket.create_connection((host, port), timeout=10)
            assert read_frame(conn)[0] == MSG_REGISTER
            conn.sendall(encode_frame(MSG_ASSIGN_PARTITIONS, payload[:-3]))
            reply_tag, detail = read_frame(conn)
            assert reply_tag == MSG_ERROR
            assert b"ValueError" in detail
            # the connection is still served: the whole payload is stored
            conn.sendall(encode_frame(MSG_ASSIGN_PARTITIONS, payload))
            reply_tag, reply = read_frame(conn)
            assert reply_tag == MSG_STAGE_RESULT
            assert reply.endswith(pack(np.array([sum(len(block) for _, block in parts)])))
            conn.sendall(encode_frame(MSG_SHUTDOWN, b""))
            conn.close()
        finally:
            (code,) = reap([proc])
        assert code == 0


def assignment_with_schema(ds, schema_json: bytes) -> bytes:
    """`ds`'s whole ASSIGN_PARTITIONS payload with the schema bytes replaced."""
    parts = [(i, ds.partition(i)) for i in range(ds.num_partitions)]
    arrays = unpack(encode_assignment(ds.schema, parts), np.uint8, np.int64, np.int64, np.int64, np.int32, np.float64)
    arrays[0] = np.frombuffer(schema_json, dtype=np.uint8)
    return pack(*arrays)


NOT_SCHEMAS = [
    b"{}",
    b"[1]",
    json.dumps({"features": [{"name": "f0", "kind": "numeric"}], "class_labels": []}).encode(),
]


class TestAssignmentSchema:
    """Schema JSON that parses but is not a schema is a ValueError on the
    worker, an ERROR reply, and a ClusterError on the driver."""

    @pytest.mark.parametrize("schema_json", NOT_SCHEMAS)
    def test_decoder_raises_value_error(self, mixed_dataset, schema_json):
        with pytest.raises(ValueError):
            decode_assignment(assignment_with_schema(mixed_dataset, schema_json))

    @pytest.mark.parametrize("schema_json", NOT_SCHEMAS)
    def test_worker_reports_and_driver_raises(self, mixed_dataset, schema_json, monkeypatch):
        monkeypatch.setattr(cluster, "encode_assignment", lambda *_: assignment_with_schema(mixed_dataset, schema_json))
        with worker_thread() as (host, port):
            eng = ClusterEngine([(host, port)], timeout=30.0)
            with pytest.raises(ClusterError, match=f"worker {host}:{port}: .*ModelError"):
                eng.distribute(mixed_dataset)
            assert eng._conns == []  # the driver hung up, which ends the session
