"""Wire protocol and multi-process worker runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direlieff.cluster import (
    MSG_ERROR,
    MSG_REGISTER,
    MSG_RUN_STAGE,
    MSG_SHUTDOWN,
    ClusterEngine,
    ClusterError,
    encode_frame,
    pack_block,
    parse_frame,
    unpack_block,
)
from direlieff.engine import EngineConfig, LocalEngine, PartitionedDataset
from direlieff.model import DiffConfig, DiffMode, InstanceBlock, RankConfig
from direlieff.pipeline import compute_priors, compute_ranges, rank, select_samples
from direlieff.stages import COUNT, NEIGHBORS, PRIORS, RANGES, NeighborParams

from _support import random_mixed_block, reap, spawn_worker


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame(MSG_RUN_STAGE, b"hello")
        tag, payload, rest = parse_frame(frame)
        assert (tag, payload, rest) == (MSG_RUN_STAGE, b"hello", b"")

    def test_empty_payload(self):
        tag, payload, rest = parse_frame(encode_frame(MSG_SHUTDOWN, b""))
        assert (tag, payload, rest) == (MSG_SHUTDOWN, b"", b"")

    def test_rest_preserved(self):
        buf = encode_frame(MSG_REGISTER, b"a") + encode_frame(MSG_ERROR, b"b")
        tag, payload, rest = parse_frame(buf)
        assert (tag, payload) == (MSG_REGISTER, b"a")
        assert parse_frame(rest)[:2] == (MSG_ERROR, b"b")

    def test_truncated_header(self):
        with pytest.raises(ClusterError, match="truncated"):
            parse_frame(b"\x00\x00")

    def test_truncated_payload(self):
        frame = encode_frame(MSG_RUN_STAGE, b"abcdef")
        with pytest.raises(ClusterError, match="truncated"):
            parse_frame(frame[:-1])

    def test_unknown_tag_rejected_on_parse(self):
        bad = b"\x00\x00\x00\x00" + bytes([99])
        with pytest.raises(ClusterError, match="tag"):
            parse_frame(bad)

    def test_unknown_tag_rejected_on_encode(self):
        with pytest.raises(ClusterError, match="tag"):
            encode_frame(0, b"")

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(range(1, 7)),
        payload=st.binary(max_size=2048),
        trailer=st.binary(max_size=64),
    )
    def test_round_trip_property(self, tag, payload, trailer):
        frame = encode_frame(tag, payload)
        got_tag, got_payload, rest = parse_frame(frame + trailer)
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
        _, block = random_mixed_block(rng, n, a, 0, 2)
        buf = pack_block(block, a)
        assert len(buf) == n * (8 + 4 + 8 * a)
        out, offset = unpack_block(buf, 0, n, a)
        assert offset == len(buf)
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
                assert eng.count(mixed_dataset) == local.count(mixed_dataset)
                schema = mixed_dataset.schema
                for stage in (COUNT, RANGES, PRIORS):
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
        proc, addr = spawn_worker()
        try:
            with ClusterEngine([addr]) as eng:
                assert eng.partition_lens(mixed_dataset) == [25, 15, 20]
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

    @pytest.mark.parametrize("mangle", [lambda b: b[:10], lambda b: b[:-1], lambda b: b + b"\x00"])
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
                samples = InstanceBlock.from_instances(select_samples(mixed_dataset, eng, 4, 1))
                params = NeighborParams.build(mixed_dataset.schema, samples, 3, ranges, DiffConfig())
                with pytest.raises(ClusterError, match=f"worker {addr[0]}:{addr[1]}: malformed"):
                    eng.run_stage(mixed_dataset, Mangled(), params)
        finally:
            (code,) = reap([proc])
        assert code == 1  # the driver dropped the connection

    def test_connect_refused(self):
        eng = ClusterEngine([("127.0.0.1", 1)], timeout=2.0)
        with pytest.raises(ClusterError):
            eng.connect()


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
            conn.sendall(encode_frame(MSG_RUN_STAGE, b"\x00\x00\x00\x05countx"))
            reply_tag, _ = read_frame(conn)
            assert reply_tag == MSG_ERROR
            conn.sendall(encode_frame(MSG_SHUTDOWN, b""))
            conn.close()
        finally:
            (code,) = reap([proc])
        assert code == 0
