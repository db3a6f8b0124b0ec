"""Multi-process backend: a driver coordinating worker processes over TCP.

Workers are started first and listen on their own ports.  The driver
connects, receives a REGISTER greeting, ships each worker a contiguous
range of partition blocks once (ASSIGN_PARTITIONS), then drives named
stages (RUN_STAGE / STAGE_RESULT).  Stage code is never transmitted: both
sides resolve stage names in the shared registry.

Frame layout: 4-byte big-endian payload length, 1-byte type tag, payload.
Instances travel as fixed-width rows: id (8 bytes), class id (4 bytes),
one 8-byte IEEE-754 value per feature, all big-endian.  Error policy is
fail-fast: any worker failure aborts the whole run.
"""

from __future__ import annotations

import functools
import json
import socket
import struct
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .engine import DEFAULT_MAX_RESULT_BYTES, EngineConfig, EngineError, PartitionedDataset, split_sizes
from .model import InstanceBlock, Schema
from .stages import STAGES

__all__ = [
    "MSG_REGISTER",
    "MSG_ASSIGN_PARTITIONS",
    "MSG_RUN_STAGE",
    "MSG_STAGE_RESULT",
    "MSG_ERROR",
    "MSG_SHUTDOWN",
    "ClusterError",
    "encode_frame",
    "parse_frame",
    "read_frame",
    "serve_worker",
    "ClusterEngine",
]

MSG_REGISTER = 1
MSG_ASSIGN_PARTITIONS = 2
MSG_RUN_STAGE = 3
MSG_STAGE_RESULT = 4
MSG_ERROR = 5
MSG_SHUTDOWN = 6

_KNOWN_TAGS = frozenset(
    (MSG_REGISTER, MSG_ASSIGN_PARTITIONS, MSG_RUN_STAGE, MSG_STAGE_RESULT, MSG_ERROR, MSG_SHUTDOWN)
)

_FRAME_HEAD = struct.Struct("!IB")
_MAX_FRAME_PAYLOAD = 2**32 - 1


class ClusterError(EngineError):
    """A protocol violation or worker failure; the run is aborted."""


# -- framing ----------------------------------------------------------------


def encode_frame(tag: int, payload: bytes) -> bytes:
    if tag not in _KNOWN_TAGS:
        raise ClusterError(f"unknown message tag {tag}")
    if len(payload) > _MAX_FRAME_PAYLOAD:
        raise ClusterError(f"payload of {len(payload)} bytes exceeds the 4-byte frame limit")
    return _FRAME_HEAD.pack(len(payload), tag) + payload


def parse_frame(buf: bytes):
    """Split one frame off the front of `buf`; returns (tag, payload, rest)."""
    if len(buf) < _FRAME_HEAD.size:
        raise ClusterError("truncated frame header")
    length, tag = _FRAME_HEAD.unpack_from(buf, 0)
    end = _FRAME_HEAD.size + length
    if len(buf) < end:
        raise ClusterError("truncated frame payload")
    if tag not in _KNOWN_TAGS:
        raise ClusterError(f"unknown message tag {tag}")
    return tag, buf[_FRAME_HEAD.size : end], buf[end:]


def _recvall(conn: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = conn.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(conn: socket.socket):
    head = _recvall(conn, _FRAME_HEAD.size)
    length, tag = _FRAME_HEAD.unpack(head)
    if tag not in _KNOWN_TAGS:
        raise ClusterError(f"unknown message tag {tag}")
    payload = _recvall(conn, length) if length else b""
    return tag, payload


def _send(conn: socket.socket, tag: int, payload: bytes = b"") -> None:
    conn.sendall(encode_frame(tag, payload))


# -- instance block wire format ----------------------------------------------


def _row_dtype(num_features: int) -> np.dtype:
    return np.dtype([("id", ">i8"), ("label", ">i4"), ("values", ">f8", (num_features,))])


def pack_block(block: InstanceBlock, num_features: int) -> bytes:
    rows = np.empty(len(block), dtype=_row_dtype(num_features))
    rows["id"] = block.ids
    rows["label"] = block.labels
    rows["values"] = block.values
    return rows.tobytes()


def unpack_block(buf: bytes, offset: int, nrows: int, num_features: int):
    dt = _row_dtype(num_features)
    rows = np.frombuffer(buf, dtype=dt, count=nrows, offset=offset)
    block = InstanceBlock(
        rows["id"].astype(np.int64),
        rows["label"].astype(np.int32),
        rows["values"].astype(np.float64),
    )
    return block, offset + nrows * dt.itemsize


def _pack_named(name: str, body: bytes) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("!i", len(raw)) + raw + body


def _unpack_named(payload: bytes):
    (nlen,) = struct.unpack_from("!i", payload, 0)
    name = payload[4 : 4 + nlen].decode("utf-8")
    return name, payload[4 + nlen :]


# -- worker -------------------------------------------------------------------


class _WorkerState:
    def __init__(self):
        self.schema: Schema | None = None
        self.assigned: list = []  # (global partition index, InstanceBlock)
        self.max_result_bytes = DEFAULT_MAX_RESULT_BYTES


def _worker_assign(state: _WorkerState, payload: bytes) -> bytes:
    (state.max_result_bytes,) = struct.unpack_from("!q", payload, 0)
    at = 8
    (slen,) = struct.unpack_from("!i", payload, at)
    at += 4
    state.schema = Schema.from_dict(json.loads(payload[at : at + slen].decode("utf-8")))
    at += slen
    (nparts,) = struct.unpack_from("!i", payload, at)
    at += 4
    a = state.schema.num_features
    state.assigned = []
    total = 0
    for _ in range(nparts):
        gidx, nrows = struct.unpack_from("!ii", payload, at)
        at += 8
        block, at = unpack_block(payload, at, nrows, a)
        state.assigned.append((gidx, block))
        total += nrows
    state.assigned.sort(key=lambda t: t[0])
    return _pack_named("assign", struct.pack("!q", total))


def _worker_run_stage(state: _WorkerState, payload: bytes, threads: int) -> bytes:
    name, body = _unpack_named(payload)
    stage = STAGES.get(name)
    if stage is None:
        raise ClusterError(f"unknown stage {name!r}")
    if state.schema is None:
        raise ClusterError("RUN_STAGE before ASSIGN_PARTITIONS")
    schema = state.schema
    params = stage.decode_params(body, schema)

    def job(item):
        gidx, block = item
        return stage.run_block(stage.make_zero(schema, params), block, params, schema, gidx)

    if threads > 1 and len(state.assigned) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(job, state.assigned))
    else:
        partials = [job(item) for item in state.assigned]
    if not partials:
        result = stage.make_zero(schema, params)
    else:
        result = functools.reduce(stage.comb, partials)
    out = stage.encode_result(result, schema)
    if len(out) > state.max_result_bytes:
        raise ClusterError(
            f"stage {name!r} result of {len(out)} bytes exceeds cap {state.max_result_bytes}"
        )
    return _pack_named(name, out)


def serve_worker(host: str, port: int, threads: int = 1, *, on_listen=None) -> int:
    """Run one worker session; returns a process exit code.

    Listens, serves a single driver connection until SHUTDOWN (exit 0) or
    connection loss / protocol violation (exit 1).  `on_listen` is called
    with the bound (host, port) once the socket is ready, which supports
    ephemeral ports.
    """
    with socket.create_server((host, port)) as srv:
        if on_listen is not None:
            on_listen(srv.getsockname()[0], srv.getsockname()[1])
        conn, peer = srv.accept()
        with conn:
            state = _WorkerState()
            _send(conn, MSG_REGISTER, json.dumps({"threads": threads}).encode("utf-8"))
            while True:
                try:
                    tag, payload = read_frame(conn)
                except ConnectionError:
                    return 1
                except ClusterError as exc:
                    # malformed frame: report, then drop the connection
                    try:
                        _send(conn, MSG_ERROR, str(exc).encode("utf-8"))
                    except OSError:
                        pass
                    return 1
                if tag == MSG_SHUTDOWN:
                    return 0
                try:
                    if tag == MSG_ASSIGN_PARTITIONS:
                        reply = _worker_assign(state, payload)
                    elif tag == MSG_RUN_STAGE:
                        reply = _worker_run_stage(state, payload, threads)
                    else:
                        raise ClusterError(f"unexpected message tag {tag} on worker")
                except Exception as exc:
                    detail = "".join(traceback.format_exception_only(exc)).strip()
                    _send(conn, MSG_ERROR, detail.encode("utf-8"))
                    continue
                _send(conn, MSG_STAGE_RESULT, reply)


# -- driver --------------------------------------------------------------------


class ClusterEngine:
    """Driver-side backend with the same stage interface as the local engine.

    Partition blocks are pushed to workers once per dataset; subsequent
    stages ship only parameters.  Per-worker partials are combined on the
    driver in ascending partition order, so results match the local backend
    bit for bit.
    """

    def __init__(self, worker_addrs, config: EngineConfig | None = None, timeout: float = 120.0):
        if not worker_addrs:
            raise ClusterError("need at least one worker address")
        self.addrs = [tuple(addr) for addr in worker_addrs]
        self.config = config or EngineConfig()
        self.timeout = timeout
        self._conns: list[socket.socket] = []
        self._current: PartitionedDataset | None = None
        self._assignment: list[list[int]] = []
        self._lens: list[int] = []

    # -- connection management

    def connect(self) -> None:
        if self._conns:
            return
        for host, port in self.addrs:
            name = f"{host}:{port}"
            try:
                conn = socket.create_connection((host, port), timeout=self.timeout)
            except OSError as exc:
                self.close()
                raise ClusterError(f"worker {name}: connect failed: {exc}") from exc
            conn.settimeout(self.timeout)
            self._conns.append(conn)
            tag, payload = self._read(conn, name)
            if tag != MSG_REGISTER:
                self.close()
                raise ClusterError(f"worker {name}: expected REGISTER, got tag {tag}")

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        self._current = None

    def shutdown(self) -> None:
        for conn, addr in zip(self._conns, self.addrs):
            try:
                _send(conn, MSG_SHUTDOWN)
            except OSError:
                pass
        self.close()

    def __enter__(self) -> "ClusterEngine":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _read(self, conn: socket.socket, name: str):
        try:
            return read_frame(conn)
        except (ConnectionError, OSError) as exc:
            self.close()
            raise ClusterError(f"worker {name}: connection lost: {exc}") from exc

    def _expect_result(self, conn: socket.socket, name: str, stage_name: str) -> bytes:
        tag, payload = self._read(conn, name)
        if tag == MSG_ERROR:
            self.close()
            raise ClusterError(f"worker {name}: {payload.decode('utf-8', 'replace')}")
        if tag != MSG_STAGE_RESULT:
            self.close()
            raise ClusterError(f"worker {name}: expected STAGE_RESULT, got tag {tag}")
        echoed, body = _unpack_named(payload)
        if echoed != stage_name:
            self.close()
            raise ClusterError(f"worker {name}: result for {echoed!r}, expected {stage_name!r}")
        return body

    # -- dataset distribution

    def distribute(self, ds: PartitionedDataset) -> None:
        if ds.schema is None:
            raise ClusterError("cluster execution needs a dataset with a schema")
        self.connect()
        nparts = ds.num_partitions
        sizes = split_sizes(nparts, len(self.addrs))
        a = ds.schema.num_features
        schema_json = json.dumps(ds.schema.to_dict()).encode("utf-8")
        self._assignment = []
        self._lens = [ds.partition_len(i) for i in range(nparts)]
        at = 0
        for w, (conn, addr) in enumerate(zip(self._conns, self.addrs)):
            mine = list(range(at, at + sizes[w]))
            at += sizes[w]
            self._assignment.append(mine)
            parts = [
                struct.pack("!q", self.config.max_result_bytes),
                struct.pack("!i", len(schema_json)),
                schema_json,
                struct.pack("!i", len(mine)),
            ]
            for gidx in mine:
                block = ds.partition(gidx)
                if not isinstance(block, InstanceBlock):
                    block = InstanceBlock.from_instances(block)
                parts.append(struct.pack("!ii", gidx, len(block)))
                parts.append(pack_block(block, a))
            _send(conn, MSG_ASSIGN_PARTITIONS, b"".join(parts))
        for w, (conn, addr) in enumerate(zip(self._conns, self.addrs)):
            name = f"{addr[0]}:{addr[1]}"
            body = self._expect_result(conn, name, "assign")
            (stored,) = struct.unpack("!q", body)
            expected = sum(self._lens[i] for i in self._assignment[w])
            if stored != expected:
                self.close()
                raise ClusterError(f"worker {name}: stored {stored} rows, expected {expected}")
        self._current = ds

    # -- stage interface (mirrors LocalEngine)

    def partition_lens(self, ds: PartitionedDataset) -> list[int]:
        if self._current is not ds:
            self.distribute(ds)
        return list(self._lens)

    def run_stage(self, ds: PartitionedDataset, stage, params):
        if self._current is not ds:
            self.distribute(ds)
        payload = encode_frame(MSG_RUN_STAGE, _pack_named(stage.name, stage.encode_params(params, ds.schema)))
        active = [w for w in range(len(self._conns)) if self._assignment[w]]
        for w in active:
            try:
                self._conns[w].sendall(payload)
            except OSError as exc:
                name = f"{self.addrs[w][0]}:{self.addrs[w][1]}"
                self.close()
                raise ClusterError(f"worker {name}: send failed: {exc}") from exc
        partials = []
        for w in active:
            name = f"{self.addrs[w][0]}:{self.addrs[w][1]}"
            body = self._expect_result(self._conns[w], name, stage.name)
            try:
                partials.append(stage.decode_result(body, ds.schema, params))
            except (struct.error, ValueError) as exc:
                self.close()
                raise ClusterError(f"worker {name}: malformed {stage.name!r} result: {exc}") from exc
        return functools.reduce(stage.comb, partials)

    def count(self, ds: PartitionedDataset) -> int:
        from .stages import COUNT

        return self.run_stage(ds, COUNT, None)
