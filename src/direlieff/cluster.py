"""Multi-process backend: a driver coordinating worker processes over TCP.

Workers are started first and listen on their own ports.  The driver
connects, receives a REGISTER greeting that names the worker's protocol
version, ships each worker a contiguous range of partition blocks once
(ASSIGN_PARTITIONS), then drives named stages (RUN_STAGE / STAGE_RESULT).
Stage code is never transmitted: both sides resolve stage names in the
shared registry.

Frame layout: 4-byte big-endian payload length, 1-byte type tag, payload.
Payloads past the REGISTER JSON and stage names are `wire` arrays; a
partition travels as its ids, labels and values (`encode_assignment`).
Each worker thread folds its contiguous run of partitions from one zero
(`fold_runs`); the worker combines its threads' results, and the driver
the workers', in partition order.  Error policy is fail-fast: any worker
failure aborts the whole run.
"""

from __future__ import annotations

import json
import socket
import struct
import traceback

import numpy as np

from .engine import (
    EngineConfig,
    EngineError,
    PartitionedDataset,
    fold_runs,
    split_sizes,
)
from .model import Schema
from .stages import STAGES, check_block
from .wire import pack, unpack

__all__ = [
    "MSG_REGISTER",
    "MSG_ASSIGN_PARTITIONS",
    "MSG_RUN_STAGE",
    "MSG_STAGE_RESULT",
    "MSG_ERROR",
    "MSG_SHUTDOWN",
    "PROTOCOL_VERSION",
    "ClusterError",
    "encode_assignment",
    "decode_assignment",
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

# sent in REGISTER; raise it whenever any payload's layout changes
PROTOCOL_VERSION = 2

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


def _pack_named(name: str, body: bytes) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("!i", len(raw)) + raw + body


def _unpack_named(payload: bytes):
    """(name, body) of a `_pack_named` payload; ValueError on a payload too
    short for the name length, a length outside the payload, or a name that
    is not UTF-8 (`UnicodeDecodeError` is a ValueError)."""
    if len(payload) < 4:
        raise ValueError(f"named payload of {len(payload)} bytes has no name length")
    (nlen,) = struct.unpack_from("!i", payload, 0)
    if not 0 <= nlen <= len(payload) - 4:
        raise ValueError(f"name length {nlen} outside the {len(payload) - 4} bytes after it")
    return payload[4 : 4 + nlen].decode("utf-8"), payload[4 + nlen :]


# -- worker -------------------------------------------------------------------


def encode_assignment(max_result_bytes: int, schema: Schema, parts) -> bytes:
    """ASSIGN_PARTITIONS payload: the result cap, the schema as JSON, each
    partition's global index and row count, then all partitions' ids,
    labels and values; `parts` is a list of (global index, block)."""
    return pack(
        np.array([max_result_bytes], dtype=np.int64),
        np.frombuffer(json.dumps(schema.to_dict()).encode("utf-8"), dtype=np.uint8),
        np.array([gidx for gidx, _ in parts], dtype=np.int64),
        np.array([len(block) for _, block in parts], dtype=np.int64),
        [block.ids for _, block in parts],
        [block.labels for _, block in parts],
        [block.values for _, block in parts],
    )


def decode_assignment(payload: bytes):
    """(result cap, schema, [(global index, block)]) of an ASSIGN_PARTITIONS
    payload; ValueError unless it holds one cap, a schema, partition
    indexes >= 0 in ascending order, and row counts >= 0 that add up to the
    rows."""
    cap, schema_json, gidx, nrows, ids, labels, values = unpack(
        payload, np.int64, np.uint8, np.int64, np.int64, np.int64, np.int32, np.float64
    )
    if len(cap) != 1 or len(nrows) != len(gidx) or (gidx < 0).any() or (np.diff(gidx) <= 0).any():
        raise ValueError("partition assignment needs one result cap and ascending partition indexes >= 0")
    if ((nrows < 0) | (nrows > len(ids))).any() or nrows.sum() != len(ids):
        raise ValueError("partition assignment row counts must be >= 0 and add up to the rows")
    schema = Schema.from_dict(json.loads(schema_json.tobytes()))
    block = check_block(ids, labels, values, schema)
    ends = np.cumsum(nrows).tolist()
    parts = [(g, block.slice(end - n, end)) for g, n, end in zip(gidx.tolist(), nrows.tolist(), ends)]
    return int(cap[0]), schema, parts


def _worker_run_stage(assignment, payload: bytes, threads: int) -> bytes:
    """The named stage's result on `decode_assignment`'s partitions (None: no assignment yet)."""
    name, body = _unpack_named(payload)
    stage = STAGES.get(name)
    if stage is None:
        raise ClusterError(f"unknown stage {name!r}")
    if assignment is None:
        raise ClusterError("RUN_STAGE before ASSIGN_PARTITIONS")
    max_result_bytes, schema, assigned = assignment
    params = stage.decode_params(body, schema)
    result = fold_runs(stage, schema, params, assigned, threads)
    out = stage.encode_result(result, schema)
    if len(out) > max_result_bytes:
        raise ClusterError(f"stage {name!r} result of {len(out)} bytes exceeds cap {max_result_bytes}")
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
            assignment = None
            _send(conn, MSG_REGISTER, json.dumps({"threads": threads, "protocol": PROTOCOL_VERSION}).encode("utf-8"))
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
                        assignment = decode_assignment(payload)
                        reply = _pack_named("assign", pack(np.array([sum(len(b) for _, b in assignment[2])])))
                    elif tag == MSG_RUN_STAGE:
                        reply = _worker_run_stage(assignment, payload, threads)
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
            try:
                protocol = json.loads(payload).get("protocol")
            except (ValueError, AttributeError):
                protocol = None
            if protocol != PROTOCOL_VERSION:
                self.close()
                raise ClusterError(f"worker {name}: protocol {protocol}, expected {PROTOCOL_VERSION}")

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
        except ClusterError as exc:
            self.close()
            raise ClusterError(f"worker {name}: {exc}") from exc

    def _expect_result(self, conn: socket.socket, name: str, stage_name: str) -> bytes:
        tag, payload = self._read(conn, name)
        if tag == MSG_ERROR:
            self.close()
            raise ClusterError(f"worker {name}: {payload.decode('utf-8', 'replace')}")
        if tag != MSG_STAGE_RESULT:
            self.close()
            raise ClusterError(f"worker {name}: expected STAGE_RESULT, got tag {tag}")
        try:
            echoed, body = _unpack_named(payload)
        except ValueError as exc:
            self.close()
            raise ClusterError(f"worker {name}: malformed STAGE_RESULT: {exc}") from exc
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
        self._assignment = []
        self._lens = [len(ds.partition(i)) for i in range(nparts)]
        at = 0
        for w, conn in enumerate(self._conns):
            mine = list(range(at, at + sizes[w]))
            at += sizes[w]
            self._assignment.append(mine)
            payload = encode_assignment(self.config.max_result_bytes, ds.schema, [(g, ds.partition(g)) for g in mine])
            _send(conn, MSG_ASSIGN_PARTITIONS, payload)
        for w, (conn, addr) in enumerate(zip(self._conns, self.addrs)):
            name = f"{addr[0]}:{addr[1]}"
            body = self._expect_result(conn, name, "assign")
            expected = sum(self._lens[i] for i in self._assignment[w])
            if body != pack(np.array([expected])):
                self.close()
                raise ClusterError(f"worker {name}: did not confirm storing {expected} rows")
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
        result = None
        for w in active:
            name = f"{self.addrs[w][0]}:{self.addrs[w][1]}"
            body = self._expect_result(self._conns[w], name, stage.name)
            try:
                partial = stage.decode_result(body, ds.schema, params)
            except ValueError as exc:
                self.close()
                raise ClusterError(f"worker {name}: malformed {stage.name!r} result: {exc}") from exc
            result = partial if result is None else stage.comb(result, partial)
        return result
