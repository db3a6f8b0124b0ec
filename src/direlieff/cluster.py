"""Multi-process backend: a driver coordinating worker processes over TCP.

Workers are started first and listen on their own ports.  The driver
connects, receives a REGISTER greeting that names the worker's protocol
version, ships each worker a contiguous range of partition blocks once
(ASSIGN_PARTITIONS), then drives named stages (RUN_STAGE / STAGE_RESULT).
Stage code is never transmitted: both sides resolve stage names in the
shared registry.

Frame layout: 4-byte big-endian payload length, 1-byte type tag, payload.
REGISTER is the JSON object {"protocol": PROTOCOL_VERSION}, here 3.  Past
it and the stage names, payloads are `wire` arrays.  ASSIGN_PARTITIONS
holds the schema as JSON, each partition's global index and row count,
then the partitions' ids, labels and values (`encode_assignment`).  A
worker runs a stage in up to `--threads` processes, itself and forked
children, each folding a contiguous run of partitions from one zero
(`fold_runs`); the worker combines its processes' results, and the driver
the workers', in partition order.  The driver enforces
`EngineConfig.max_result_bytes`: it reads a STAGE_RESULT header and
rejects a result over the cap before it reads the payload.  Error policy
is fail-fast: any worker failure aborts the whole run.
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
PROTOCOL_VERSION = 3

_KNOWN_TAGS = frozenset(
    (MSG_REGISTER, MSG_ASSIGN_PARTITIONS, MSG_RUN_STAGE, MSG_STAGE_RESULT, MSG_ERROR, MSG_SHUTDOWN)
)

_FRAME_HEAD = struct.Struct("!IB")
_MAX_FRAME_PAYLOAD = 2**32 - 1


class ClusterError(EngineError):
    """A protocol violation or worker failure; the run is aborted."""


# -- framing ----------------------------------------------------------------


def _frame_head(tag: int, length: int) -> bytes:
    if tag not in _KNOWN_TAGS:
        raise ClusterError(f"unknown message tag {tag}")
    if length > _MAX_FRAME_PAYLOAD:
        raise ClusterError(f"payload of {length} bytes exceeds the 4-byte frame limit")
    return _FRAME_HEAD.pack(length, tag)


def encode_frame(tag: int, payload: bytes) -> bytes:
    return _frame_head(tag, len(payload)) + payload


def _recvall(conn: socket.socket, n: int) -> bytearray:
    """The next `n` bytes on `conn`, received straight into one buffer."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        size = conn.recv_into(view[got:])
        if not size:
            raise ConnectionError("connection closed mid-frame")
        got += size
    return buf


def read_frame(conn: socket.socket, max_result: int = _MAX_FRAME_PAYLOAD):
    """(tag, payload) of the next frame on `conn`, the payload a bytearray.
    ClusterError, before any of the payload is read, on an unknown tag or a
    STAGE_RESULT payload longer than `max_result` bytes; ConnectionError if
    the peer hangs up inside the frame."""
    length, tag = _FRAME_HEAD.unpack(_recvall(conn, _FRAME_HEAD.size))
    if tag not in _KNOWN_TAGS:
        raise ClusterError(f"unknown message tag {tag}")
    if tag == MSG_STAGE_RESULT and length > max_result:
        raise ClusterError(f"STAGE_RESULT of {length} bytes exceeds cap {max_result}")
    return tag, _recvall(conn, length)


def _send(conn: socket.socket, tag: int, payload: bytes = b"") -> None:
    conn.sendall(encode_frame(tag, payload))


def _pack_named(name: str, body: bytes) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("!i", len(raw)) + raw + body


def _named_frame(tag: int, name: str, body: bytes) -> bytes:
    """`encode_frame(tag, _pack_named(name, body))`, which copies `body`
    once here rather than twice."""
    raw = name.encode("utf-8")
    head = _frame_head(tag, 4 + len(raw) + len(body))
    return b"".join((head, struct.pack("!i", len(raw)), raw, body))


def _unpack_named(payload):
    """(name, body) of a `_pack_named` payload, the body a read-only view
    of `payload`; ValueError on a payload too short for the name length, a
    length outside the payload, or a name that is not UTF-8
    (`UnicodeDecodeError` is a ValueError)."""
    if len(payload) < 4:
        raise ValueError(f"named payload of {len(payload)} bytes has no name length")
    (nlen,) = struct.unpack_from("!i", payload, 0)
    if not 0 <= nlen <= len(payload) - 4:
        raise ValueError(f"name length {nlen} outside the {len(payload) - 4} bytes after it")
    return payload[4 : 4 + nlen].decode("utf-8"), memoryview(payload).toreadonly()[4 + nlen :]


# -- worker -------------------------------------------------------------------


def encode_assignment(schema: Schema, parts) -> bytes:
    """ASSIGN_PARTITIONS payload: the schema as JSON, each partition's
    global index and row count, then all partitions' ids, labels and
    values; `parts` is a list of (global index, block)."""
    return pack(
        np.frombuffer(json.dumps(schema.to_dict()).encode("utf-8"), dtype=np.uint8),
        np.array([gidx for gidx, _ in parts], dtype=np.int64),
        np.array([len(block) for _, block in parts], dtype=np.int64),
        [block.ids for _, block in parts],
        [block.labels for _, block in parts],
        [block.values for _, block in parts],
    )


def decode_assignment(payload: bytes):
    """(schema, [(global index, block)]) of an ASSIGN_PARTITIONS payload;
    ValueError unless it holds a schema, partition indexes >= 0 in
    ascending order, and row counts >= 0 that add up to the rows."""
    schema_json, gidx, nrows, ids, labels, values = unpack(
        payload, np.uint8, np.int64, np.int64, np.int64, np.int32, np.float64
    )
    if len(nrows) != len(gidx) or (gidx < 0).any() or (np.diff(gidx) <= 0).any():
        raise ValueError("partition assignment needs one row count per partition, indexes >= 0 ascending")
    if ((nrows < 0) | (nrows > len(ids))).any() or nrows.sum() != len(ids):
        raise ValueError("partition assignment row counts must be >= 0 and add up to the rows")
    schema = Schema.from_dict(json.loads(schema_json.tobytes()))
    block = check_block(ids, labels, values, schema)
    ends = np.cumsum(nrows).tolist()
    parts = [(g, block.slice(end - n, end)) for g, n, end in zip(gidx.tolist(), nrows.tolist(), ends)]
    return schema, parts


def _worker_run_stage(assignment, payload, threads: int):
    """(name, encoded result) of the named stage on `decode_assignment`'s
    partitions (None: no assignment yet)."""
    name, body = _unpack_named(payload)
    stage = STAGES.get(name)
    if stage is None:
        raise ClusterError(f"unknown stage {name!r}")
    if assignment is None:
        raise ClusterError("RUN_STAGE before ASSIGN_PARTITIONS")
    schema, assigned = assignment
    params = stage.decode_params(body, schema)
    result = fold_runs(stage, schema, params, assigned, threads)
    return name, stage.encode_result(result, schema)


def serve_worker(host: str, port: int, threads: int = 1, *, on_listen=None) -> int:
    """Run one worker session; returns a process exit code.

    Listens, serves a single driver connection until SHUTDOWN (exit 0) or
    connection loss / protocol violation (exit 1).  A request that fails,
    its reply's frame included, is answered with ERROR.  `on_listen` is
    called with the bound (host, port) once the socket is ready, which
    supports ephemeral ports.
    """
    with socket.create_server((host, port)) as srv:
        if on_listen is not None:
            on_listen(srv.getsockname()[0], srv.getsockname()[1])
        conn, peer = srv.accept()
        with conn:
            assignment = None
            _send(conn, MSG_REGISTER, json.dumps({"protocol": PROTOCOL_VERSION}).encode("utf-8"))
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
                        name, body = "assign", pack(np.array([sum(len(b) for _, b in assignment[1])]))
                    elif tag == MSG_RUN_STAGE:
                        name, body = _worker_run_stage(assignment, payload, threads)
                    else:
                        raise ClusterError(f"unexpected message tag {tag} on worker")
                    frame = _named_frame(MSG_STAGE_RESULT, name, body)
                except Exception as exc:
                    detail = "".join(traceback.format_exception_only(exc)).strip()
                    frame = encode_frame(MSG_ERROR, detail.encode("utf-8"))
                try:
                    conn.sendall(frame)
                except OSError:  # the driver hung up
                    return 1


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
        for conn in self._conns:
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

    def _read(self, conn: socket.socket, name: str, cap: int = _MAX_FRAME_PAYLOAD):
        try:
            return read_frame(conn, cap)
        except (ConnectionError, OSError) as exc:
            self.close()
            raise ClusterError(f"worker {name}: connection lost: {exc}") from exc
        except ClusterError as exc:
            self.close()
            raise ClusterError(f"worker {name}: {exc}") from exc

    def _expect_result(self, conn: socket.socket, name: str, stage_name: str, cap: int = _MAX_FRAME_PAYLOAD):
        tag, payload = self._read(conn, name, cap)
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
        self.connect()
        bounds = np.cumsum([0, *split_sizes(ds.num_partitions, len(self.addrs))]).tolist()
        self._assignment = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        for conn, mine in zip(self._conns, self._assignment):
            _send(conn, MSG_ASSIGN_PARTITIONS, encode_assignment(ds.schema, [(g, ds.partition(g)) for g in mine]))
        for conn, addr, mine in zip(self._conns, self.addrs, self._assignment):
            name = f"{addr[0]}:{addr[1]}"
            body = self._expect_result(conn, name, "assign")
            expected = sum(len(ds.partition(g)) for g in mine)
            if body != pack(np.array([expected])):
                self.close()
                raise ClusterError(f"worker {name}: did not confirm storing {expected} rows")
        self._current = ds

    # -- stage interface (mirrors LocalEngine)

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
            body = self._expect_result(self._conns[w], name, stage.name, self.config.max_result_bytes)
            try:
                partial = stage.decode_result(body, ds.schema, params)
            except ValueError as exc:
                self.close()
                raise ClusterError(f"worker {name}: malformed {stage.name!r} result: {exc}") from exc
            result = partial if result is None else stage.comb(result, partial)
        return result
