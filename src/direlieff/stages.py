"""Named computation stages shared by the local and cluster backends.

A stage bundles the per-partition fold over one `InstanceBlock`
(`run_block`), the driver-side combiner, and exact byte codecs for its
parameters and result.  Backends only ever refer to stages by name, so
nothing callable crosses the wire.

All codecs are big-endian and value-exact: float64 payloads are raw IEEE-754
bytes, never decimal strings, so a result decodes to the identical bits on
any host.  Instance rows have one wire format, `pack_block` /
`unpack_block`, used both to ship partitions to cluster workers and to
return fetched samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import DiffConfig, DiffMode, FeatureRange, InstanceBlock, Schema
from .neighbors import NeighborMatrix

__all__ = [
    "Stage",
    "FetchParams",
    "NeighborParams",
    "RANGES",
    "PRIORS",
    "FETCH",
    "NEIGHBORS",
    "STAGES",
    "pack_block",
    "unpack_block",
]

_I32 = struct.Struct("!i")
# rows that `_fold_rows` folds into one wide row
_FOLD_ROWS = 16


def _pack_f64(arr: np.ndarray) -> bytes:
    return np.asarray(arr, dtype=np.float64).astype(">f8").tobytes()


def _unpack_f64(buf: bytes, at: int, count: int):
    out = np.frombuffer(buf, dtype=">f8", count=count, offset=at).astype(np.float64)
    return out, at + 8 * count


def _row_dtype(num_features: int) -> np.dtype:
    return np.dtype([("id", ">i8"), ("label", ">i4"), ("values", ">f8", (num_features,))])


def pack_block(block: InstanceBlock) -> bytes:
    """Fixed-width rows: id (8 bytes), class id (4 bytes), one 8-byte
    IEEE-754 value per feature, all big-endian."""
    rows = np.empty(len(block), dtype=_row_dtype(block.values.shape[1]))
    rows["id"] = block.ids
    rows["label"] = block.labels
    rows["values"] = block.values
    return rows.tobytes()


def unpack_block(buf: bytes, offset: int, nrows: int, num_features: int):
    """(block, offset past its rows) of `nrows` rows packed at `offset`."""
    if nrows < 0:
        raise ValueError(f"negative row count {nrows}")
    dt = _row_dtype(num_features)
    rows = np.frombuffer(buf, dtype=dt, count=nrows, offset=offset)
    block = InstanceBlock(
        rows["id"].astype(np.int64),
        rows["label"].astype(np.int32),
        rows["values"].astype(np.float64),
    )
    return block, offset + nrows * dt.itemsize


class Stage:
    """Base stage: subclasses set `name` and override the hooks."""

    name = ""

    def make_zero(self, schema: Schema, params):
        raise NotImplementedError

    def run_block(self, acc, block: InstanceBlock, params, schema: Schema, partition_index: int):
        raise NotImplementedError

    def comb(self, a, b):
        raise NotImplementedError

    def encode_params(self, params, schema: Schema) -> bytes:
        return b""

    def decode_params(self, buf: bytes, schema: Schema):
        return None

    def encode_result(self, result, schema: Schema) -> bytes:
        raise NotImplementedError

    def decode_result(self, buf: bytes, schema: Schema, params):
        raise NotImplementedError


def _fold_rows(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(values, axis=0)` for a non-empty (rows, a) block.

    A reduction over rows loops along one row at a time, and a row of a
    few features is too short a loop; so the leading rows are first folded
    `_FOLD_ROWS` at a time as single (`_FOLD_ROWS` * a)-wide rows.  Min and
    max never round, so the result equals the row-by-row one under `==`;
    only the sign of a zero can differ where a column holds both -0.0 and
    0.0, which no range width and no distance can see.
    """
    p, a = values.shape
    head = p - p % _FOLD_ROWS
    if not head:
        return ufunc.reduce(values, axis=0)
    wide = ufunc.reduce(values[:head].reshape(head // _FOLD_ROWS, _FOLD_ROWS * a), axis=0)
    out = ufunc.reduce(wide.reshape(_FOLD_ROWS, a), axis=0)
    return ufunc(out, ufunc.reduce(values[head:], axis=0), out=out) if head < p else out


class RangesStage(Stage):
    """Per-feature (min, max) fold; exact because min/max never round."""

    name = "ranges"

    def make_zero(self, schema, params):
        a = schema.num_features
        return (np.full(a, np.inf), np.full(a, -np.inf))

    def run_block(self, acc, block, params, schema, partition_index):
        if len(block) == 0:
            return acc
        return (
            np.minimum(acc[0], _fold_rows(np.minimum, block.values)),
            np.maximum(acc[1], _fold_rows(np.maximum, block.values)),
        )

    def comb(self, a, b):
        return (np.minimum(a[0], b[0]), np.maximum(a[1], b[1]))

    def encode_result(self, result, schema):
        return _pack_f64(result[0]) + _pack_f64(result[1])

    def decode_result(self, buf, schema, params):
        a = schema.num_features
        mins, at = _unpack_f64(buf, 0, a)
        maxs, _ = _unpack_f64(buf, at, a)
        return (mins, maxs)


class PriorsStage(Stage):
    """Class occurrence counts; integer addition, hence exact."""

    name = "priors"

    def make_zero(self, schema, params):
        return np.zeros(schema.num_classes, dtype=np.int64)

    def run_block(self, acc, block, params, schema, partition_index):
        return acc + np.bincount(block.labels, minlength=schema.num_classes)

    def comb(self, a, b):
        return a + b

    def encode_result(self, result, schema):
        return np.asarray(result, dtype=np.int64).astype(">i8").tobytes()

    def decode_result(self, buf, schema, params):
        return np.frombuffer(buf, dtype=">i8").astype(np.int64)


@dataclass(frozen=True)
class FetchParams:
    """Rows to pull: picks[p] lists the offsets, ascending, of the wanted
    rows inside partition p."""

    picks: dict


class FetchStage(Stage):
    """Collects specific rows by position into one block, in partition
    order and, within a partition, in the order of its picks."""

    name = "fetch"

    def make_zero(self, schema, params):
        return InstanceBlock(np.empty(0), np.empty(0), np.empty((0, schema.num_features)))

    def run_block(self, acc, block, params, schema, partition_index):
        return self.comb(acc, block.take(params.picks.get(partition_index, [])))

    def comb(self, a, b):
        return InstanceBlock.concat([a, b])

    def encode_params(self, params, schema):
        parts = [_I32.pack(len(params.picks))]
        for pidx in sorted(params.picks):
            offsets = params.picks[pidx]
            parts.append(struct.pack("!ii", pidx, len(offsets)))
            parts.append(np.asarray(offsets, dtype=">i4").tobytes())
        return b"".join(parts)

    def decode_params(self, buf, schema):
        (nparts,) = _I32.unpack_from(buf, 0)
        at = _I32.size
        picks: dict = {}
        for _ in range(nparts):
            pidx, count = struct.unpack_from("!ii", buf, at)
            at += 8
            picks[pidx] = np.frombuffer(buf, dtype=">i4", count=count, offset=at).tolist()
            at += 4 * count
        return FetchParams(picks=picks)

    def encode_result(self, result, schema):
        return _I32.pack(len(result)) + pack_block(result)

    def decode_result(self, buf, schema, params):
        (count,) = _I32.unpack_from(buf, 0)
        block, at = unpack_block(buf, _I32.size, count, schema.num_features)
        if at != len(buf):
            raise ValueError(f"{len(buf) - at} trailing bytes after fetched rows")
        return block


@dataclass(frozen=True)
class NeighborParams:
    samples: InstanceBlock
    k: int
    ranges: FeatureRange
    cfg: DiffConfig
    numeric_mask: np.ndarray

    @classmethod
    def build(cls, schema: Schema, samples: InstanceBlock, k: int, ranges, cfg) -> "NeighborParams":
        return cls(samples=samples, k=k, ranges=ranges, cfg=cfg, numeric_mask=schema.numeric_mask())


class NeighborsStage(Stage):
    """Fills the per-(class, sample) nearest-neighbour matrix."""

    name = "neighbors"

    def make_zero(self, schema, params):
        return NeighborMatrix(schema.num_classes, params.samples.ids, params.k, schema.num_features)

    def run_block(self, acc, block, params, schema, partition_index):
        acc.offer_block(block, params.samples.values, params.numeric_mask, params.ranges, params.cfg)
        return acc

    def comb(self, a, b):
        return a.merge(b)

    def encode_params(self, params, schema):
        mode = 1 if params.cfg.numeric_mode is DiffMode.RAMP else 0
        head = struct.pack("!iiidd", params.k, mode, len(params.samples), params.cfg.t_eq, params.cfg.t_diff)
        s = params.samples
        return b"".join(
            [
                head,
                s.ids.astype(">i8").tobytes(),
                s.labels.astype(">i4").tobytes(),
                _pack_f64(s.values),
                _pack_f64(params.ranges.mins),
                _pack_f64(params.ranges.maxs),
            ]
        )

    def decode_params(self, buf, schema):
        k, mode, m, t_eq, t_diff = struct.unpack_from("!iiidd", buf, 0)
        at = struct.calcsize("!iiidd")
        a = schema.num_features
        ids = np.frombuffer(buf, dtype=">i8", count=m, offset=at).astype(np.int64)
        at += 8 * m
        labels = np.frombuffer(buf, dtype=">i4", count=m, offset=at).astype(np.int32)
        at += 4 * m
        flat, at = _unpack_f64(buf, at, m * a)
        values = flat.reshape(m, a)
        mins, at = _unpack_f64(buf, at, a)
        maxs, _ = _unpack_f64(buf, at, a)
        mask = schema.numeric_mask()
        cfg = DiffConfig(
            numeric_mode=DiffMode.RAMP if mode else DiffMode.LINEAR, t_eq=t_eq, t_diff=t_diff
        )
        return NeighborParams(
            samples=InstanceBlock(ids, labels, values),
            k=k,
            ranges=FeatureRange(mins, maxs, mask),
            cfg=cfg,
            numeric_mask=mask,
        )

    def encode_result(self, result, schema):
        return result.encode()

    def decode_result(self, buf, schema, params):
        return NeighborMatrix.decode(buf, params.samples.ids, schema.num_classes, params.k, schema.num_features)


RANGES = RangesStage()
PRIORS = PriorsStage()
FETCH = FetchStage()
NEIGHBORS = NeighborsStage()

STAGES: dict[str, Stage] = {s.name: s for s in (RANGES, PRIORS, FETCH, NEIGHBORS)}
