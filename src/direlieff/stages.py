"""Named computation stages shared by the local and cluster backends.

A stage bundles the fold of one `InstanceBlock` partition into an
accumulator (`run_block`), the combiner of two accumulators, and codecs
for its parameters and result.  Backends only ever refer to stages by
name, so nothing callable crosses the wire.

Every codec writes its message with `wire.pack` and reads it back with one
`wire.unpack` call, then checks what its stage relies on, so a malformed
message raises `ValueError` and nothing else.  Instances travel as three
arrays, ids, labels and flat values; `check_block` turns them back into an
`InstanceBlock` for the fetched rows, the neighbour samples and the
cluster's partition assignment alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DiffConfig, DiffMode, FeatureRange, InstanceBlock, Schema
from .neighbors import NeighborMatrix
from .wire import pack, unpack

__all__ = [
    "Stage",
    "FetchParams",
    "NeighborParams",
    "RANGES",
    "PRIORS",
    "FETCH",
    "NEIGHBORS",
    "STAGES",
    "check_block",
]

# rows that `_fold_rows` folds into one wide row.  Wider rows make longer
# inner loops: min plus max over a 250k x 20 block took 3.4-4.2 ms at 64
# against 4.1-7.4 ms at 16 (numpy 2.4, 2 vCPUs), with equal results.
_FOLD_ROWS = 64


def check_block(ids: np.ndarray, labels: np.ndarray, values: np.ndarray, schema: Schema) -> InstanceBlock:
    """The block of decoded ids, labels and flat values: ValueError unless
    they make one row of `schema.num_features` values per id, every label
    is in [0, num_classes) and every value is finite."""
    n, a = len(ids), schema.num_features
    if len(labels) != n or len(values) != n * a:
        raise ValueError(f"{n} ids, {len(labels)} labels and {len(values)} values are not rows of {a} features")
    if n and (labels.min() < 0 or labels.max() >= schema.num_classes):
        raise ValueError(f"class label outside [0, {schema.num_classes})")
    return InstanceBlock(ids, labels, values.reshape(n, a))


class Stage:
    """Base stage: subclasses set `name` and override the hooks.
    `engine.fold_runs` folds a stage's runs on threads, or in forked
    processes where it sets `forks` and `os.fork` exists.  A fold of a few
    long numpy calls per block, which release the GIL, does not fork: a
    fork, its exit and its reaping take 2-5 ms in a process holding
    1M x 20 rows (2 vCPUs)."""

    name = ""
    forks = False

    def make_zero(self, schema: Schema, params):
        raise NotImplementedError

    def run_block(self, acc, block: InstanceBlock, params, schema: Schema, partition_index: int):
        """`acc` with partition `partition_index`'s `block` folded in; may
        update `acc` in place.  A backend calls it once per partition: each
        process's contiguous run of partitions, in ascending order, from one
        `make_zero`.  So folding a run from one zero must give what folding
        each partition from a fresh zero and combining with `comb` in
        partition order gives."""
        raise NotImplementedError

    def comb(self, a, b):
        raise NotImplementedError

    def encode_params(self, params, schema: Schema) -> bytes:
        return pack()

    def decode_params(self, buf: bytes, schema: Schema):
        unpack(buf)
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
        return pack(*result)

    def decode_result(self, buf, schema, params):
        mins, maxs = unpack(buf, np.float64, np.float64)
        a = schema.num_features
        if len(mins) != a or len(maxs) != a or np.isnan(mins).any() or np.isnan(maxs).any():
            raise ValueError(f"ranges need {a} mins and {a} maxs, none NaN")
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
        return pack(np.asarray(result, dtype=np.int64))

    def decode_result(self, buf, schema, params):
        (counts,) = unpack(buf, np.int64)
        if len(counts) != schema.num_classes or (counts < 0).any():
            raise ValueError(f"priors need {schema.num_classes} class counts, none negative")
        return counts


@dataclass(frozen=True)
class FetchParams:
    """Rows to pull: their global positions, ascending, and the position
    one past each partition's last row."""

    positions: np.ndarray
    ends: np.ndarray


class FetchStage(Stage):
    """Collects specific rows by global position into one block, in
    ascending position order."""

    name = "fetch"

    def make_zero(self, schema, params):
        return InstanceBlock(np.empty(0), np.empty(0), np.empty((0, schema.num_features)))

    def run_block(self, acc, block, params, schema, partition_index):
        """ValueError if the partition's length is not its span in `ends`."""
        span = np.concatenate(([0], params.ends))[partition_index : partition_index + 2]
        if len(span) != 2 or span[1] - span[0] != len(block):
            raise ValueError(f"partition {partition_index} of {len(block)} rows is not spanned by the fetch ends")
        lo, hi = np.searchsorted(params.positions, span)
        return self.comb(acc, block.take(params.positions[lo:hi] - span[0]))

    def comb(self, a, b):
        return InstanceBlock.concat([a, b])

    def encode_params(self, params, schema):
        return pack(np.asarray(params.positions, dtype=np.int64), np.asarray(params.ends, dtype=np.int64))

    def decode_params(self, buf, schema):
        positions, ends = unpack(buf, np.int64, np.int64)
        if (np.diff(positions) <= 0).any() or (np.diff(ends) < 0).any() or (len(ends) and ends[0] < 0):
            raise ValueError("fetch positions must ascend strictly, and partition ends ascend from >= 0")
        if len(positions) and (positions[0] < 0 or not len(ends) or positions[-1] >= ends[-1]):
            raise ValueError("fetch positions must lie in [0, the last partition end)")
        return FetchParams(positions, ends)

    def encode_result(self, result, schema):
        return pack(result.ids, result.labels, result.values)

    def decode_result(self, buf, schema, params):
        return check_block(*unpack(buf, np.int64, np.int32, np.float64), schema)


@dataclass(frozen=True)
class NeighborParams:
    samples: InstanceBlock
    k: int
    ranges: FeatureRange
    cfg: DiffConfig


class NeighborsStage(Stage):
    """Fills the per-(class, sample) nearest-neighbour matrix.  Its runs
    fork: the pass makes many short numpy calls, and two threads would hand
    the GIL to each other at every one (README, on `--workers`)."""

    name = "neighbors"
    forks = True

    def make_zero(self, schema, params):
        return NeighborMatrix(schema.num_classes, params.samples.ids, params.k, schema.num_features)

    def run_block(self, acc, block, params, schema, partition_index):
        acc.offer_block(block, params.samples.values, schema.numeric_mask(), params.ranges, params.cfg)
        return acc

    def comb(self, a, b):
        return a.merge(b)

    def encode_params(self, params, schema):
        s, cfg = params.samples, params.cfg
        return pack(
            np.array([params.k, cfg.numeric_mode is DiffMode.RAMP], dtype=np.int64),
            np.array([cfg.t_eq, cfg.t_diff]),
            s.ids,
            s.labels,
            s.values,
            params.ranges.mins,
            params.ranges.maxs,
        )

    def decode_params(self, buf, schema):
        f8, i8 = np.float64, np.int64
        head, thresholds, ids, labels, values, mins, maxs = unpack(buf, i8, f8, i8, np.int32, f8, f8, f8)
        if len(head) != 2 or head[0] < 1 or head[1] not in (0, 1) or len(thresholds) != 2:
            raise ValueError("neighbour params need k >= 1, a mode flag of 0 or 1 and two thresholds")
        mask = schema.numeric_mask()
        # ModelError (a ValueError) on a length other than a, a width beyond
        # the largest float64 or bad thresholds
        ranges = FeatureRange(mins, maxs, mask, [f.name for f in schema.features])
        if np.isnan(ranges.mins[mask]).any() or np.isnan(ranges.maxs[mask]).any():
            raise ValueError("neighbour params have a NaN numeric range")
        cfg = DiffConfig(DiffMode.RAMP if head[1] else DiffMode.LINEAR, *thresholds.tolist())
        return NeighborParams(check_block(ids, labels, values, schema), int(head[0]), ranges, cfg)

    def encode_result(self, result, schema):
        return result.encode()

    def decode_result(self, buf, schema, params):
        return NeighborMatrix.decode(buf, params.samples.ids, schema.num_classes, params.k, schema.num_features)


RANGES = RangesStage()
PRIORS = PriorsStage()
FETCH = FetchStage()
NEIGHBORS = NeighborsStage()

STAGES: dict[str, Stage] = {s.name: s for s in (RANGES, PRIORS, FETCH, NEIGHBORS)}
