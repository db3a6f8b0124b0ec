"""A minimal partitioned engine for `InstanceBlock` datasets.

A dataset is a schema plus an ordered list of `InstanceBlock` partitions.
The engine has one action, `run_stage`: a named stage folds each partition
from a fresh zero, and the partials are combined on the driver in partition
order, so a commutative and associative combiner yields a result
independent of how the work was scheduled.  Partitions are processed by a
fixed pool of worker threads.
"""

from __future__ import annotations

import functools
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .model import InstanceBlock

__all__ = [
    "EngineConfig",
    "EngineError",
    "EmptyDatasetError",
    "ResultSizeError",
    "PartitionedDataset",
    "LocalEngine",
    "split_sizes",
    "draw_sample_positions",
    "fold_in_order",
]

DEFAULT_MAX_RESULT_BYTES = 6 * 2**30


class EngineError(RuntimeError):
    pass


class EmptyDatasetError(EngineError):
    """An action that needs at least one element saw none."""


class ResultSizeError(EngineError):
    """A driver-bound result exceeded the configured byte cap."""


@dataclass(frozen=True)
class EngineConfig:
    workers: int = 1
    max_result_bytes: int = DEFAULT_MAX_RESULT_BYTES

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def split_sizes(n: int, parts: int) -> list[int]:
    """Near-equal contiguous split; the remainder goes to the earliest parts."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def draw_sample_positions(n: int, m: int, seed: int) -> list[int]:
    """m distinct positions in [0, n), uniform without replacement.

    A partial Fisher-Yates shuffle over the virtual array 0..n-1, driven by
    the stdlib RNG.  Depends only on (n, m, seed), never on partitioning,
    which makes sampling reproducible across backends and partition counts.
    """
    if not (1 <= m <= n):
        raise EngineError(f"sample size {m} outside [1, {n}]")
    rng = random.Random(seed)
    moved: dict[int, int] = {}
    out = []
    for i in range(m):
        j = rng.randrange(i, n)
        vi = moved.get(i, i)
        vj = moved.get(j, j)
        out.append(vj)
        moved[j] = vi
        moved[i] = vj
    return out


def fold_in_order(job, items, threads: int, comb):
    """`comb`-fold of `job(item)` over `items`, left to right.

    With more than one thread the jobs run on a pool; each result is folded
    in as soon as it and every earlier one are done, so at most the
    finished-but-unfolded results are held, not all of them.
    """
    if threads == 1 or len(items) <= 1:
        return functools.reduce(comb, map(job, items))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return functools.reduce(comb, pool.map(job, items))


class PartitionedDataset:
    """Read-only dataset: a schema and ordered `InstanceBlock` partitions."""

    def __init__(self, blocks, schema=None):
        blocks = list(blocks)
        if len(blocks) < 1:
            raise ValueError("need at least one partition")
        width = schema.num_features if schema is not None else None
        for i, block in enumerate(blocks):
            if not isinstance(block, InstanceBlock):
                raise EngineError(f"partition {i} is a {type(block).__name__}, not an InstanceBlock")
            width = block.values.shape[1] if width is None else width
            if block.values.shape[1] != width:
                raise EngineError(
                    f"partition {i} has {block.values.shape[1]} features, expected {width}"
                )
        self._blocks = blocks
        self.schema = schema

    @classmethod
    def from_blocks(cls, blocks, schema=None) -> "PartitionedDataset":
        return cls(blocks, schema)

    @classmethod
    def split(cls, block: InstanceBlock, parts: int, schema=None) -> "PartitionedDataset":
        """`block` cut into `parts` contiguous near-equal partitions."""
        blocks, at = [], 0
        for size in split_sizes(len(block), parts):
            blocks.append(block.slice(at, at + size))
            at += size
        return cls(blocks, schema)

    @property
    def num_partitions(self) -> int:
        return len(self._blocks)

    def partition(self, i: int) -> InstanceBlock:
        return self._blocks[i]

    def repartitioned(self, parts: int) -> "PartitionedDataset":
        """Same rows, contiguously re-split into `parts` partitions."""
        return PartitionedDataset.split(InstanceBlock.concat(self._blocks), parts, self.schema)


class LocalEngine:
    """Runs stages over a dataset's partitions with a thread pool.

    Per-partition results are combined sequentially on the driver in
    partition order.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()

    def partition_lens(self, ds: PartitionedDataset) -> list[int]:
        return [len(ds.partition(i)) for i in range(ds.num_partitions)]

    def run_stage(self, ds: PartitionedDataset, stage, params):
        """Run a registered stage: per-partition `run_block` from a fresh
        zero, then the stage combiner in partition order.  The encoded
        result is checked against the byte cap."""
        schema = ds.schema

        def job(i):
            acc = stage.make_zero(schema, params)
            return stage.run_block(acc, ds.partition(i), params, schema, i)

        result = fold_in_order(job, range(ds.num_partitions), self.config.workers, stage.comb)
        nbytes = len(stage.encode_result(result, schema))
        if nbytes > self.config.max_result_bytes:
            raise ResultSizeError(
                f"stage {stage.name!r} result of {nbytes} bytes exceeds cap {self.config.max_result_bytes}"
            )
        return result
