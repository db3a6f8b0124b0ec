"""A minimal partitioned engine for `InstanceBlock` datasets.

A dataset is a schema plus an ordered list of `InstanceBlock` partitions.
The engine has one action, `run_stage`: the partitions are cut into one
contiguous run per worker, each run is folded from one zero, the first by
the caller and each other on a pool thread or, for a stage that `forks`,
in a forked child that pickles its result back, and the runs' results are
combined on the driver in partition order (`fold_runs`).  A stage whose
fold and combiner are exact and associative, as every registered stage's
are, yields a result independent of the worker count and of how the rows
are partitioned.
"""

from __future__ import annotations

import functools
import os
import pickle
import random
import signal
from dataclasses import dataclass

import numpy as np

from .model import InstanceBlock, Schema

__all__ = [
    "EngineConfig",
    "EngineError",
    "EmptyDatasetError",
    "PartitionedDataset",
    "LocalEngine",
    "split_sizes",
    "draw_sample_positions",
    "fold_runs",
]

DEFAULT_MAX_RESULT_BYTES = 6 * 2**30


class EngineError(RuntimeError):
    pass


class EmptyDatasetError(EngineError):
    """An action that needs at least one element saw none."""


@dataclass(frozen=True)
class EngineConfig:
    """`workers` is the most runs a stage is cut into, each folded on a
    thread or, for a stage that `forks`, in a process of its own;
    `fold_runs` cuts no more runs than the caller has cores.
    `max_result_bytes` is the cluster driver's cap on each worker's
    STAGE_RESULT payload for a stage, whose stage name adds 4 + len(name)
    bytes; `LocalEngine` ignores it, since a local result is never
    encoded."""

    workers: int = 1
    max_result_bytes: int = DEFAULT_MAX_RESULT_BYTES

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def available_cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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


def fold_runs(stage, schema, params, parts, workers: int):
    """`stage` folded over `parts`, (partition index, block) pairs in
    ascending index order, in at most `workers` runs, and in no more runs
    than this process has cores (`available_cores`), which more runs would
    only take turns on.

    The parts are cut into that many contiguous runs, at most one per part
    (`split_sizes`).  Each run is folded in order into one `make_zero` with
    `run_block`, and the runs' results are combined with `comb` in order;
    no parts gives the zero.  For every registered stage this equals
    folding each partition from a fresh zero and combining in partition
    order: ranges and priors are exact, fetched rows concatenate in order,
    and the neighbour order is total.  One accumulator per run spares the
    neighbour stage a merge per partition and, once its cells are full, the
    k-th cut.

    The caller folds the first run.  A stage that does not set `forks`,
    and every stage where `os.fork` does not exist, folds each other run on
    a thread of a pool with one thread per other run; the results are taken
    in run order once the caller's run is folded, and the first exception
    in run order is raised once every thread has ended.  Otherwise each
    other run is folded by a child forked for it (`_fork_run`), which
    shares the blocks copy-on-write and pickles its result into a pipe
    (`_receive`).  A child's exception is raised here with its type and
    message.  A child that ends without a whole reply, as one whose result
    cannot be pickled does, or a failure of the caller's own run, is an
    EngineError or that failure once every child is killed and reaped: no
    child outlives the call.
    """
    runs, at = [], 0
    for size in split_sizes(len(parts), max(1, min(workers, available_cores(), len(parts)))):
        runs.append(parts[at : at + size])
        at += size

    def fold(run):
        acc = stage.make_zero(schema, params)
        for index, block in run:
            acc = stage.run_block(acc, block, params, schema, index)
        return acc

    if len(runs) == 1:
        return fold(runs[0])
    if not stage.forks or not hasattr(os, "fork"):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(len(runs) - 1) as pool:
            futures = [pool.submit(fold, run) for run in runs[1:]]
            return functools.reduce(stage.comb, [fold(runs[0]), *(future.result() for future in futures)])
    children = []  # (pid, read end) of the children not yet reaped, in run order
    try:
        for run in runs[1:]:
            children.append(_fork_run(fold, run, [fd for _, fd in children]))
        result = fold(runs[0])
        for number, run in enumerate(runs[1:], start=2):
            reply = _receive(children[0][1])
            status = _reap(children.pop(0), kill=False)
            if reply is None:
                where = f"partitions {run[0][0]}-{run[-1][0]}"
                raise EngineError(f"run {number} of {len(runs)} ({where}) ended without a result: {_ending(status)}")
            done, value = reply
            if not done:
                raise value
            result = stage.comb(result, value)
        return result
    finally:
        for child in children:
            _reap(child, kill=True)


def _fork_run(fold, run, inherited) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that folds `run`, writes
    (True, result) or (False, exception) to the pipe with `pickle.dump`
    (protocol 5, which writes an array's memory as it is), then exits 0;
    a reply that fails to pickle exits 1.  The child closes the `inherited`
    read ends, the other children's, so that none is held open past its
    parent."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        for fd in inherited:
            os.close(fd)
        try:
            reply = (True, fold(run))
        except BaseException as exc:
            reply = (False, _portable(exc))
        with open(w, "wb") as out:
            pickle.dump(reply, out, protocol=5)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else an EngineError
    carrying its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return EngineError(repr(exc))


def _receive(fd: int):
    """The reply read from `fd`; None if the pipe ends before a whole
    pickle.  The reader is buffered: a raw one hands `pickle.load` the
    pipe's short reads, which it takes for a truncated pickle."""
    with open(fd, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None


def _reap(child: tuple[int, int], kill: bool):
    """The wait status of the child `(pid, read end)`, SIGKILLed first if
    `kill`; its read end is closed.  None if something else reaped it."""
    pid, fd = child
    os.close(fd)
    try:
        if kill:
            os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1]
    except (ChildProcessError, ProcessLookupError):
        return None


def _ending(status) -> str:
    if status is None:
        return "its exit status is unknown"
    if os.WIFSIGNALED(status):
        return f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exit code {os.waitstatus_to_exitcode(status)}"


class PartitionedDataset:
    """Read-only dataset: a schema and ordered `InstanceBlock` partitions.
    EngineError names a schema that is not a `Schema`, a partition that is
    not a block, has another width than the schema or has a class label
    that the schema lacks, and an instance id that occurs more than once
    with the partitions that hold it: ids break distance ties, so they must
    be unique."""

    def __init__(self, blocks, schema: Schema):
        if not isinstance(schema, Schema):
            raise EngineError(f"the schema is a {type(schema).__name__}, not a Schema")
        blocks = list(blocks)
        if len(blocks) < 1:
            raise ValueError("need at least one partition")
        for i, block in enumerate(blocks):
            if not isinstance(block, InstanceBlock):
                raise EngineError(f"partition {i} is a {type(block).__name__}, not an InstanceBlock")
            if block.values.shape[1] != schema.num_features:
                raise EngineError(
                    f"partition {i} has {block.values.shape[1]} features, expected {schema.num_features}"
                )
            bad = block.labels[(block.labels < 0) | (block.labels >= schema.num_classes)]
            if len(bad):
                raise EngineError(f"partition {i} has class label {bad[0]}, outside [0, {schema.num_classes})")
        _check_unique_ids(blocks)
        self._blocks = blocks
        self.schema = schema

    @classmethod
    def from_blocks(cls, blocks, schema: Schema) -> "PartitionedDataset":
        return cls(blocks, schema)

    @classmethod
    def split(cls, block: InstanceBlock, parts: int, schema: Schema) -> "PartitionedDataset":
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

    def partition_lens(self) -> list[int]:
        return [len(block) for block in self._blocks]


def _check_unique_ids(blocks) -> None:
    """EngineError naming the smallest repeated id and the partitions that
    hold it.  Ids ascending across the partitions, as a loaded file's
    are, need no sort."""
    ids = [block.ids for block in blocks if len(block)]
    if all((b[1:] > b[:-1]).all() for b in ids) and all(a[-1] < b[0] for a, b in zip(ids, ids[1:])):
        return
    ordered = np.sort(np.concatenate(ids))
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(repeats):
        where = [i for i, block in enumerate(blocks) if (block.ids == repeats[0]).any()]
        raise EngineError(f"instance id {repeats[0]} occurs more than once, in partitions {where}")


class LocalEngine:
    """Runs stages over a dataset's partitions in this process's threads
    and, for the neighbour stage, in forked processes.

    Each run's result, the fold of its contiguous run of partitions, is
    combined sequentially on the driver in partition order.  A stage is cut
    into `config.workers` runs, the driver's own among them, but into no
    more than the cores (`fold_runs`).  A child's result comes back
    pickled, so no stage codec is called.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()

    def run_stage(self, ds: PartitionedDataset, stage, params):
        """Run a registered stage with `fold_runs`: each worker's
        contiguous run of partitions from one zero, then the stage combiner
        in run order."""
        parts = [(i, ds.partition(i)) for i in range(ds.num_partitions)]
        return fold_runs(stage, ds.schema, params, parts, self.config.workers)
