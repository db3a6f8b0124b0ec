"""A minimal partitioned engine for `InstanceBlock` datasets.

A dataset is a schema plus an ordered list of `InstanceBlock` partitions.
The engine has one action, `run_stage`: the partitions are cut into one
contiguous run per worker process, each process folds its run of
partitions from one zero, the caller's own process the first run and a
forked child each other, and the runs' results are combined on the driver
in partition order (`fold_runs`).  A stage whose fold and combiner are
exact and associative, as every registered stage's are, yields a result
independent of the process count and of how the rows are partitioned.
"""

from __future__ import annotations

import functools
import io
import os
import pickle
import random
import signal
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .model import InstanceBlock, Schema
from .neighbors import LARGE_BLOCK_ELEMS

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
    """`workers` is the most processes a stage runs in; `fold_runs` uses no
    more processes than the caller has cores.  `max_result_bytes` is the
    cluster driver's cap on each worker's STAGE_RESULT payload for a stage,
    whose stage name adds 4 + len(name) bytes; `LocalEngine` ignores it,
    since a local result is never encoded."""

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
    ascending index order, in at most `workers` processes, and in no more
    processes than this one has cores (`available_cores`), which more
    processes would only take turns on; a `light` stage in this process
    alone.

    The parts are cut into that many contiguous runs, at most one per part
    (`split_sizes`).  Each run is folded in order into one `make_zero` with
    `run_block`, and the runs' results are combined with `comb` in order;
    no parts gives the zero.  For every registered stage this equals
    folding each partition from a fresh zero and combining in partition
    order: ranges and priors are exact, fetched rows concatenate in order,
    and the neighbour order is total.  One accumulator per run spares the
    neighbour stage a merge per partition and, once its cells are full, the
    k-th cut.

    The caller folds the first run; each other run is folded by a child
    forked for it (`_fork_run`), which shares the blocks copy-on-write and
    sends its result back (`_receive`).  A child's exception is raised here
    with its type and message.  A child that ends without a result, or a
    failure of the caller's own run, is an EngineError or that failure once
    every child is killed and reaped: no child outlives the call.  Processes,
    not threads: the neighbour pass makes many short numpy calls, and two
    threads hand the GIL to each other at every one.  On 2 vCPUs (numpy
    2.4) `local_rank`'s pass took 0.096-0.111 s in one process, 0.083-0.090
    s on two threads and 0.061-0.062 s in two processes.  Where every block
    holds `LARGE_BLOCK_ELEMS` values or more, the runs are folded on
    threads instead (`_thread_runs`): such blocks get the neighbour
    kernel's larger chunks, whose calls are long enough for threads to
    scale, and threads pay no fork and no reap.  That is where the two
    cross for m = 10 over four partitions of 20 features, criterion 5's
    shape, on 2 vCPUs (numpy 2.4; `BENCH_fork.json`, `crossover`): threads
    took 15-18% longer than processes at 104,857 rows a block, the last
    count under the bound, and 6-11% less at 104,858 (9 alternated `rank`
    runs, each side faster in 8-9 of 9); at 150k-250k rows the two were
    within 5%.  At 12,500-25,000 rows, `rank`s of under 30 ms, the fork's
    own cost made processes the slowest of the three, one process
    included.  At m = 100 processes were faster at every size measured, by
    9-15% on the large blocks that this rule puts on threads.  Where
    `os.fork` does not exist, the runs are folded here one after another.
    """
    runs, at = [], 0
    processes = 1 if stage.light else min(workers, available_cores(), len(parts))
    for size in split_sizes(len(parts), max(1, processes)):
        runs.append(parts[at : at + size])
        at += size

    def fold(run):
        acc = stage.make_zero(schema, params)
        for index, block in run:
            acc = stage.run_block(acc, block, params, schema, index)
        return acc

    if len(runs) == 1 or not hasattr(os, "fork"):
        return functools.reduce(stage.comb, map(fold, runs))
    if _on_threads(parts):
        return functools.reduce(stage.comb, _thread_runs(fold, runs))
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


def _on_threads(parts) -> bool:
    """Whether runs of `parts` are folded on threads: every block holds
    `LARGE_BLOCK_ELEMS` values or more (`fold_runs`)."""
    return all(block.values.size >= LARGE_BLOCK_ELEMS for _, block in parts)


def _thread_runs(fold, runs) -> list:
    """The folds of `runs`, the first on this thread and each other on a
    thread of its own; once every thread has ended, the first exception in
    run order is raised."""
    results, errors = [None] * len(runs), [None] * len(runs)

    def work(i):
        try:
            results[i] = fold(runs[i])
        except BaseException as exc:
            errors[i] = exc

    started = []
    try:
        for i in range(1, len(runs)):
            started.append(threading.Thread(target=work, args=(i,)))
            started[-1].start()
        work(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# A reply: its pickle's length and its out-of-band buffer count, the
# buffers' lengths, the pickle, then the buffers.
_REPLY_HEAD = struct.Struct("!QQ")


def _fork_run(fold, run, inherited) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that folds `run` and sends
    back (True, result) or (False, exception), then exits; the child
    closes the `inherited` read ends, the other children's, so that none is
    held open past its parent."""
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
        try:
            frames = _frames(reply)
        except Exception as exc:  # a result that pickle cannot send
            frames = _frames((False, EngineError(f"run result {type(reply[1]).__name__} cannot be sent: {exc!r}")))
        with open(w, "wb") as out:
            for frame in frames:
                out.write(frame)
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


def _frames(obj) -> list:
    """`obj` pickled with protocol 5 as the frames of a reply: large
    contiguous arrays go out of band, as raw views of their memory."""
    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    head = _REPLY_HEAD.pack(len(data), len(raws)) + struct.pack(f"!{len(raws)}Q", *(r.nbytes for r in raws))
    return [head, data, *raws]


def _receive(fd: int):
    """The reply read from `fd`, each out-of-band buffer read straight into
    the array that unpickling then wraps; None if the pipe ends first."""
    pipe = io.FileIO(fd, "rb", closefd=False)

    def read(n: int) -> np.ndarray:
        buf = np.empty(n, np.uint8)
        view, got = memoryview(buf), 0
        while got < n:
            size = pipe.readinto(view[got:])
            if not size:
                raise EOFError
            got += size
        return buf

    try:
        size, count = _REPLY_HEAD.unpack(read(_REPLY_HEAD.size))
        lengths = struct.unpack(f"!{count}Q", read(8 * count))
        data = read(size)
        buffers = [read(n) for n in lengths]
    except EOFError:
        return None
    return pickle.loads(data, buffers=buffers)


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
    """Runs stages over a dataset's partitions in forked processes.

    Each process's result, the fold of its contiguous run of partitions, is
    combined sequentially on the driver in partition order.  A stage runs
    in `config.workers` processes, the driver's own among them, or on as
    many threads where every block is large, but in no more than the cores
    (`fold_runs`).  A child's result comes back pickled, so no stage codec
    is called.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()

    def run_stage(self, ds: PartitionedDataset, stage, params):
        """Run a registered stage with `fold_runs`: each process's
        contiguous run of partitions from one zero, then the stage combiner
        in run order."""
        parts = [(i, ds.partition(i)) for i in range(ds.num_partitions)]
        return fold_runs(stage, ds.schema, params, parts, self.config.workers)
