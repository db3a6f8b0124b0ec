"""Partitioned engine: dataset shape, the run_stage fold, sampling laws."""

import functools
import os
import pickle
import re
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import assert_no_children, numeric_schema, random_mixed_block, uncapped_threads, worker_process
from direlieff import engine as engine_mod
from direlieff.cluster import ClusterEngine
from direlieff.engine import (
    EngineConfig,
    EngineError,
    LocalEngine,
    PartitionedDataset,
    draw_sample_positions,
    fold_runs,
    split_sizes,
)
from direlieff.model import DiffConfig, DiffMode, FeatureRange, Instance, InstanceBlock, ModelError, RankConfig
from direlieff.neighbors import LARGE_BLOCK_ELEMS
from direlieff.pipeline import rank, select_samples
from direlieff.stages import FETCH, NEIGHBORS, PRIORS, RANGES, FetchParams, NeighborParams, PriorsStage, RangesStage, Stage


def make_ds(n, partitions, seed=0):
    """n mixed rows, ids 0..n-1, cut into `partitions` contiguous blocks."""
    schema, block = random_mixed_block(np.random.default_rng(seed), n, 2, 1, 3)
    return PartitionedDataset.split(block, partitions, schema)


def whole(ds):
    return InstanceBlock.concat([ds.partition(i) for i in range(ds.num_partitions)])


class TestSplitSizes:
    def test_even(self):
        assert split_sizes(4, 2) == [2, 2]

    def test_remainder_goes_first(self):
        assert split_sizes(5, 2) == [3, 2]
        assert split_sizes(10, 3) == [4, 3, 3]

    def test_more_parts_than_elements(self):
        assert split_sizes(2, 4) == [1, 1, 0, 0]

    @given(n=st.integers(0, 500), parts=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_n(self, n, parts):
        sizes = split_sizes(n, parts)
        assert sum(sizes) == n
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1


class TestAggregate:
    """`run_stage`: each worker's contiguous run of partitions folded from
    one zero, the runs' results combined in partition order."""

    def test_count_shape(self):
        ds = make_ds(23, 3)
        counts = LocalEngine().run_stage(ds, PRIORS, None)
        assert counts.sum() == 23

    def test_empty_dataset_returns_zero(self):
        ds = make_ds(5, 1)
        empty = PartitionedDataset.from_blocks([ds.partition(0).slice(0, 0)] * 2, schema=ds.schema)
        mins, maxs = LocalEngine().run_stage(empty, RANGES, None)
        assert np.all(mins == np.inf) and np.all(maxs == -np.inf)
        assert LocalEngine().run_stage(empty, PRIORS, None).tolist() == [0, 0, 0]

    def test_collect_concat(self):
        ds = make_ds(5, 3)
        got = LocalEngine().run_stage(ds, FETCH, FetchParams(np.arange(5), np.cumsum(ds.partition_lens())))
        assert got.ids.tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(got.values, whole(ds).values)

    def test_zero_deep_copied_per_partition(self):
        class InPlacePriors(PriorsStage):
            def run_block(self, acc, block, params, schema, partition_index):
                np.add.at(acc, block.labels, 1)  # mutates the zero it was given
                return acc

        ds = make_ds(40, 4)
        got = LocalEngine().run_stage(ds, InPlacePriors(), None)
        want = np.bincount(whole(ds).labels, minlength=3)
        assert got.tolist() == want.tolist()  # no zero shared between runs

    @pytest.mark.parametrize("cores, workers, processes", [(2, 5, 2), (4, 3, 3), (1, 4, 1)])
    def test_no_more_processes_than_cores(self, monkeypatch, cores, workers, processes):
        forked, fork_run = [], engine_mod._fork_run
        monkeypatch.setattr(engine_mod, "available_cores", lambda: cores)
        monkeypatch.setattr(engine_mod, "_fork_run", lambda fold, run, fds: forked.append(len(run)) or fork_run(fold, run, fds))
        ds = make_ds(60, 8)
        mins, maxs = LocalEngine(EngineConfig(workers=workers)).run_stage(ds, ForkedRanges(), None)
        assert np.array_equal(mins, whole(ds).values.min(axis=0))
        assert np.array_equal(maxs, whole(ds).values.max(axis=0))
        assert forked == split_sizes(8, processes)[1:]  # the caller folds the first run
        assert_no_children()

    @pytest.mark.parametrize("stage", [RANGES, PRIORS, FETCH], ids=["ranges", "priors", "fetch"])
    def test_stage_folds_on_threads(self, monkeypatch, stage):
        assert_folds_on_threads(monkeypatch, make_ds(60, 8), stage)

    def test_neighbour_stage_forks(self, monkeypatch):
        assert_neighbour_stage_forks(monkeypatch, make_ds(60, 8))

    def test_neighbour_stage_folds_on_threads_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert_folds_on_threads(monkeypatch, make_ds(60, 8), NEIGHBORS)

    def test_calls_no_codec(self, monkeypatch):
        """Local results never leave the process: a rank whose stage codecs
        all raise gives the weights of one whose codecs work, under a
        result cap no encoded result fits."""
        ds = make_ds(120, 4)
        cfg = RankConfig(m=10, k=3, seed=2, diff=DiffConfig(DiffMode.RAMP))
        want = rank(ds, cfg, LocalEngine(EngineConfig(workers=2))).weights

        def refuse(*args):
            raise AssertionError("a local stage called a codec")

        for stage in (RANGES, PRIORS, FETCH, NEIGHBORS):
            for codec in ("encode_params", "decode_params", "encode_result", "decode_result"):
                monkeypatch.setattr(stage, codec, refuse)
        got = rank(ds, cfg, LocalEngine(EngineConfig(workers=2, max_result_bytes=1))).weights
        assert np.array_equal(got.values, want.values)

    @given(n=st.integers(1, 60), parts=st.integers(1, 8), workers=st.integers(1, 4), seed=st.integers(0, 99))
    @settings(max_examples=120, deadline=None)
    def test_matches_sequential_fold(self, n, parts, workers, seed):
        ds = make_ds(n, parts, seed)
        eng = LocalEngine(EngineConfig(workers=workers))
        values, labels = whole(ds).values, whole(ds).labels
        with uncapped_threads():
            mins, maxs = eng.run_stage(ds, RANGES, None)
            assert np.array_equal(eng.run_stage(ds, PRIORS, None), np.bincount(labels, minlength=3))
        assert np.array_equal(mins, values.min(axis=0))
        assert np.array_equal(maxs, values.max(axis=0))
        assert sum(ds.partition_lens()) == n


@st.composite
def stage_cases(draw):
    """A dataset cut into partitions of random sizes, empty ones included,
    and parameters for every stage: random fetch positions, and a neighbour
    search over drawn samples.  Signs are flipped at random in numeric
    columns, so zeros of both signs meet in the ranges."""
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=7).filter(lambda s: sum(s) > 0), label="sizes")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    schema, block = random_mixed_block(rng, sum(sizes), 3, 2, int(rng.integers(2, 5)))
    mask = schema.numeric_mask()
    values = block.values.copy()
    values[:, mask] *= np.where(rng.random((len(block), int(mask.sum()))) < 0.5, -1.0, 1.0)
    block = InstanceBlock(block.ids, block.labels, values)
    bounds = np.cumsum([0, *sizes]).tolist()
    ds = PartitionedDataset.from_blocks([block.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])], schema)
    positions = np.sort(rng.choice(sum(sizes), size=int(rng.integers(0, sum(sizes) + 1)), replace=False))
    samples = block.take(rng.choice(len(block), size=int(rng.integers(1, min(len(block), 6) + 1)), replace=False))
    ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
    cfg = DiffConfig(DiffMode.RAMP, t_eq=0.1, t_diff=0.5) if rng.random() < 0.5 else DiffConfig()
    neighbor = NeighborParams(samples, int(rng.integers(1, 6)), ranges, cfg)
    return ds, [(RANGES, None), (PRIORS, None), (FETCH, FetchParams(positions, np.cumsum(sizes))), (NEIGHBORS, neighbor)]


def per_partition_fold(ds, stage, params):
    """The reference: each partition from a fresh zero, then `comb` in partition order."""
    schema = ds.schema
    return functools.reduce(
        stage.comb,
        (stage.run_block(stage.make_zero(schema, params), ds.partition(i), params, schema, i) for i in range(ds.num_partitions)),
    )


def result_arrays(stage, result) -> list:
    if stage is NEIGHBORS:
        return [result.dist, result.ids, result.values, result.count]
    if stage is FETCH:
        return [result.ids, result.labels, result.values]
    return list(result) if stage is RANGES else [result]


def assert_bit_equal(stage, got, want):
    for x, y in zip(result_arrays(stage, got), result_arrays(stage, want), strict=True):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), stage.name


class TestThreadRuns:
    """Every stage on either backend, at any worker count, is bit-equal to
    folding each partition from a fresh zero and combining the partials in
    partition order, though each run is folded whole into one zero.
    The cluster worker is a process forked from this one, so that it
    inherits `uncapped_threads` and forks its runs from a process with no
    second live thread."""

    @given(case=stage_cases(), threads=st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_local_engine(self, case, threads):
        ds, stages = case
        eng = LocalEngine(EngineConfig(workers=threads))
        for stage, params in stages:
            with uncapped_threads():
                got = eng.run_stage(ds, stage, params)
            assert_bit_equal(stage, got, per_partition_fold(ds, stage, params))

    @given(case=stage_cases(), threads=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_cluster_worker(self, case, threads):
        ds, stages = case
        with uncapped_threads(), worker_process(threads) as addr, ClusterEngine([addr], timeout=30.0) as eng:
            for stage, params in stages:
                assert_bit_equal(stage, eng.run_stage(ds, stage, params), per_partition_fold(ds, stage, params))


class ForkedRanges(RangesStage):
    """The ranges stage, its runs folded in forked processes."""

    forks = True


class Failing(ForkedRanges):
    """`ForkedRanges`, but the fold of partition `at` calls `act(pid)`,
    pid being the process that called `fold_runs`."""

    def __init__(self, at, act):
        self.at, self.act, self.caller = at, act, os.getpid()

    def run_block(self, acc, block, params, schema, partition_index):
        if partition_index == self.at:
            self.act(self.caller)
        return super().run_block(acc, block, params, schema, partition_index)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class Echo(Stage):
    """Each run's result, folded in a forked child, is a list of arrays made
    from its blocks, contiguous or not and of every size; `comb` joins the
    lists."""

    name = "echo"
    forks = True

    def make_zero(self, schema, params):
        return []

    def run_block(self, acc, block, params, schema, partition_index):
        big = np.repeat(block.values, 1 + 2**20 // block.values.size, axis=0)  # > 8 MiB
        return acc + [big, block.values, block.ids, np.asfortranarray(big[:1000]), big[::3, 1], big[:0]]

    def comb(self, a, b):
        return a + b


class Unsendable(Echo):
    """Each run's result, folded in a forked child, is a list of lambdas,
    which pickle cannot write."""

    def run_block(self, acc, block, params, schema, partition_index):
        return acc + [lambda: partition_index]


class TestForkedRuns:
    """`fold_runs` in child processes: a child's error or death, a failure
    of the caller's own run, and a large result.  No child outlives a call."""

    def engine(self):
        return LocalEngine(EngineConfig(workers=2))

    def test_child_error_surfaces_through_rank(self, monkeypatch):
        parent, run_block = os.getpid(), NEIGHBORS.run_block

        def fail_in_child(acc, block, params, schema, index):
            if os.getpid() != parent:
                raise ModelError(f"bad block {int(block.ids[0])}")
            return run_block(acc, block, params, schema, index)

        monkeypatch.setattr(NEIGHBORS, "run_block", fail_in_child)
        with uncapped_threads(), pytest.raises(ModelError, match=r"^bad block 40$"):
            rank(make_ds(80, 4), RankConfig(m=5, k=3, seed=1), self.engine())  # partitions 2-3 run in the child
        assert_no_children()

    @pytest.mark.parametrize("exc, want", [
        (ModelError("no such class"), (ModelError, "no such class")),
        (KeyError("gone"), (KeyError, "'gone'")),
        (Unpicklable(1, 2), (EngineError, "Unpicklable('1 and 2')")),
    ], ids=["named", "builtin", "unpicklable"])
    def test_child_exception_keeps_type_and_message(self, exc, want):
        def act(caller):
            raise exc

        with uncapped_threads(), pytest.raises(want[0]) as err:
            self.engine().run_stage(make_ds(40, 4), Failing(3, act), None)
        assert str(err.value) == want[1]
        assert_no_children()

    def test_killed_child_is_named(self):
        def act(caller):
            os.kill(os.getpid(), signal.SIGKILL)

        with uncapped_threads(), pytest.raises(EngineError, match=r"^run 2 of 2 \(partitions 2-3\) ended without a result: killed by SIGKILL$"):
            self.engine().run_stage(make_ds(40, 4), Failing(2, act), None)
        assert_no_children()

    def test_caller_failure_kills_the_children(self):
        def act(caller):
            if os.getpid() == caller:
                raise ModelError("the caller's run failed")

        class Slow(Failing):
            def run_block(self, acc, block, params, schema, partition_index):
                if os.getpid() != self.caller:
                    time.sleep(60)
                return super().run_block(acc, block, params, schema, partition_index)

        t0 = time.perf_counter()
        with uncapped_threads(), pytest.raises(ModelError, match="^the caller's run failed$"):
            LocalEngine(EngineConfig(workers=4)).run_stage(make_ds(40, 4), Slow(0, act), None)
        assert time.perf_counter() - t0 < 30
        assert_no_children()

    def test_large_result_round_trips_bit_exact(self):
        ds, stage = make_ds(400, 3), Echo()
        parts = [(i, ds.partition(i)) for i in range(ds.num_partitions)]
        want = fold_runs(stage, ds.schema, None, parts, 1)
        with uncapped_threads():
            got = fold_runs(stage, ds.schema, None, parts, 3)
        assert len(got) == len(want) == 18
        for x, y in zip(got, want):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert x.flags.writeable == y.flags.writeable
        assert got[6].nbytes > 8 * 2**20
        assert_no_children()

    def test_unpicklable_result_is_named(self):
        with uncapped_threads(), pytest.raises(EngineError, match=r"^run 2 of 2 \(partitions 2-3\) ended without a result: exit code 1$"):
            self.engine().run_stage(make_ds(40, 4), Unsendable(), None)
        assert_no_children()

    def test_partial_reply_is_named(self, monkeypatch):
        """A child that writes its reply's pickle but its last byte, the
        STOP opcode, and exits 0."""
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dump", lambda obj, out, protocol: out.write(dumps(obj, protocol=protocol)[:-1]))
        with uncapped_threads(), pytest.raises(EngineError, match=r"^run 2 of 2 \(partitions 2-3\) ended without a result: exit code 0$"):
            self.engine().run_stage(make_ds(40, 4), ForkedRanges(), None)
        assert_no_children()


def large_ds(parts=2, seed=3):
    """`parts` partitions of `LARGE_BLOCK_ELEMS` values each, 8 numeric features."""
    a = 8
    n = parts * -(-LARGE_BLOCK_ELEMS // a)
    rng = np.random.default_rng(seed)
    block = InstanceBlock(np.arange(n), rng.integers(0, 2, n), rng.normal(size=(n, a)))
    return PartitionedDataset.split(block, parts, numeric_schema(a))


def stage_params(ds, stage):
    """Parameters of `stage` over `ds`: every 7th row for fetch, the first
    3 rows as samples with k = 2 for the neighbour stage, else None."""
    if stage is FETCH:
        return FetchParams(np.arange(0, len(whole(ds)), 7), np.cumsum(ds.partition_lens()))
    if stage is NEIGHBORS:
        ranges = FeatureRange(*per_partition_fold(ds, RANGES, None), ds.schema.numeric_mask())
        return NeighborParams(whole(ds).take(np.arange(3)), 2, ranges, DiffConfig())
    return None


def assert_folds_on_threads(monkeypatch, ds, stage):
    """`stage` over `ds` at 2 workers starts one thread, forks nothing and
    equals the per-partition fold."""
    params = stage_params(ds, stage)
    started, start = [], threading.Thread.start
    with monkeypatch.context() as patch, uncapped_threads():
        patch.setattr(engine_mod, "_fork_run", lambda *args: pytest.fail(f"{stage.name} forked"))
        patch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        got = LocalEngine(EngineConfig(workers=2)).run_stage(ds, stage, params)
    assert_bit_equal(stage, got, per_partition_fold(ds, stage, params))
    assert len(started) == 1  # the caller folds the first run


def assert_neighbour_stage_forks(monkeypatch, ds):
    """The neighbour stage over `ds` at 2 workers forks one child and
    equals the per-partition fold."""
    params = stage_params(ds, NEIGHBORS)
    forked, fork_run = [], engine_mod._fork_run
    with monkeypatch.context() as patch, uncapped_threads():
        patch.setattr(engine_mod, "_fork_run", lambda *args: forked.append(1) or fork_run(*args))
        got = LocalEngine(EngineConfig(workers=2)).run_stage(ds, NEIGHBORS, params)
    assert_bit_equal(NEIGHBORS, got, per_partition_fold(ds, NEIGHBORS, params))
    assert forked == [1]
    assert_no_children()


class TestLargeBlocks:
    """Blocks of `LARGE_BLOCK_ELEMS` values or more, which get the neighbour
    kernel's larger chunks, fold as small ones do (`TestAggregate`):
    ranges, priors and fetch on threads, the neighbour stage in forks."""

    def test_stages_fold_on_threads(self, monkeypatch):
        ds = large_ds()
        for stage in (RANGES, PRIORS, FETCH):
            assert_folds_on_threads(monkeypatch, ds, stage)

    def test_neighbour_stage_forks(self, monkeypatch):
        assert_neighbour_stage_forks(monkeypatch, large_ds())

    def test_rank_matches_one_process(self):
        ds, cfg = large_ds(), RankConfig(m=3, k=2, seed=4)
        want = rank(ds, cfg, LocalEngine()).weights.values
        with uncapped_threads():
            got = rank(ds, cfg, LocalEngine(EngineConfig(workers=2))).weights.values
        assert got.tobytes() == want.tobytes()
        assert_no_children()

    def test_thread_exception_is_raised(self):
        def act(caller):
            raise ModelError("partition 1 failed")

        stage = Failing(1, act)
        stage.forks = False
        with uncapped_threads(), pytest.raises(ModelError, match="^partition 1 failed$"):
            LocalEngine(EngineConfig(workers=2)).run_stage(large_ds(), stage, None)


class TestTakeSample:
    """`select_samples`: a draw that depends only on (n, m, seed)."""

    def test_m_equals_n_is_permutation(self):
        got = select_samples(make_ds(20, 3), LocalEngine(), 20, seed=5)
        assert sorted(got.ids.tolist()) == list(range(20))

    def test_same_seed_same_sequence(self):
        ds = make_ds(50, 4)
        eng = LocalEngine()
        one, two = (select_samples(ds, eng, 10, seed=3) for _ in range(2))
        assert one.ids.tolist() == two.ids.tolist()

    def test_different_seeds_differ(self):
        ds = make_ds(1000, 1)
        eng = LocalEngine()
        one, two = (select_samples(ds, eng, 10, seed=seed) for seed in (0, 1))
        assert one.ids.tolist() != two.ids.tolist()

    def test_partition_invariance(self):
        eng = LocalEngine()
        drawn = [select_samples(make_ds(37, p), eng, 9, seed=11) for p in (1, 2, 4, 8)]
        for d in drawn:
            assert d.ids.tolist() == drawn[0].ids.tolist()
            assert np.array_equal(d.values, drawn[0].values)

    def test_m_out_of_range(self):
        with pytest.raises(EngineError):
            draw_sample_positions(3, 4, seed=0)
        with pytest.raises(EngineError):
            draw_sample_positions(3, 0, seed=0)

    @given(n=st.integers(1, 300), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_positions_distinct_and_in_range(self, n, seed, data):
        m = data.draw(st.integers(1, n))
        pos = draw_sample_positions(n, m, seed)
        assert len(pos) == m
        assert len(set(pos)) == m
        assert all(0 <= p < n for p in pos)


class TestDatasetShape:
    def test_needs_one_partition(self):
        with pytest.raises(ValueError):
            PartitionedDataset.from_blocks([], numeric_schema(2))

    def test_rejects_a_partition_that_is_not_a_block(self):
        ds = make_ds(4, 1)
        with pytest.raises(EngineError, match="partition 1 is a list"):
            PartitionedDataset.from_blocks([ds.partition(0), [Instance(9, 0, np.zeros(3))]], ds.schema)

    @pytest.mark.parametrize("schema", ["x:numeric", {"features": [], "class_labels": ["a", "b"]}])
    def test_rejects_what_is_not_a_schema(self, schema):
        block = make_ds(4, 1).partition(0)
        with pytest.raises(EngineError, match=f"the schema is a {type(schema).__name__}, not a Schema"):
            PartitionedDataset([block], schema)

    def test_schema_is_required(self):
        ds = make_ds(4, 1)
        for build in (PartitionedDataset, PartitionedDataset.from_blocks):
            with pytest.raises(TypeError):
                build([ds.partition(0)])
        with pytest.raises(TypeError):
            PartitionedDataset.split(ds.partition(0), 2)

    def test_rejects_a_partition_of_another_width(self):
        ds = make_ds(4, 1)
        narrow = InstanceBlock(np.arange(2), np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(EngineError, match="partition 1 has 2 features, expected 3"):
            PartitionedDataset.from_blocks([ds.partition(0), narrow], schema=ds.schema)
        with pytest.raises(EngineError, match="partition 0 has 2 features, expected 3"):
            PartitionedDataset.from_blocks([narrow], schema=ds.schema)

    def test_repartition_preserves_order(self):
        ds = make_ds(11, 3)
        again = PartitionedDataset.split(whole(ds), 5, ds.schema)
        assert again.num_partitions == 5
        assert again.schema is ds.schema
        assert whole(again).ids.tolist() == list(range(11))

    def test_repartition_instance_blocks(self):
        block = InstanceBlock(
            np.arange(10), np.zeros(10, dtype=np.int32), np.arange(20.0).reshape(10, 2)
        )
        again = PartitionedDataset.split(block, 4, numeric_schema(2))
        assert again.num_partitions == 4
        assert isinstance(again.partition(0), InstanceBlock)
        assert np.array_equal(
            np.concatenate([again.partition(i).ids for i in range(4)]), block.ids
        )

    @pytest.mark.parametrize(
        "ids, partitions, want",
        [
            (np.tile(np.arange(100), 2), 4, "instance id 0 occurs more than once, in partitions [0, 2]"),
            (np.array([5, 1, 5, 2]), 1, "instance id 5 occurs more than once, in partitions [0]"),
            (np.array([0, 1, 2, 2, 3]), 2, "instance id 2 occurs more than once, in partitions [0, 1]"),
        ],
        ids=["across", "within", "boundary"],
    )
    def test_rejects_repeated_ids(self, ids, partitions, want):
        """Repeated ids would tie neighbours that the cluster's checked
        matrix codec cannot order; the dataset refuses them on any backend."""
        n = len(ids)
        block = InstanceBlock(ids, np.arange(n) % 2, np.arange(2.0 * n).reshape(n, 2))
        with pytest.raises(EngineError, match=re.escape(want)):
            PartitionedDataset.split(block, partitions, numeric_schema(2))

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=0)
