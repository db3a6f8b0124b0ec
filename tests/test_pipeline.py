"""Pipeline steps against hand-worked values and scan oracles."""

import logging

import numpy as np
import pytest

from direlieff.engine import (
    EmptyDatasetError,
    EngineConfig,
    EngineError,
    LocalEngine,
    PartitionedDataset,
)
from direlieff.model import (
    ClassPriors,
    DiffConfig,
    DiffMode,
    FeatureKind,
    FeatureMeta,
    FeatureRange,
    InstanceBlock,
    RankConfig,
    Schema,
    feature_diffs,
)
from direlieff.neighbors import NeighborMatrix
from direlieff.pipeline import (
    compute_priors,
    compute_ranges,
    compute_sdif,
    compute_weights,
    find_neighbors,
    rank,
    read_weights_csv,
    select_samples,
    write_weights_csv,
)
from direlieff.reference import relieff_sequential
from direlieff.synth import SynthSpec, make_dataset

from _support import grid_entries, random_mixed_block, uncapped_threads


def numeric_schema(a: int, c: int = 2) -> Schema:
    feats = tuple(
        FeatureMeta(name=f"f{j}", kind=FeatureKind.NUMERIC, index=j) for j in range(a)
    )
    return Schema(features=feats, class_labels=tuple(f"c{i}" for i in range(c)))


def tiny_dataset(values, labels, schema, partitions=1):
    n = len(labels)
    block = InstanceBlock(
        np.arange(n, dtype=np.int64),
        np.asarray(labels, dtype=np.int32),
        np.asarray(values, dtype=np.float64),
    )
    ds = PartitionedDataset.from_blocks([block], schema=schema)
    return ds.repartitioned(partitions) if partitions > 1 else ds


class TestRanges:
    def test_single_instance(self):
        ds = tiny_dataset([[3.0, -1.0]], [0], numeric_schema(2))
        r = compute_ranges(ds, LocalEngine())
        assert r.mins.tolist() == [3.0, -1.0]
        assert r.maxs.tolist() == [3.0, -1.0]
        # degenerate width: diffs divide by +inf and come out 0
        assert np.all(np.isinf(r.safe_width))

    def test_min_max_example(self):
        ds = tiny_dataset([[3.0], [7.0], [5.0]], [0, 1, 0], numeric_schema(1))
        r = compute_ranges(ds, LocalEngine())
        assert (r.mins[0], r.maxs[0]) == (3.0, 7.0)
        assert r.safe_width[0] == 4.0

    @pytest.mark.parametrize("partitions", [1, 2, 4, 8])
    def test_matches_scan_oracle(self, partitions):
        rng = np.random.default_rng(3)
        schema, block = random_mixed_block(rng, 40, 5, 2, 3)
        ds = PartitionedDataset.from_blocks([block], schema=schema).repartitioned(partitions)
        r = compute_ranges(ds, LocalEngine())
        lo = np.full(schema.num_features, np.inf)
        hi = np.full(schema.num_features, -np.inf)
        for i in range(ds.num_partitions):
            for inst in ds.partition(i):
                lo = np.minimum(lo, inst.values)
                hi = np.maximum(hi, inst.values)
        mask = schema.numeric_mask()
        assert np.array_equal(r.mins[mask], lo[mask])
        assert np.array_equal(r.maxs[mask], hi[mask])

    def test_empty_dataset_rejected(self):
        empty = InstanceBlock(np.empty(0), np.empty(0), np.empty((0, 1)))
        ds = PartitionedDataset.from_blocks([empty], schema=numeric_schema(1))
        with pytest.raises(EmptyDatasetError):
            compute_ranges(ds, LocalEngine())


class TestPriors:
    def test_two_even_classes(self):
        ds = tiny_dataset([[0.0]] * 4, [0, 0, 1, 1], numeric_schema(1))
        priors = compute_priors(ds, LocalEngine())
        assert priors.counts.tolist() == [2, 2]
        assert priors.prior(0) == 0.5

    def test_absent_class_counts_zero(self):
        ds = tiny_dataset([[0.0]] * 3, [0, 0, 0], numeric_schema(1, c=2))
        priors = compute_priors(ds, LocalEngine())
        assert priors.counts.tolist() == [3, 0]
        assert priors.prior(1) == 0.0


class TestSelectSamples:
    def test_single_instance(self):
        ds = tiny_dataset([[1.5]], [0], numeric_schema(1))
        samples = select_samples(ds, LocalEngine(), m=1, seed=9)
        assert [s.id for s in samples] == [0]
        assert samples[0].values[0] == 1.5

    def test_oversized_m_clamps_with_warning(self, caplog):
        ds = tiny_dataset([[float(i)] for i in range(5)], [0, 1, 0, 1, 0], numeric_schema(1))
        with caplog.at_level(logging.WARNING, logger="direlieff.pipeline"):
            samples = select_samples(ds, LocalEngine(), m=20, seed=0)
        assert len(samples) == 5
        assert sorted(s.id for s in samples) == [0, 1, 2, 3, 4]
        assert any("clamping" in rec.message for rec in caplog.records)

    def test_fetches_the_drawn_instances(self):
        vals = [[float(i), float(-i)] for i in range(30)]
        ds = tiny_dataset(vals, [i % 2 for i in range(30)], numeric_schema(2), partitions=4)
        samples = select_samples(ds, LocalEngine(), m=7, seed=3)
        assert len(samples) == 7
        assert len({s.id for s in samples}) == 7
        for s in samples:
            assert s.values.tolist() == [float(s.id), float(-s.id)]

    def test_worker_count_does_not_change_draw(self):
        vals = [[float(i)] for i in range(30)]
        ds = tiny_dataset(vals, [i % 2 for i in range(30)], numeric_schema(1), partitions=5)
        one = select_samples(ds, LocalEngine(EngineConfig(workers=1)), m=9, seed=11)
        with uncapped_threads():
            four = select_samples(ds, LocalEngine(EngineConfig(workers=4)), m=9, seed=11)
        assert [s.id for s in one] == [s.id for s in four]


class TestFindNeighbors:
    def test_two_nearest_hits(self):
        # one feature, hits at 1 and 2 beat the far one at 10
        schema = numeric_schema(1, c=2)
        ds = tiny_dataset([[0.0], [1.0], [2.0], [10.0]], [0, 0, 0, 1], schema)
        eng = LocalEngine()
        ranges = compute_ranges(ds, eng)
        sample = InstanceBlock([0], [0], [[0.0]])
        nn = find_neighbors(ds, eng, sample, ranges, k=2, cfg=DiffConfig())
        hits, misses = (cells[0] for cells in grid_entries(nn))
        assert [iid for _, iid, _, _ in hits] == [1, 2]
        assert nn.values[0, 0, :2, 0].tolist() == [1.0, 2.0]
        assert [iid for _, iid, _, _ in misses] == [3]

    def test_underpopulated_class_keeps_what_exists(self):
        schema = numeric_schema(1, c=2)
        ds = tiny_dataset([[0.0], [1.0], [5.0]], [0, 0, 1], schema)
        eng = LocalEngine()
        ranges = compute_ranges(ds, eng)
        sample = InstanceBlock([0], [0], [[0.0]])
        nn = find_neighbors(ds, eng, sample, ranges, k=3, cfg=DiffConfig())
        assert nn.count.tolist() == [[1], [1]]  # only one other hit

    def test_each_instance_visited_once(self, monkeypatch):
        reads = []
        offer_block = NeighborMatrix.offer_block

        def tally(self, block, *args):
            reads.extend(block.ids.tolist())
            return offer_block(self, block, *args)

        monkeypatch.setattr(NeighborMatrix, "offer_block", tally)
        schema = numeric_schema(2, c=2)
        rng = np.random.default_rng(0)
        block = InstanceBlock(np.arange(24), np.arange(24) % 2, rng.uniform(0, 1, size=(24, 2)))
        ds = PartitionedDataset.from_blocks([block.slice(0, 10), block.slice(10, 24)], schema=schema)
        eng = LocalEngine()
        ranges = compute_ranges(ds, eng)
        samples = select_samples(ds, eng, m=4, seed=1)
        find_neighbors(ds, eng, samples, ranges, k=3, cfg=DiffConfig())
        assert sorted(reads) == list(range(24))


def one_feature_range():
    return FeatureRange(np.array([0.0]), np.array([1.0]), np.array([True]))


class TestComputeSdif:
    def fill(self, k, neighbor_values, num_classes=2, target_class=0):
        # one sample at 0.0: each neighbour's distance is its value
        nn = NeighborMatrix(num_classes, [0], k, 1)
        entries = sorted((v, j) for j, v in enumerate(neighbor_values, start=1))
        n = len(entries)
        nn.count[target_class, 0] = n
        nn.dist[target_class, 0, :n] = [v for v, _ in entries]
        nn.ids[target_class, 0, :n] = [j for _, j in entries]
        nn.values[target_class, 0, :n, 0] = [v for v, _ in entries]
        return nn

    def test_empty_cells_are_zero(self):
        nn = NeighborMatrix(2, [0], 2, 1)
        sample = InstanceBlock([0], [0], [[0.0]])
        out = compute_sdif(nn, sample, one_feature_range(), 2, DiffConfig(), np.array([True]))
        assert out.shape == (2, 1, 1)
        assert np.all(out == 0.0)

    def test_single_neighbor(self):
        nn = self.fill(k=1, neighbor_values=[0.4])
        sample = InstanceBlock([0], [0], [[0.0]])
        out = compute_sdif(nn, sample, one_feature_range(), 1, DiffConfig(), np.array([True]))
        assert out[0, 0, 0] == pytest.approx(0.4, abs=1e-15)
        assert out[1, 0, 0] == 0.0

    def test_two_neighbors_average(self):
        nn = self.fill(k=2, neighbor_values=[0.4, 0.2])
        sample = InstanceBlock([0], [0], [[0.0]])
        out = compute_sdif(nn, sample, one_feature_range(), 2, DiffConfig(), np.array([True]))
        assert out[0, 0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_underfull_divides_by_k(self):
        nn = self.fill(k=2, neighbor_values=[0.4])
        sample = InstanceBlock([0], [0], [[0.0]])
        out = compute_sdif(nn, sample, one_feature_range(), 2, DiffConfig(), np.array([True]))
        assert out[0, 0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_underfull_average_by_found(self):
        nn = self.fill(k=2, neighbor_values=[0.4])
        sample = InstanceBlock([0], [0], [[0.0]])
        out = compute_sdif(
            nn, sample, one_feature_range(), 2, DiffConfig(), np.array([True]),
            average_by_found=True,
        )
        assert out[0, 0, 0] == pytest.approx(0.4, abs=1e-15)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [1, 3])
    @pytest.mark.parametrize("average_by_found", [False, True])
    def test_ragged_cells_match_per_cell_sums(self, a, average_by_found):
        # empty, short and full cells in one matrix; with one feature numpy
        # sums a cell's column pairwise, in an order set by the cell's length
        rng = np.random.default_rng(a)
        c, m, k = 3, 30, 20
        samples = InstanceBlock(np.arange(m), np.arange(m) % c, rng.uniform(0, 1, size=(m, a)))
        mask = np.ones(a, dtype=bool)
        ranges = FeatureRange(np.zeros(a), np.ones(a), mask)
        nn = NeighborMatrix(c, samples.ids, k, a)
        nn.count[...] = rng.choice([0, 1, 5, 10, 13, k], size=(c, m))
        nn.values[...] = rng.uniform(0, 1, size=nn.values.shape) * 10.0 ** rng.integers(-8, 8, size=nn.values.shape)
        cfg = DiffConfig()
        got = compute_sdif(nn, samples, ranges, k, cfg, mask, average_by_found)
        want = np.zeros((c, m, a))
        for ci in range(c):
            for i in range(m):
                n = nn.count[ci, i]
                if n:
                    diffs = feature_diffs(nn.values[ci, i, :n], samples.values[i], mask, ranges, cfg)
                    want[ci, i] = diffs.sum(axis=0) / (n if average_by_found else k)
        assert got.tobytes() == want.tobytes()


class TestComputeWeights:
    def test_perfect_feature_scores_one(self):
        # hits identical, misses maximally different, even priors
        sdif = np.zeros((2, 1, 1))
        sdif[1, 0, 0] = 1.0
        sample = InstanceBlock([0], [0], [[0.0]])
        w = compute_weights(sdif, sample, ClassPriors(np.array([2, 2])))
        assert w.values[0] == 1.0

    def test_zero_prior_class_ignored(self):
        sdif = np.zeros((3, 1, 1))
        sdif[1, 0, 0] = 1.0
        sdif[2, 0, 0] = 5.0  # no instances of class 2: must not contribute
        sample = InstanceBlock([0], [0], [[0.0]])
        w = compute_weights(sdif, sample, ClassPriors(np.array([2, 2, 0])))
        assert w.values[0] == 1.0

    def test_single_class_keeps_hit_term_only(self):
        sdif = np.zeros((1, 2, 1))
        sdif[0, 0, 0] = 0.5
        sdif[0, 1, 0] = 0.1
        samples = InstanceBlock([0, 1], [0, 0], [[0.0], [0.0]])
        w = compute_weights(sdif, samples, ClassPriors(np.array([2])))
        assert w.values[0] == pytest.approx(-0.3, abs=1e-15)

    def test_draw_order_does_not_change_weights(self):
        rng = np.random.default_rng(5)
        sdif = rng.uniform(0, 0.2, size=(2, 4, 3))
        samples = InstanceBlock(np.arange(4), np.arange(4) % 2, np.zeros((4, 3)))
        priors = ClassPriors(np.array([5, 5]))
        perm = [2, 0, 3, 1]
        w1 = compute_weights(sdif, samples, priors)
        w2 = compute_weights(sdif[:, perm], samples.take(perm), priors)
        assert np.array_equal(w1.values, w2.values)


class TestRank:
    def test_matches_reference_when_m_equals_n(self):
        rng = np.random.default_rng(17)
        schema, block = random_mixed_block(rng, 20, 3, 2, 2)
        ds = PartitionedDataset.from_blocks([block], schema=schema).repartitioned(3)
        cfg = RankConfig(m=20, k=1, seed=2)
        result = rank(ds, cfg)
        want = relieff_sequential(list(block), result.samples, 1, cfg.diff, schema)
        assert np.max(np.abs(result.weights.values - want.values)) <= 1e-12

    def test_identical_features_tie_by_index(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0, 1, size=(40, 3))
        vals[:, 2] = vals[:, 0]
        labels = (vals[:, 0] > 0.5).astype(int)
        ds = tiny_dataset(vals, labels, numeric_schema(3))
        result = rank(ds, RankConfig(m=40, k=3, seed=0))
        assert result.weights.values[0] == result.weights.values[2]
        order = list(result.ranking)
        assert order.index(0) < order.index(2)

    def test_single_feature_ranking(self):
        ds = tiny_dataset([[0.0], [1.0], [0.1], [0.9]], [0, 1, 0, 1], numeric_schema(1))
        result = rank(ds, RankConfig(m=4, k=1, seed=0))
        assert result.ranking.tolist() == [0]

    def test_nominal_copy_of_class_ranks_first(self):
        rng = np.random.default_rng(23)
        n = 200
        labels = rng.integers(0, 2, size=n)
        vals = np.column_stack(
            [labels.astype(float)] + [rng.uniform(0, 1, size=n) for _ in range(3)]
        )
        feats = (FeatureMeta(name="f0", kind=FeatureKind.NOMINAL, index=0),) + tuple(
            FeatureMeta(name=f"f{j}", kind=FeatureKind.NUMERIC, index=j)
            for j in range(1, 4)
        )
        schema = Schema(features=feats, class_labels=("a", "b"))
        ds = tiny_dataset(vals, labels, schema, partitions=2)
        result = rank(ds, RankConfig(m=100, k=5, seed=1))
        assert result.ranking[0] == 0
        assert result.weights.values[0] == pytest.approx(1.0, abs=1e-9)

    def test_label_independent_features_score_near_zero(self):
        spec = SynthSpec(n=1000, informative=0, noise=10, seed=4)
        ds = make_dataset(spec, partitions=2)
        result = rank(ds, RankConfig(m=200, k=10, seed=0))
        assert np.max(np.abs(result.weights.values)) < 0.05

    def test_requires_schema(self):
        ds = PartitionedDataset.from_blocks([InstanceBlock([0], [0], [[0.0]])])
        with pytest.raises(ValueError, match="schema"):
            rank(ds, RankConfig(m=1, k=1, seed=0))

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_schema_named(self, label):
        # two classes: a label of 2 or -1 is no class of the schema
        blocks = [InstanceBlock([0, 1], [0, 1], [[0.0], [1.0]]), InstanceBlock([2, 3], [1, label], [[0.2], [0.8]])]
        with pytest.raises(EngineError, match=rf"partition 1 has class label {label}, outside \[0, 2\)"):
            rank(PartitionedDataset.from_blocks(blocks, schema=numeric_schema(1)), RankConfig(m=2, k=1, seed=0))

    def test_result_carries_run_facts(self):
        ds = tiny_dataset([[0.0], [1.0], [0.2], [0.8]], [0, 1, 0, 1], numeric_schema(1))
        cfg = RankConfig(m=2, k=1, seed=7)
        result = rank(ds, cfg)
        assert result.n == 4
        assert result.config is cfg
        assert len(result.samples) == 2
        assert result.priors.counts.tolist() == [2, 2]


class TestWeightsCsv:
    def test_golden_file(self, tmp_path):
        from direlieff.model import WeightVector

        schema = numeric_schema(2)
        weights = WeightVector(np.array([0.25, -0.5]))
        path = tmp_path / "w.csv"
        write_weights_csv(path, schema, weights, np.array([0, 1]))
        assert path.read_bytes() == (
            b"feature_index,feature_name,weight,rank\r\n"
            b"0,f0,0.25,1\r\n"
            b"1,f1,-0.5,2\r\n"
        )

    def test_round_trip(self, tmp_path):
        from direlieff.model import WeightVector

        schema = numeric_schema(3)
        weights = WeightVector(np.array([0.1, 0.7, -0.3]))
        ranking = np.array([1, 0, 2])
        path = tmp_path / "w.csv"
        write_weights_csv(path, schema, weights, ranking)
        rows = read_weights_csv(path)
        assert [r["feature_index"] for r in rows] == [1, 0, 2]
        assert [r["rank"] for r in rows] == [1, 2, 3]
        assert rows[0]["weight"] == 0.7

    def test_equal_weights_identical_bytes(self, tmp_path):
        ds = tiny_dataset(
            [[0.0, 5.0], [1.0, 3.0], [0.1, 4.0], [0.9, 6.0]],
            [0, 1, 0, 1],
            numeric_schema(2),
        )
        cfg = RankConfig(m=4, k=1, seed=0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            result = rank(ds, cfg)
            write_weights_csv(path, ds.schema, result.weights, result.ranking)
        assert p1.read_bytes() == p2.read_bytes()
