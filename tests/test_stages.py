"""Stage registry: block folds against plain numpy folds, codec round trips."""

import numpy as np
import pytest

from _support import brute_force_entries, grid_entries, random_mixed_block
from direlieff.model import DiffConfig, DiffMode, FeatureRange, InstanceBlock
from direlieff.stages import (
    FETCH,
    NEIGHBORS,
    PRIORS,
    RANGES,
    STAGES,
    FetchParams,
    NeighborParams,
)


@pytest.fixture(params=[0, 1, 2])
def dataset(request):
    rng = np.random.default_rng(100 + request.param)
    schema, block = random_mixed_block(rng, n=60, a_num=3, a_nom=2, c=3)
    return schema, block


class TestRegistry:
    def test_all_stages_registered(self):
        assert set(STAGES) == {"ranges", "priors", "fetch", "neighbors"}
        for name, stage in STAGES.items():
            assert stage.name == name


class TestRangesStage:
    def test_block_equals_seq_exactly(self, dataset):
        schema, block = dataset
        zero = RANGES.make_zero(schema, None)
        mins, maxs = RANGES.run_block(zero, block, None, schema, 0)
        assert np.array_equal(mins, block.values.min(axis=0))
        assert np.array_equal(maxs, block.values.max(axis=0))

    @pytest.mark.parametrize("rows", [1, 5, 15, 16, 17, 32, 47, 250])
    def test_folded_rows_equal_row_by_row(self, rows):
        # fewer than 16 rows, whole groups of 16, and a remainder
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 7)) * 10.0 ** rng.integers(-3, 4, size=(rows, 7))
        values[:, 3] = rng.choice([-0.0, 0.0], size=rows)  # both zeros in one column
        schema, _ = random_mixed_block(rng, n=2, a_num=7, a_nom=0, c=2)
        block = InstanceBlock(np.arange(rows), np.zeros(rows, dtype=np.int32), values)
        mins, maxs = RANGES.run_block(RANGES.make_zero(schema, None), block, None, schema, 0)
        # equal under ==; a column of mixed zeros may keep either sign
        assert (mins == values.min(axis=0)).all()
        assert (maxs == values.max(axis=0)).all()
        assert mins[3] == 0.0 and maxs[3] == 0.0

    def test_comb_is_elementwise_minmax(self, dataset):
        schema, block = dataset
        cut = len(block) // 2
        left = RANGES.run_block(RANGES.make_zero(schema, None), block.slice(0, cut), None, schema, 0)
        right = RANGES.run_block(RANGES.make_zero(schema, None), block.slice(cut, len(block)), None, schema, 1)
        whole = RANGES.run_block(RANGES.make_zero(schema, None), block, None, schema, 0)
        merged = RANGES.comb(left, right)
        assert np.array_equal(merged[0], whole[0])
        assert np.array_equal(merged[1], whole[1])

    def test_empty_block_is_identity(self, dataset):
        schema, block = dataset
        zero = RANGES.make_zero(schema, None)
        out = RANGES.run_block(zero, block.slice(0, 0), None, schema, 0)
        assert np.array_equal(out[0], zero[0])

    def test_codec_exact(self, dataset):
        schema, block = dataset
        res = RANGES.run_block(RANGES.make_zero(schema, None), block, None, schema, 0)
        back = RANGES.decode_result(RANGES.encode_result(res, schema), schema, None)
        assert np.array_equal(back[0], res[0])
        assert np.array_equal(back[1], res[1])


class TestPriorsStage:
    def test_block_equals_seq(self, dataset):
        schema, block = dataset
        fast = PRIORS.run_block(PRIORS.make_zero(schema, None), block, None, schema, 0)
        assert np.array_equal(fast, np.bincount(block.labels, minlength=schema.num_classes))
        assert fast.sum() == len(block)

    def test_codec(self, dataset):
        schema, block = dataset
        res = PRIORS.run_block(PRIORS.make_zero(schema, None), block, None, schema, 0)
        back = PRIORS.decode_result(PRIORS.encode_result(res, schema), schema, None)
        assert np.array_equal(back, res)


class TestFetchStage:
    def test_picks_by_partition_and_offset(self, dataset):
        schema, block = dataset
        params = FetchParams(picks={0: [4, 10], 2: [3]})
        out = FETCH.run_block(FETCH.make_zero(schema, params), block, params, schema, 0)
        out = FETCH.run_block(out, block, params, schema, 1)  # no picks here
        out = FETCH.run_block(out, block, params, schema, 2)
        assert isinstance(out, InstanceBlock)
        assert out.ids.tolist() == [int(block.ids[4]), int(block.ids[10]), int(block.ids[3])]
        assert np.array_equal(out.values, block.values[[4, 10, 3]])

    def test_codecs_round_trip(self, dataset):
        schema, block = dataset
        params = FetchParams(picks={3: [1, 2], 1: [0]})
        back = FETCH.decode_params(FETCH.encode_params(params, schema), schema)
        assert back.picks == params.picks
        result = block.take([4, 7])
        buf = FETCH.encode_result(result, schema)
        decoded = FETCH.decode_result(buf, schema, params)
        assert decoded.ids.tolist() == result.ids.tolist()
        assert decoded.labels.tolist() == result.labels.tolist()
        assert np.array_equal(decoded.values, result.values)
        with pytest.raises(ValueError, match="trailing"):
            FETCH.decode_result(buf + b"\x00", schema, params)


class TestNeighborsStage:
    def make_params(self, schema, block, kk=3, mode=DiffMode.LINEAR):
        mask = schema.numeric_mask()
        if mask.any():
            ranges = FeatureRange(block.values.min(axis=0), block.values.max(axis=0), mask)
        else:
            nan = np.full(schema.num_features, np.nan)
            ranges = FeatureRange(nan, nan, mask)
        samples = InstanceBlock(block.ids[:4], block.labels[:4], block.values[:4])
        cfg = DiffConfig(numeric_mode=mode)
        return NeighborParams.build(schema, samples, kk, ranges, cfg)

    @pytest.mark.parametrize("mode", [DiffMode.LINEAR, DiffMode.RAMP])
    def test_block_equals_seq_bitwise(self, dataset, mode):
        schema, block = dataset
        params = self.make_params(schema, block, mode=mode)
        fast = NEIGHBORS.run_block(
            NEIGHBORS.make_zero(schema, params), block, params, schema, 0
        )
        s = params.samples
        want = brute_force_entries(
            block, s.ids, s.values, params.numeric_mask, params.ranges, params.cfg, schema.num_classes, params.k
        )
        assert grid_entries(fast) == want

    def test_params_round_trip_exact(self, dataset):
        schema, block = dataset
        params = self.make_params(schema, block, kk=7, mode=DiffMode.RAMP)
        back = NEIGHBORS.decode_params(NEIGHBORS.encode_params(params, schema), schema)
        assert back.k == params.k
        assert back.cfg == params.cfg
        assert back.ranges == params.ranges
        assert np.array_equal(back.samples.ids, params.samples.ids)
        assert np.array_equal(back.samples.labels, params.samples.labels)
        assert np.array_equal(back.samples.values, params.samples.values)

    def test_result_round_trip_exact(self, dataset):
        schema, block = dataset
        params = self.make_params(schema, block)
        res = NEIGHBORS.run_block(
            NEIGHBORS.make_zero(schema, params), block, params, schema, 0
        )
        back = NEIGHBORS.decode_result(NEIGHBORS.encode_result(res, schema), schema, params)
        assert grid_entries(back) == grid_entries(res)
