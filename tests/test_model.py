"""Domain types and the per-feature difference math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direlieff.model import (
    ClassPriors,
    DiffConfig,
    DiffMode,
    FeatureKind,
    FeatureMeta,
    FeatureRange,
    Instance,
    InstanceBlock,
    ModelError,
    RankConfig,
    Schema,
    WeightVector,
    diff,
    feature_diffs,
    rank_features,
)
from direlieff.synth import SynthSpec, make_block


def make_schema(kinds, classes=("a", "b")):
    feats = tuple(
        FeatureMeta(name=f"f{i}", kind=k, index=i) for i, k in enumerate(kinds)
    )
    return Schema(features=feats, class_labels=tuple(classes))


class TestSchema:
    def test_counts_and_masks(self):
        sch = make_schema([FeatureKind.NUMERIC, FeatureKind.NOMINAL], ("x", "y", "z"))
        assert sch.num_features == 2
        assert sch.num_classes == 3
        assert sch.numeric_mask().tolist() == [True, False]

    def test_needs_two_classes(self):
        with pytest.raises(ModelError):
            make_schema([FeatureKind.NUMERIC], ("only",))

    def test_duplicate_feature_names(self):
        feats = (
            FeatureMeta("same", FeatureKind.NUMERIC, 0),
            FeatureMeta("same", FeatureKind.NUMERIC, 1),
        )
        with pytest.raises(ModelError):
            Schema(features=feats, class_labels=("a", "b"))

    def test_indices_must_be_dense(self):
        feats = (FeatureMeta("f0", FeatureKind.NUMERIC, 1),)
        with pytest.raises(ModelError):
            Schema(features=feats, class_labels=("a", "b"))

    def test_dict_round_trip(self):
        sch = make_schema([FeatureKind.NUMERIC, FeatureKind.NOMINAL], ("n", "p"))
        assert Schema.from_dict(sch.to_dict()) == sch


class TestInstanceBlock:
    def test_sequence_protocol(self):
        block = InstanceBlock(
            np.array([4, 7]), np.array([0, 1]), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        assert len(block) == 2
        inst = block[1]
        assert (inst.id, inst.label, inst.values.tolist()) == (7, 1, [3.0, 4.0])
        assert [i.id for i in block] == [4, 7]

    def test_arrays_frozen(self):
        block = InstanceBlock(np.array([0]), np.array([0]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            block.values[0, 0] = 9.0

    def test_concat_slice_round_trip(self):
        block = InstanceBlock(
            np.arange(5), np.zeros(5, dtype=np.int32), np.arange(10.0).reshape(5, 2)
        )
        back = InstanceBlock.concat([block.slice(0, 2), block.slice(2, 5)])
        assert np.array_equal(back.ids, block.ids)
        assert np.array_equal(back.values, block.values)

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            InstanceBlock(np.array([0, 1]), np.array([0]), np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ModelError, match="non-finite .* instance 8, feature 1"):
            InstanceBlock(np.array([7, 8]), np.array([0, 1]), values)

    def test_nan_in_unsampled_row_fails_before_ranking(self):
        # a NaN here once made feature 1's range NaN, and rank() scored the
        # feature 0.0 instead of failing
        _, block = make_block(SynthSpec(n=20000, informative=2, noise=3, seed=1))
        values = block.values.copy()
        values[5, 1] = np.nan
        with pytest.raises(ModelError, match="instance 5, feature 1"):
            InstanceBlock(block.ids, block.labels, values)


class TestFeatureRange:
    def test_degenerate_width_divides_to_zero(self):
        mask = np.array([True])
        rng = FeatureRange(np.array([2.0]), np.array([2.0]), mask)
        assert rng.safe_width[0] == np.inf
        assert abs(5.0 - 2.0) / rng.safe_width[0] == 0.0

    def test_nominal_slots_are_nan(self):
        mask = np.array([True, False])
        rng = FeatureRange(np.array([0.0, 3.0]), np.array([1.0, 9.0]), mask)
        assert np.isnan(rng.mins[1]) and np.isnan(rng.maxs[1])
        assert rng.safe_width[1] == np.inf

    def test_min_above_max_rejected(self):
        with pytest.raises(ModelError):
            FeatureRange(np.array([2.0]), np.array([1.0]), np.array([True]))

    def test_equality_ignores_nan_slots(self):
        mask = np.array([True, False])
        r1 = FeatureRange(np.array([0.0, 5.0]), np.array([1.0, 6.0]), mask)
        r2 = FeatureRange(np.array([0.0, 7.0]), np.array([1.0, 8.0]), mask)
        assert r1 == r2  # nominal slots carry no range


class TestClassPriors:
    def test_priors_sum_to_one(self):
        pri = ClassPriors(np.array([3, 1]))
        assert pri.n == 4
        assert pri.prior(0) == 0.75
        assert pri.prior(1) == 0.25

    def test_zero_count_class(self):
        pri = ClassPriors(np.array([4, 0]))
        assert pri.prior(1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ClassPriors(np.array([0, 0]))


class TestDiffConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ModelError):
            DiffConfig(t_eq=0.2, t_diff=0.1)
        with pytest.raises(ModelError):
            DiffConfig(t_eq=-0.1, t_diff=0.5)
        with pytest.raises(ModelError):
            DiffConfig(t_eq=0.5, t_diff=1.5)

    def test_defaults(self):
        cfg = DiffConfig()
        assert cfg.numeric_mode is DiffMode.LINEAR
        assert (cfg.t_eq, cfg.t_diff) == (0.05, 0.10)


class TestRankConfig:
    def test_positive_m_and_k(self):
        with pytest.raises(ModelError):
            RankConfig(m=0)
        with pytest.raises(ModelError):
            RankConfig(k=0)


def _pair(v1, v2, kind=FeatureKind.NUMERIC, lo=0.0, hi=1.0):
    sch = make_schema([kind])
    mask = sch.numeric_mask()
    ranges = FeatureRange(np.array([lo]), np.array([hi]), mask)
    i1 = Instance(id=0, label=0, values=np.array([v1]))
    i2 = Instance(id=1, label=1, values=np.array([v2]))
    return i1, i2, ranges, mask


class TestDiff:
    def test_nominal_equality(self):
        i1, i2, ranges, mask = _pair(2.0, 2.0, FeatureKind.NOMINAL)
        assert diff(0, i1, i2, ranges, DiffConfig(), mask) == 0.0
        i1, i2, ranges, mask = _pair(2.0, 3.0, FeatureKind.NOMINAL)
        assert diff(0, i1, i2, ranges, DiffConfig(), mask) == 1.0

    def test_numeric_normalization(self):
        i1, i2, ranges, mask = _pair(2.0, 6.0, lo=0.0, hi=10.0)
        assert diff(0, i1, i2, ranges, DiffConfig(), mask) == pytest.approx(0.4)

    def test_constant_feature_diff_zero(self):
        i1, i2, ranges, mask = _pair(5.0, 5.0, lo=5.0, hi=5.0)
        assert diff(0, i1, i2, ranges, DiffConfig(), mask) == 0.0

    def test_ramp_regions(self):
        cfg = DiffConfig(numeric_mode=DiffMode.RAMP, t_eq=0.05, t_diff=0.10)
        cases = [
            (0.03, 0.0),  # below the equality threshold
            (0.05, 0.0),  # at the threshold, still equal
            (0.075, 0.5),  # halfway along the ramp
            (0.10, 1.0),  # top of the ramp
            (0.2, 1.0),  # beyond the difference threshold
        ]
        for gap, expect in cases:
            i1, i2, ranges, mask = _pair(0.0, gap, lo=0.0, hi=1.0)
            assert diff(0, i1, i2, ranges, cfg, mask) == pytest.approx(expect)

    @given(
        vals=st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        ramp=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_diff_bounded_and_symmetric(self, vals, ramp):
        a = len(vals)
        mask = np.ones(a, dtype=bool)
        v1 = np.array([p[0] for p in vals])
        v2 = np.array([p[1] for p in vals])
        lo = np.minimum(v1, v2)
        hi = np.maximum(v1, v2)
        ranges = FeatureRange(lo, hi, mask)
        cfg = DiffConfig(numeric_mode=DiffMode.RAMP if ramp else DiffMode.LINEAR)
        fwd = feature_diffs(v1, v2, mask, ranges, cfg)[0]
        bwd = feature_diffs(v2, v1, mask, ranges, cfg)[0]
        assert np.all(fwd >= 0.0) and np.all(fwd <= 1.0)
        assert np.array_equal(fwd, bwd)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_scalar_diff_matches_vectorized_row(self, data):
        a = data.draw(st.integers(1, 5))
        rows = data.draw(st.integers(1, 4))
        elems = st.floats(-50, 50, allow_nan=False)
        mat = np.array(
            [[data.draw(elems) for _ in range(a)] for _ in range(rows)]
        )
        ref = np.array([data.draw(elems) for _ in range(a)])
        kinds = [
            data.draw(st.sampled_from([FeatureKind.NUMERIC, FeatureKind.NOMINAL]))
            for _ in range(a)
        ]
        sch = make_schema(kinds)
        mask = sch.numeric_mask()
        lo = np.minimum(mat.min(axis=0), ref)
        hi = np.maximum(mat.max(axis=0), ref)
        ranges = FeatureRange(lo, hi, mask)
        cfg = DiffConfig(
            numeric_mode=data.draw(st.sampled_from([DiffMode.LINEAR, DiffMode.RAMP]))
        )
        block = feature_diffs(mat, ref, mask, ranges, cfg)
        ref_inst = Instance(id=10**6, label=0, values=ref)
        for r in range(rows):
            inst = Instance(id=r, label=0, values=mat[r])
            for feature in range(a):
                scalar = diff(feature, inst, ref_inst, ranges, cfg, mask)
                assert scalar == block[r, feature]  # bit-exact by construction


class TestFeatureDiffsBroadcast:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sample_block_matches_per_sample_calls(self, data):
        a = data.draw(st.integers(1, 12))
        rows = data.draw(st.integers(1, 6))
        g = data.draw(st.integers(1, 4))
        elems = st.floats(-50, 50, allow_nan=False)
        mat = np.array([[data.draw(elems) for _ in range(a)] for _ in range(rows)])
        samples = np.array([[data.draw(elems) for _ in range(a)] for _ in range(g)])
        mask = np.array([data.draw(st.booleans()) for _ in range(a)])
        mat[:, ~mask] = np.round(mat[:, ~mask])
        samples[:, ~mask] = np.round(samples[:, ~mask])
        both = np.concatenate([mat, samples])
        ranges = FeatureRange(both.min(axis=0), both.max(axis=0), mask)
        cfg = DiffConfig(
            numeric_mode=data.draw(st.sampled_from([DiffMode.LINEAR, DiffMode.RAMP]))
        )
        tile = feature_diffs(mat[:, None, :], samples, mask, ranges, cfg)
        assert tile.shape == (rows, g, a)
        out = np.empty((rows, g, a))
        assert feature_diffs(mat[:, None, :], samples, mask, ranges, cfg, out) is out
        for j in range(g):
            one = feature_diffs(mat, samples[j], mask, ranges, cfg)
            assert np.array_equal(tile[:, j].view(np.uint64), one.view(np.uint64))
            assert np.array_equal(out[:, j].view(np.uint64), one.view(np.uint64))
            # the neighbour pass sums the tile; the oracle sums per sample
            assert np.array_equal(tile.sum(axis=-1)[:, j], one.sum(axis=-1))

    def test_ramp_boundaries_match_scalar_diff(self):
        cfg = DiffConfig(DiffMode.RAMP, t_eq=0.05, t_diff=0.1)
        mask = np.array([True])
        ranges = FeatureRange(np.array([0.0]), np.array([1.0]), mask)
        points = [0.0, 0.05, 0.1, 1.0]
        points += [np.nextafter(p, d) for p in (0.05, 0.1) for d in (0.0, 1.0)]
        origin = Instance(id=0, label=0, values=np.array([0.0]))
        got = feature_diffs(np.array(points)[:, None], np.array([0.0]), mask, ranges, cfg)[:, 0]
        for x, d in zip(points, got):
            want = diff(0, Instance(id=1, label=0, values=np.array([x])), origin, ranges, cfg, mask)
            assert d == want and np.signbit(d) == np.signbit(want)
        assert got[1] == 0.0 and got[2] == 1.0


class TestWeightVector:
    def test_clamps_rounding_overshoot(self):
        w = WeightVector(np.array([1.0 + 5e-10, -1.0 - 5e-10]))
        assert w.values.tolist() == [1.0, -1.0]

    def test_rejects_real_overshoot(self):
        with pytest.raises(ModelError):
            WeightVector(np.array([1.1]))

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            WeightVector(np.array([np.nan]))

    def test_equality(self):
        assert WeightVector(np.array([0.5])) == WeightVector(np.array([0.5]))
        assert WeightVector(np.array([0.5])) != WeightVector(np.array([0.25]))


class TestRankFeatures:
    def test_descending_with_index_ties(self):
        w = WeightVector(np.array([0.3, 0.7, 0.3, -0.1]))
        assert rank_features(w).tolist() == [1, 0, 2, 3]

    def test_single_feature(self):
        assert rank_features(WeightVector(np.array([0.0]))).tolist() == [0]
