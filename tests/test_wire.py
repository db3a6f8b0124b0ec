"""The wire codec, and one decoder property over every message it carries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import random_mixed_block, wire_damage
from direlieff.cluster import decode_assignment, encode_assignment
from direlieff.model import DiffConfig, DiffMode, FeatureRange
from direlieff.stages import FETCH, PRIORS, RANGES, STAGES, FetchParams, NeighborParams
from direlieff.wire import pack, unpack

f8, i8, i4, u1 = np.float64, np.int64, np.int32, np.uint8

# the wire arrays of each message, as its decoder expects them
LAYOUTS = {
    ("ranges", "params"): (),
    ("ranges", "result"): (f8, f8),
    ("priors", "params"): (),
    ("priors", "result"): (i8,),
    ("fetch", "params"): (i8, i8),
    ("fetch", "result"): (i8, i4, f8),
    ("neighbors", "params"): (i8, f8, i8, i4, f8, f8, f8),
    ("neighbors", "result"): (i8, i8, f8, i8, f8),
    ("assign", None): (u1, i8, i8, i8, i4, f8),
}


class TestPackUnpack:
    def test_layout(self):
        buf = pack(np.array([1, -2]), [np.array([3], i4), np.array([], i4), np.array([4], i4)])
        assert buf == (
            (2).to_bytes(8, "big") + (1).to_bytes(8, "big", signed=True) + (-2).to_bytes(8, "big", signed=True)
            + (2).to_bytes(8, "big") + (3).to_bytes(4, "big") + (4).to_bytes(4, "big")
        )
        ints, halves = unpack(buf, i8, i4)
        assert ints.tolist() == [1, -2] and halves.tolist() == [3, 4]
        assert ints.dtype == i8 and halves.dtype == i4

    def test_floats_keep_their_bits(self):
        bits = np.array([0x7FF8000000000001, 0x8000000000000000, 0x3FB999999999999A], dtype=np.uint64)
        buf = pack(bits.view(f8))
        (back,) = unpack(buf, f8)
        assert np.array_equal(back.view(np.uint64), bits)
        # a big-endian dtype reads the buffer in place
        (view,) = unpack(buf, ">f8")
        assert np.array_equal(view.astype(f8).view(np.uint64), bits) and not view.flags.writeable

    def test_hostile_count_rejected_before_reading(self):
        with pytest.raises(ValueError, match="overruns"):
            unpack((2**64 - 1).to_bytes(8, "big"), f8)

    def test_any_memory_order_packs_as_c_order(self):
        fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        strided = np.arange(30, dtype=i4)[::4]
        assert not fortran.flags.c_contiguous and not strided.flags.c_contiguous
        assert pack(fortran, strided) == pack(np.ascontiguousarray(fortran), strided.copy())
        assert pack([fortran, strided.astype(f8)]) == pack(np.concatenate([fortran.ravel(), strided]).astype(f8))

    def test_empty_message(self):
        assert pack() == b"" and unpack(b"") == []
        with pytest.raises(ValueError, match="trailing"):
            unpack(b"\x00")


def codec_case(stage_name, part, seed):
    """(message, decode, re-encode) of one codec on random data."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 4))
    schema, block = random_mixed_block(rng, int(rng.integers(1, 9)), int(rng.integers(0, 3)), 1, c)
    if stage_name == "assign":
        cuts = np.sort(rng.integers(0, len(block) + 1, size=2))
        bounds = [0, *cuts.tolist(), len(block)]
        gidx = np.sort(rng.choice(10, size=3, replace=False)).tolist()
        parts = [(g, block.slice(lo, hi)) for g, lo, hi in zip(gidx, bounds, bounds[1:])]
        buf = encode_assignment(schema, parts)
        return buf, decode_assignment, lambda got: encode_assignment(*got)
    stage = STAGES[stage_name]
    params = None
    if stage_name == "fetch":
        ends = np.cumsum([len(block), *rng.integers(0, 5, size=int(rng.integers(0, 3)))])
        positions = np.sort(rng.choice(ends[-1], size=int(rng.integers(0, ends[-1] + 1)), replace=False))
        params = FetchParams(positions, ends)
    elif stage_name == "neighbors":
        mask = schema.numeric_mask()
        ranges = FeatureRange(block.values.min(axis=0), block.values.max(axis=0), mask)
        cfg = DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6) if rng.random() < 0.5 else DiffConfig()
        samples = block.slice(0, int(rng.integers(1, len(block) + 1)))
        params = NeighborParams(samples, int(rng.integers(1, 4)), ranges, cfg)
    if part == "params":
        return (
            stage.encode_params(params, schema),
            lambda buf: stage.decode_params(buf, schema),
            lambda got: stage.encode_params(got, schema),
        )
    result = stage.run_block(stage.make_zero(schema, params), block, params, schema, 0)
    return (
        stage.encode_result(result, schema),
        lambda buf: stage.decode_result(buf, schema, params),
        lambda got: stage.encode_result(got, schema),
    )


class TestDecoders:
    @pytest.mark.parametrize("stage_name, part", list(LAYOUTS), ids=[f"{s}-{p}" if p else s for s, p in LAYOUTS])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_damage(self, stage_name, part, seed, data):
        buf, decode, encode = codec_case(stage_name, part, seed)
        assert encode(decode(buf)) == buf
        for bad in wire_damage(buf, LAYOUTS[stage_name, part], data):
            with pytest.raises(ValueError):
                decode(bad)

    def test_layouts_cover_every_stage(self):
        assert {s for s, _ in LAYOUTS} == {*STAGES, "assign"}

    @pytest.fixture
    def schema(self):
        return random_mixed_block(np.random.default_rng(3), 4, 2, 1, 3)[0]

    def test_fetched_label_out_of_range_rejected(self, schema):
        for label in (-1, schema.num_classes):
            buf = pack(np.array([5]), np.array([label], i4), np.zeros(schema.num_features))
            with pytest.raises(ValueError, match="label"):
                FETCH.decode_result(buf, schema, None)

    def test_priors_of_wrong_length_rejected(self, schema):
        for counts in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="priors"):
                PRIORS.decode_result(pack(np.array(counts)), schema, None)
        with pytest.raises(ValueError, match="priors"):
            PRIORS.decode_result(pack(np.array([1, -1, 3])), schema, None)

    def test_nan_range_rejected(self, schema):
        a = schema.num_features
        good = np.zeros(a)
        for mins, maxs in ((np.full(a, np.nan), good), (good, np.full(a, np.nan)), (good[:-1], good[:-1])):
            with pytest.raises(ValueError, match="ranges"):
                RANGES.decode_result(pack(mins, maxs), schema, None)
