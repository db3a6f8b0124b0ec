"""The dense neighbour matrix: selection order, merging, and wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import brute_force_entries, grid_entries
from direlieff import neighbors
from direlieff.model import DiffConfig, DiffMode, FeatureRange, InstanceBlock
from direlieff.neighbors import NeighborMatrix

# one numeric feature on [0, 1]: a row's distance to a sample at 0.0 is its value
UNIT_MASK = np.ones(1, dtype=bool)
UNIT_RANGE = FeatureRange(np.zeros(1), np.ones(1), UNIT_MASK)


def offers(entries, k=3):
    """One cell offered each (distance, id) pair as its own one-row block."""
    nn = NeighborMatrix(1, [10**6], k, 1)
    for dist, iid in entries:
        block = InstanceBlock([iid], [0], [[dist]])
        nn.offer_block(block, np.zeros((1, 1)), UNIT_MASK, UNIT_RANGE, DiffConfig())
    return nn


def keys(nn):
    return [(d, i) for d, i, _, _ in grid_entries(nn)[0][0]]


class TestCellOrder:
    def test_keeps_k_smallest(self):
        nn = offers([(0.5, 1), (0.1, 2), (0.3, 3), (0.2, 4), (0.4, 5)])
        assert keys(nn) == [(0.1, 2), (0.2, 4), (0.3, 3)]

    def test_under_capacity_keeps_all(self):
        nn = offers([(0.9, 1), (0.8, 2)])
        assert keys(nn) == [(0.8, 2), (0.9, 1)]
        assert nn.count[0, 0] == 2
        assert nn.dist[0, 0, 2] == np.finfo(np.float64).max  # the open slot

    def test_distance_tie_prefers_smaller_id(self):
        nn = offers([(0.1, 10), (0.1, 5), (0.1, 7), (0.1, 2)])
        assert keys(nn) == [(0.1, 2), (0.1, 5), (0.1, 7)]

    def test_boundary_tie_not_replaced(self):
        # equal distance to the current worst, larger id: the incumbent stays
        assert keys(offers([(0.1, 1), (0.2, 2), (0.3, 3), (0.3, 9)])) == [(0.1, 1), (0.2, 2), (0.3, 3)]
        # a smaller id wins the tie
        assert keys(offers([(0.1, 1), (0.2, 4), (0.3, 3), (0.3, 2)])) == [(0.1, 1), (0.2, 4), (0.3, 2)]


def toy_matrix_inputs(n=12, a=2, c=2, m=3, seed=0):
    rng = np.random.default_rng(seed)
    block = InstanceBlock(
        np.arange(n, dtype=np.int64),
        rng.integers(0, c, size=n).astype(np.int32),
        rng.uniform(0, 1, size=(n, a)),
    )
    sample_rows = rng.choice(n, size=m, replace=False)
    samples = block.slice(0, n)  # full view
    sample_block = InstanceBlock(
        block.ids[sample_rows], block.labels[sample_rows], block.values[sample_rows]
    )
    mask = np.ones(a, dtype=bool)
    ranges = FeatureRange(block.values.min(axis=0), block.values.max(axis=0), mask)
    return block, sample_block, mask, ranges


class TestNeighborMatrix:
    def test_block_path_equals_instance_path(self):
        # the reference sorts every instance's distance to each sample
        block, sample_block, mask, ranges = toy_matrix_inputs(n=40, a=3, c=3, m=5, seed=4)
        cfg = DiffConfig()
        via_block = NeighborMatrix(3, sample_block.ids, 4, 3)
        bufsize = np.getbufsize()
        via_block.offer_block(block, sample_block.values, mask, ranges, cfg)
        assert np.getbufsize() == bufsize  # the kernel's buffer size is restored
        want = brute_force_entries(block, sample_block.ids, sample_block.values, mask, ranges, cfg, 3, 4)
        assert grid_entries(via_block) == want  # distances bit-identical

    def test_self_excluded_by_id_only(self):
        # two rows with identical values but different ids: the duplicate stays
        block = InstanceBlock(
            np.array([0, 1, 2]),
            np.array([0, 0, 0]),
            np.array([[1.0], [1.0], [5.0]]),
        )
        mask = np.ones(1, dtype=bool)
        ranges = FeatureRange(np.array([1.0]), np.array([5.0]), mask)
        sample = block.slice(0, 1)
        nn = NeighborMatrix(1, sample.ids, 2, 1)
        nn.offer_block(block, sample.values, mask, ranges, DiffConfig())
        got = [(d, i) for d, i, _, _ in grid_entries(nn)[0][0]]
        assert got == [(0.0, 1), (1.0, 2)]

    def test_blocks_offered_in_turn_equal_full_sort_of_union(self):
        # the second block ties the first at every distance with smaller ids,
        # so each of its rows enters a full cell at the cell's bound
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2, size=(40, 3)).astype(np.float64)
        labels = rng.integers(0, 2, size=40)
        mask = np.ones(3, dtype=bool)
        ranges = FeatureRange(np.zeros(3), np.ones(3), mask)
        first = InstanceBlock(np.arange(100, 140), labels, values)
        second = InstanceBlock(np.arange(0, 40), labels, values)
        union = InstanceBlock(np.arange(0, 80), np.tile(labels, 2), np.tile(values, (2, 1)))
        sample_ids, sample_values = [500, 501], values[:2] + 0.5
        nn = NeighborMatrix(2, sample_ids, 4, 3)
        for block in (first, second):
            nn.offer_block(block, sample_values, mask, ranges, DiffConfig())
        want = brute_force_entries(union, sample_ids, sample_values, mask, ranges, DiffConfig(), 2, 4)
        assert grid_entries(nn) == want

    def test_merge_partition_split_invariant(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=30, a=2, c=2, m=4, seed=9)
        cfg = DiffConfig()
        whole = NeighborMatrix(2, sample_block.ids, 3, 2)
        whole.offer_block(block, sample_block.values, mask, ranges, cfg)
        for cut in (1, 10, 15, 29):
            left = NeighborMatrix(2, sample_block.ids, 3, 2)
            left.offer_block(block.slice(0, cut), sample_block.values, mask, ranges, cfg)
            right = NeighborMatrix(2, sample_block.ids, 3, 2)
            right.offer_block(block.slice(cut, 30), sample_block.values, mask, ranges, cfg)
            assert grid_entries(left.merge(right)) == grid_entries(whole)

    def test_encode_decode_round_trip_exact(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=25, a=4, c=3, m=3, seed=2)
        nn = NeighborMatrix(3, sample_block.ids, 5, 4)
        nn.offer_block(block, sample_block.values, mask, ranges, DiffConfig())
        back = NeighborMatrix.decode(nn.encode(), sample_block.ids, 3, 5, 4)
        assert grid_entries(back) == grid_entries(nn)

    def test_decode_rejects_sample_mismatch(self):
        _, sample_block, mask, ranges = toy_matrix_inputs()
        nn = NeighborMatrix(2, sample_block.ids, 2, 2)
        buf = nn.encode()
        with pytest.raises(ValueError):
            NeighborMatrix.decode(buf, sample_block.ids[:-1], 2, 2, 2)


@st.composite
def neighbor_inputs(draw):
    """Small blocks built to stress the selection: few distinct values and
    duplicated rows (many ties at the k-th distance), nominal columns,
    classes with fewer than k members or none, and samples both inside and
    outside the block."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    a = draw(st.integers(1, 40))
    num_classes = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    levels = draw(st.integers(2, 3))
    mask = rng.random(a) < 0.6
    values = rng.integers(0, levels, size=(n, a)).astype(np.float64)
    values[:, mask] *= rng.uniform(0.5, 2.0)
    # duplicated rows: equal distances to every sample, told apart by id
    values[rng.integers(0, n, size=n // 4)] = values[0]
    # labels drawn from a subset of the classes, so some classes are empty
    present = rng.choice(num_classes, size=int(rng.integers(1, num_classes + 1)), replace=False)
    labels = rng.choice(present, size=n).astype(np.int32)
    ids = rng.permutation(3 * n)[:n] + 100
    block = InstanceBlock(ids, labels, values)

    m = draw(st.integers(1, 12))
    inside = rng.choice(n, size=min(m, n), replace=False)[: int(rng.integers(0, min(m, n) + 1))]
    outside_ids = np.setdiff1d(np.arange(100 + 4 * n), ids)
    extra = rng.choice(outside_ids, size=m - len(inside), replace=False)
    sample_ids = np.concatenate([ids[inside], extra])
    extra_values = rng.integers(0, levels, size=(len(extra), a)).astype(np.float64)
    extra_values[:, mask] *= rng.uniform(0.5, 2.0)
    sample_values = np.concatenate([values[inside], extra_values])
    all_values = np.concatenate([values, sample_values])
    ranges = FeatureRange(all_values.min(axis=0), all_values.max(axis=0), mask)
    ramp = draw(st.booleans())
    cfg = DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6) if ramp else DiffConfig()
    return block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k


class TestOfferBlockSelection:
    @given(inputs=neighbor_inputs())
    @settings(max_examples=300, deadline=None)
    def test_block_path_equals_instance_path_bit_for_bit(self, inputs):
        block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k = inputs
        via_block = NeighborMatrix(num_classes, sample_ids, k, len(mask))
        via_block.offer_block(block, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k)
        assert grid_entries(via_block) == want

    @pytest.mark.parametrize(
        "n, m, a",
        [
            # few samples: tall tiles, one sample per chunk, several row tiles
            (neighbors.TILE_ELEMS * 5 // 4, 2, 5),
            # many samples: short tiles, several sample groups, the last partial
            (4096, 37, 3),
            # a block just over LARGE_BLOCK_ELEMS: tiles and chunks LARGE_SCALE times larger
            (neighbors.LARGE_BLOCK_ELEMS // 21 + 1, 3, 21),
        ],
    )
    def test_multi_tile_block_matches_full_sort(self, n, m, a):
        rng = np.random.default_rng(n + m)
        values = rng.integers(0, 4, size=(n, a)).astype(np.float64)  # heavy ties
        mask = np.array([True] * (a - 1) + [False])
        # shuffled ids: ties in later tiles can still win on a smaller id
        block = InstanceBlock(rng.permutation(n).astype(np.int64) * 2, rng.integers(0, 3, size=n), values)
        pick = rng.choice(n, size=m, replace=False)
        sample_ids = np.concatenate([block.ids[pick[1:]], [2 * n + 1]])  # one outside
        sample_values = values[pick]
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        cfg = DiffConfig()
        rows, g, width = neighbors.tiling(n, m, a)
        # the case exercises several row tiles, and several sample groups or
        # several kernel chunks per group
        assert n > rows
        assert m > g or g > width
        if m > g:
            assert m % g, "the last sample group should be partial"
        nn = NeighborMatrix(3, sample_ids, 5, a)
        nn.offer_block(block, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, 3, 5)
        assert grid_entries(nn) == want

    @pytest.mark.parametrize("a", [130, 257])
    def test_wide_rows_match_full_sort(self, a):
        # above 128 features numpy's pairwise sum splits and recurses
        rng = np.random.default_rng(a)
        n, m = 300, 7
        values = rng.uniform(0, 1, size=(n, a)) * 10.0 ** rng.integers(-6, 6, size=a)
        values[:, ::9] = rng.integers(0, 3, size=(n, len(range(0, a, 9))))
        mask = np.ones(a, dtype=bool)
        mask[::9] = False
        block = InstanceBlock(np.arange(n, dtype=np.int64), rng.integers(0, 3, size=n), values)
        pick = rng.choice(n, size=m, replace=False)
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        for cfg in (DiffConfig(), DiffConfig(DiffMode.RAMP, t_eq=0.1, t_diff=0.4)):
            nn = NeighborMatrix(3, block.ids[pick], 4, a)
            nn.offer_block(block, values[pick], mask, ranges, cfg)
            want = brute_force_entries(block, block.ids[pick], values[pick], mask, ranges, cfg, 3, 4)
            assert grid_entries(nn) == want

    @pytest.mark.parametrize("a", [7, 14, 15, 23, 31, 139])
    def test_single_cell_block_matches_full_sort(self, a):
        # one row against one sample: each kernel chunk holds a single cell
        rng = np.random.default_rng(a)
        values = rng.uniform(0, 1, size=(2, a)) * 10.0 ** rng.integers(-6, 6, size=(2, a))
        mask = np.ones(a, dtype=bool)
        block = InstanceBlock(np.array([3], dtype=np.int64), np.array([0]), values[:1])
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        nn = NeighborMatrix(1, [9], 1, a)
        nn.offer_block(block, values[1:], mask, ranges, DiffConfig())
        want = brute_force_entries(block, [9], values[1:], mask, ranges, DiffConfig(), 1, 1)
        assert grid_entries(nn) == want


class TestPairwiseOrder:
    """`pairwise_sum` must add in the order numpy's own row sum uses; a numpy
    release that changes that order must fail here, not change weights."""

    FEATURE_COUNTS = [*range(1, 140), 200, 257, 1000]

    @pytest.mark.parametrize("bufsize", [np.getbufsize(), neighbors.KERNEL_BUFSIZE])
    def test_matches_row_sum_bit_for_bit(self, bufsize):
        rng = np.random.default_rng(2024)
        failed = []
        for a in self.FEATURE_COUNTS:
            # (samples, rows) planes of 3 x 5 cells, and lone cells
            for shape in ((3, 5), (1, 1)):
                rows = rng.uniform(1, 10, size=(*shape, a)) * 10.0 ** rng.integers(-6, 6, size=(*shape, a))
                want = rows.sum(axis=-1)
                fm = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
                got = np.empty(shape)
                before = np.setbufsize(bufsize)
                try:
                    neighbors.pairwise_sum(fm, got, np.empty((4, *shape)))
                finally:
                    np.setbufsize(before)
                if not np.array_equal(got.view(np.int64), want.view(np.int64)):
                    failed.append((a, shape))
        assert not failed, (
            f"pairwise_sum no longer matches .sum(axis=-1) on numpy {np.__version__} "
            f"for (features, cells) {failed[:5]}: its summation order must follow this numpy"
        )


class TestMatrixFillAndMerge:
    @given(inputs=neighbor_inputs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_partitions_merged_in_any_grouping_equal_one_fill(self, inputs, data):
        # keeps the k smallest (distance, id), the smaller id winning a tie,
        # whichever partition offered it and in whatever grouping it merged
        block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k = inputs
        n = len(block)

        def fill(part):
            nn = NeighborMatrix(num_classes, sample_ids, k, len(mask))
            nn.offer_block(part, sample_values, mask, ranges, cfg)
            return nn

        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5), label="cuts"))
        bounds = [0, *cuts, n]
        parts = [fill(block.slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        while len(parts) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(parts) - 1), min_size=2, max_size=2, unique=True))
            merged = parts[i].merge(parts[j])
            parts = [merged] + [part for at, part in enumerate(parts) if at not in (i, j)]
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k)
        assert grid_entries(fill(block)) == want
        assert grid_entries(parts[0]) == want


def encoded(inputs):
    block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k = inputs
    nn = NeighborMatrix(num_classes, sample_ids, k, len(mask))
    nn.offer_block(block, sample_values, mask, ranges, cfg)
    return nn, nn.encode(), (sample_ids, num_classes, k, len(mask))


def same_matrix(x, y):
    return all(
        np.array_equal(getattr(x, f), getattr(y, f)) and getattr(x, f).dtype == getattr(y, f).dtype
        for f in ("dist", "ids", "values", "count", "sample_ids")
    )


class TestMatrixDecode:
    HEADER = 16  # classes, samples, k, features as big-endian int32

    @given(inputs=neighbor_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_damage(self, inputs, data):
        nn, buf, expected = encoded(inputs)
        assert same_matrix(NeighborMatrix.decode(buf, *expected), nn)
        num_cells = nn.count.size
        counts_end = self.HEADER + 4 * num_cells
        # every truncation of the header and counts, and some of the entries
        payload_cuts = []
        if len(buf) > counts_end:
            payload_cuts = data.draw(st.lists(st.integers(counts_end, len(buf) - 1), max_size=8), label="cuts")
        for cut in [*range(counts_end), *payload_cuts]:
            with pytest.raises(ValueError):
                NeighborMatrix.decode(buf[:cut], *expected)
        with pytest.raises(ValueError):
            NeighborMatrix.decode(buf + bytes([data.draw(st.integers(0, 255))]), *expected)
        # a header field or a cell count set to any other value
        field = data.draw(st.integers(0, 3 + num_cells), label="field")
        at = 4 * field if field < 4 else self.HEADER + 4 * (field - 4)
        old = int.from_bytes(buf[at : at + 4], "big", signed=True)
        new = data.draw(st.integers(-(2**31), 2**31 - 1).filter(lambda v: v != old), label="value")
        bad = buf[:at] + new.to_bytes(4, "big", signed=True) + buf[at + 4 :]
        with pytest.raises(ValueError):
            NeighborMatrix.decode(bad, *expected)

    def test_truncated_and_extended_buffers_rejected(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=20, a=2, c=2, m=3, seed=1)
        nn = NeighborMatrix(2, sample_block.ids, 3, 2)
        nn.offer_block(block, sample_block.values, mask, ranges, DiffConfig())
        buf = nn.encode()
        expected = (sample_block.ids, 2, 3, 2)
        assert grid_entries(NeighborMatrix.decode(buf, *expected)) == grid_entries(nn)
        for cut in range(len(buf)):
            with pytest.raises(ValueError):
                NeighborMatrix.decode(buf[:cut], *expected)
        with pytest.raises(ValueError, match="bytes of entries"):
            NeighborMatrix.decode(buf + b"\x00", *expected)

    @pytest.mark.parametrize(
        "dist, ids",
        [
            ([0.2, 0.1], [1, 2]),
            ([0.1, 0.1], [2, 1]),
            ([0.1, 0.1], [1, 1]),
            ([np.nan, 0.1], [1, 2]),
            ([0.1, np.inf], [1, 2]),
        ],
    )
    def test_cell_out_of_order_rejected(self, dist, ids):
        nn = NeighborMatrix(1, [0], 2, 1)
        nn.count[0, 0] = 2
        nn.dist[0, 0], nn.ids[0, 0] = dist, ids
        with pytest.raises(ValueError, match="ascending"):
            NeighborMatrix.decode(nn.encode(), [0], 1, 2, 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            NeighborMatrix(1, [0], 0, 1)
