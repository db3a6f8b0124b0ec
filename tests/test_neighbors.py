"""Bounded neighbour heaps: selection order, merging, and wire format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import brute_force_entries, grid_entries
from direlieff import neighbors
from direlieff.model import DiffConfig, DiffMode, FeatureRange, InstanceBlock
from direlieff.neighbors import NeighborHeap, NeighborMatrix


def offers(entries):
    """entries: list of (dist, id) pairs with a dummy payload."""
    heap = NeighborHeap(k=3)
    for dist, iid in entries:
        heap.offer(dist, iid, 0, np.array([float(iid)]))
    return heap


def keys(heap):
    return [(d, i) for d, i, _, _ in heap.sorted_entries()]


class TestNeighborHeap:
    def test_keeps_k_smallest(self):
        heap = offers([(5.0, 1), (1.0, 2), (3.0, 3), (2.0, 4), (4.0, 5)])
        assert keys(heap) == [(1.0, 2), (2.0, 4), (3.0, 3)]

    def test_under_capacity_keeps_all(self):
        heap = offers([(9.0, 1), (8.0, 2)])
        assert keys(heap) == [(8.0, 2), (9.0, 1)]

    def test_distance_tie_prefers_smaller_id(self):
        heap = offers([(1.0, 10), (1.0, 5), (1.0, 7), (1.0, 2)])
        assert keys(heap) == [(1.0, 2), (1.0, 5), (1.0, 7)]

    def test_boundary_tie_not_replaced(self):
        # equal distance to current worst, larger id: incumbent stays
        heap = offers([(1.0, 1), (2.0, 2), (3.0, 3)])
        heap.offer(3.0, 9, 0, np.array([9.0]))
        assert keys(heap) == [(1.0, 1), (2.0, 2), (3.0, 3)]
        heap.offer(3.0, 2, 0, np.array([2.0]))  # smaller id wins the tie
        assert keys(heap) == [(1.0, 1), (2.0, 2), (3.0, 2)]

    @given(
        entries=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 10_000)),
            max_size=40,
            unique_by=lambda t: t[1],
        ),
        k=st.integers(1, 8),
        split=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_oracle_and_merge_is_grouping_free(self, entries, k, split):
        expected = sorted(entries)[:k]

        whole = NeighborHeap(k)
        for dist, iid in entries:
            whole.offer(dist, iid, 0, np.array([float(iid)]))
        assert [(d, i) for d, i, _, _ in whole.sorted_entries()] == expected

        left, right = NeighborHeap(k), NeighborHeap(k)
        for dist, iid in entries[:split]:
            left.offer(dist, iid, 0, np.array([float(iid)]))
        for dist, iid in entries[split:]:
            right.offer(dist, iid, 0, np.array([float(iid)]))
        left.merge(right)
        assert [(d, i) for d, i, _, _ in left.sorted_entries()] == expected


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
        via_block = NeighborMatrix(3, sample_block.ids, 4)
        via_block.offer_block(block, sample_block.values, mask, ranges, cfg)
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
        nn = NeighborMatrix(1, sample.ids, k=2)
        nn.offer_block(block, sample.values, mask, ranges, DiffConfig())
        got = [(d, i) for d, i, _, _ in nn.grid[0][0].sorted_entries()]
        assert got == [(0.0, 1), (1.0, 2)]

    def test_merge_partition_split_invariant(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=30, a=2, c=2, m=4, seed=9)
        cfg = DiffConfig()
        whole = NeighborMatrix(2, sample_block.ids, 3)
        whole.offer_block(block, sample_block.values, mask, ranges, cfg)
        for cut in (1, 10, 15, 29):
            left = NeighborMatrix(2, sample_block.ids, 3)
            left.offer_block(block.slice(0, cut), sample_block.values, mask, ranges, cfg)
            right = NeighborMatrix(2, sample_block.ids, 3)
            right.offer_block(block.slice(cut, 30), sample_block.values, mask, ranges, cfg)
            left.merge(right)
            for ci in range(2):
                for s in range(4):
                    assert [
                        (d, i) for d, i, _, _ in left.grid[ci][s].sorted_entries()
                    ] == [(d, i) for d, i, _, _ in whole.grid[ci][s].sorted_entries()]

    def test_encode_decode_round_trip_exact(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=25, a=4, c=3, m=3, seed=2)
        nn = NeighborMatrix(3, sample_block.ids, 5)
        nn.offer_block(block, sample_block.values, mask, ranges, DiffConfig())
        buf = nn.encode(4)
        back = NeighborMatrix.decode(buf, sample_block.ids)
        for ci in range(3):
            for s in range(3):
                got = back.grid[ci][s].sorted_entries()
                want = nn.grid[ci][s].sorted_entries()
                assert len(got) == len(want)
                for (d1, i1, l1, v1), (d2, i2, l2, v2) in zip(got, want):
                    assert (d1, i1, l1) == (d2, i2, l2)
                    assert np.array_equal(v1, v2)

    def test_decode_rejects_sample_mismatch(self):
        _, sample_block, mask, ranges = toy_matrix_inputs()
        nn = NeighborMatrix(2, sample_block.ids, 2)
        buf = nn.encode(2)
        with pytest.raises(ValueError):
            NeighborMatrix.decode(buf, sample_block.ids[:-1])


@st.composite
def neighbor_inputs(draw):
    """Small blocks built to stress the selection: few distinct values (many
    ties at the k-th distance), nominal columns, classes with fewer than k
    members or none, and samples both inside and outside the block."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    a = draw(st.integers(1, 5))
    num_classes = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    levels = draw(st.integers(2, 3))
    mask = rng.random(a) < 0.6
    values = rng.integers(0, levels, size=(n, a)).astype(np.float64)
    values[:, mask] *= rng.uniform(0.5, 2.0)
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
        via_block = NeighborMatrix(num_classes, sample_ids, k)
        via_block.offer_block(block, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k)
        assert grid_entries(via_block) == want

    @pytest.mark.parametrize(
        "rows_per_tile, m, a",
        [
            # one sample per tile; the rows span two tiles, the last partial
            (neighbors.TILE_ELEMS * 5 // 4, 2, 2),
            # whole block in one tile; several sample groups, the last partial
            (neighbors.TILE_ELEMS // 16, 37, 3),
        ],
    )
    def test_multi_tile_block_matches_full_sort(self, rows_per_tile, m, a):
        rng = np.random.default_rng(rows_per_tile + m)
        n = rows_per_tile
        values = rng.integers(0, 4, size=(n, a)).astype(np.float64)  # heavy ties
        mask = np.array([True] * (a - 1) + [False])
        block = InstanceBlock(np.arange(n, dtype=np.int64) * 2, rng.integers(0, 3, size=n), values)
        pick = rng.choice(n, size=m, replace=False)
        sample_ids = np.concatenate([block.ids[pick[1:]], [2 * n + 1]])  # one outside
        sample_values = values[pick]
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        cfg = DiffConfig()
        g = min(m, max(1, neighbors.TILE_ELEMS // n), max(1, neighbors.CHUNK_ELEMS // a))
        chunk = max(1, neighbors.CHUNK_ELEMS // (g * a))
        # the case exercises several sample groups or row tiles, and chunks
        assert m > g or n > neighbors.TILE_ELEMS
        assert n > chunk
        nn = NeighborMatrix(3, sample_ids, 5)
        nn.offer_block(block, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, 3, 5)
        assert grid_entries(nn) == want


class TestMatrixDecode:
    def test_truncated_and_extended_buffers_rejected(self):
        block, sample_block, mask, ranges = toy_matrix_inputs(n=20, a=2, c=2, m=3, seed=1)
        nn = NeighborMatrix(2, sample_block.ids, 3)
        nn.offer_block(block, sample_block.values, mask, ranges, DiffConfig())
        buf = nn.encode(2)
        assert grid_entries(NeighborMatrix.decode(buf, sample_block.ids)) == grid_entries(nn)
        for cut in range(len(buf)):
            with pytest.raises((struct.error, ValueError)):
                NeighborMatrix.decode(buf[:cut], sample_block.ids)
        with pytest.raises(ValueError, match="trailing"):
            NeighborMatrix.decode(buf + b"\x00", sample_block.ids)
