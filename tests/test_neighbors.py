"""The dense neighbour matrix: selection order, merging, and wire format."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import brute_force_entries, grid_entries, wire_damage
from direlieff import neighbors
from direlieff.model import DiffConfig, DiffMode, FeatureRange, InstanceBlock, feature_diffs
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


@contextlib.contextmanager
def slices_of(per_slice, k, a=2):
    """`_insert` into a matrix of k slots and a features places at most
    `per_slice` candidates at a time; None keeps `INSERT_ELEMS`."""
    cap = neighbors.INSERT_ELEMS
    neighbors.INSERT_ELEMS = cap if per_slice is None else per_slice * (k + a)
    try:
        yield
    finally:
        neighbors.INSERT_ELEMS = cap


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


# The filter's hard cases, one per `neighbor_inputs` style: "offset" moves
# numeric columns near +-1e9 with widths near 1e-3, so that equal distances
# are common while their scaled values round apart; "zero_width" makes
# numeric columns constant, one of them at 1e300; "nominal" codes categories
# as +-1e300 and their neighbouring floats; "narrow" is a ramp whose band
# t_diff - t_eq is 1e-9; and "overflow" is a ramp band of 1e-300 on offset
# columns, whose scaled values overflow to inf, and their differences to NaN.
STYLES = ("plain", "offset", "zero_width", "nominal", "narrow", "overflow")
NARROW_RAMP = DiffConfig(DiffMode.RAMP, t_eq=0.3, t_diff=0.3 + 1e-9)
OVERFLOW_RAMP = DiffConfig(DiffMode.RAMP, t_eq=0.0, t_diff=1e-300)
NOMINAL_CODES = np.array([1e300, -1e300, np.nextafter(1e300, np.inf), np.nextafter(-1e300, 0.0)])


def styled(style, values, mask, rng):
    """`values` of small levels, moved to one of the filter's hard cases
    (`STYLES`) column by column, and the ramp that the style needs, if any."""
    values = values.copy()
    num, nom = np.flatnonzero(mask), np.flatnonzero(~mask)
    cfg = {"narrow": NARROW_RAMP, "overflow": OVERFLOW_RAMP}.get(style)
    if style in ("offset", "overflow"):
        # whole steps of the ulp at 1e9, 2**-23, make every value and
        # difference exact; levels in non-dyadic ratios, such as (0, 6, 14),
        # make the scaled values round, and columns of one level set make
        # equal distances from differences in different columns.  Every
        # other column is mirrored, (0, 8, 14) from its minimum, so that
        # equal differences also come from different levels, whose scaled
        # values round apart even when centred on the minimum
        step = rng.integers(200, 2_000, size=len(num)) * 2.0**-23
        base = rng.choice([-1e9, 1e9], size=len(num))
        mirror = np.where(np.arange(len(num)) % 2, -1.0, 1.0)
        level = values[:, num]
        values[:, num] = base + mirror * np.rint(5 * level + level * level) * step
    elif style == "zero_width" and len(num):
        flat = rng.choice(num, size=int(rng.integers(1, len(num) + 1)), replace=False)
        values[:, flat] = rng.normal(size=len(flat))
        values[:, flat[0]] = 1e300
    elif style == "nominal":
        values[:, nom] = NOMINAL_CODES[(values[:, nom] + rng.integers(0, 2, size=len(nom))).astype(int) % 4]
    return values, cfg


@st.composite
def neighbor_inputs(draw):
    """Small blocks built to stress the selection: few distinct values and
    duplicated rows (many ties at the k-th distance), nominal columns,
    classes with fewer than k members or none, samples both inside and
    outside the block, and the filter's hard cases (`STYLES`)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    a = draw(st.integers(1, 40))
    num_classes = draw(st.integers(1, 5))
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

    m = draw(st.integers(1, 12))
    inside = rng.choice(n, size=min(m, n), replace=False)[: int(rng.integers(0, min(m, n) + 1))]
    outside_ids = np.setdiff1d(np.arange(100 + 4 * n), ids)
    extra = rng.choice(outside_ids, size=m - len(inside), replace=False)
    sample_ids = np.concatenate([ids[inside], extra])
    extra_values = rng.integers(0, levels, size=(len(extra), a)).astype(np.float64)
    extra_values[:, mask] *= rng.uniform(0.5, 2.0)
    ramp = draw(st.booleans())
    cfg = DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6) if ramp else DiffConfig()
    all_values, style_cfg = styled(draw(st.sampled_from(STYLES)), np.concatenate([values, extra_values]), mask, rng)
    values = all_values[:n]
    block = InstanceBlock(ids, labels, values)
    sample_values = np.concatenate([values[inside], all_values[n:]])
    ranges = FeatureRange(all_values.min(axis=0), all_values.max(axis=0), mask)
    return block, sample_ids, sample_values, mask, ranges, style_cfg or cfg, num_classes, k


class TestOfferBlockSelection:
    @given(inputs=neighbor_inputs(), per_slice=st.none() | st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_block_path_equals_instance_path_bit_for_bit(self, inputs, per_slice):
        block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k = inputs
        via_block = NeighborMatrix(num_classes, sample_ids, k, len(mask))
        with slices_of(per_slice, k, len(mask)):
            via_block.offer_block(block, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, num_classes, k)
        assert grid_entries(via_block) == want

    @pytest.mark.parametrize(
        "n, m, a",
        [
            # few samples: tall tiles, one sample per chunk, several row tiles
            (neighbors.RUN_ELEMS * 5 // 4, 2, 5),
            # many samples: short tiles, several sample groups, the last partial
            (4096, 131, 3),
            # a block just over LARGE_BLOCK_ELEMS: the larger tiles and chunks
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
        # above 128 features numpy's row sum, which gives the exact distances, splits and recurses
        rng = np.random.default_rng(a)
        n, m = 300, 7
        values = rng.uniform(0, 1, size=(n, a)) * 10.0 ** rng.integers(-6, 6, size=a)
        values[:, ::9] = rng.integers(0, 3, size=(n, len(range(0, a, 9))))
        mask = np.ones(a, dtype=bool)
        mask[::9] = False
        block = InstanceBlock(np.arange(n, dtype=np.int64), rng.integers(0, 3, size=n), values)
        pick = rng.choice(n, size=m, replace=False)
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        for cfg in (DiffConfig(), DiffConfig(DiffMode.RAMP, t_eq=0.1, t_diff=0.4), NARROW_RAMP, OVERFLOW_RAMP):
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


def approximate(block, sample_values, mask, ranges, cfg):
    """The filter's (samples, rows) approximate distances, summed in its
    dtype, and its slack."""
    with np.errstate(over="ignore", invalid="ignore"):
        filt = neighbors._Filter(sample_values, mask, ranges, cfg)
        num, nom, p = len(filt.numeric), len(filt.nominal), len(block)
        rows, nominal = np.empty((num, p), filt.dtype), np.empty((nom, p))
        diffs = np.empty((num + nom, len(sample_values), p), filt.dtype)
        slack = filt.copy_rows(block.values, rows, nominal, np.empty(rows.size))
        filt.chunk(rows, nominal, 0, len(sample_values), diffs)
    return np.add.reduce(diffs, axis=0), slack


# the filter's hard cases (`STYLES`), linear and ramp where the style allows
FILTER_CASES = [
    ("plain", DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6)),
    ("offset", DiffConfig()),
    ("offset", DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6)),
    ("zero_width", DiffConfig()),
    ("zero_width", DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6)),
    ("nominal", DiffConfig()),
    ("nominal", DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6)),
    ("narrow", None),
    ("overflow", None),
]
FILTER_IDS = [f"{style}-{cfg.numeric_mode.value if cfg else 'band'}" for style, cfg in FILTER_CASES]


class TestAllClassSelection:
    """Each (tile, sample group) is selected for all classes at once, and
    the filter drops only the pairs that cannot enter."""

    K = 4

    def case(self, c, style="plain", m=40):
        """Two blocks of two row tiles each against m samples: three levels
        per feature and duplicated rows (ties at the k-th
        distance), samples inside the first block and one outside, and for
        c > 1 a class with fewer than k rows in the first tile.  `style`
        moves the values to one of the filter's hard cases (`styled`); the
        last item is the ramp that the style needs, or None."""
        rng = np.random.default_rng(c)
        n, a = 8000, 3
        values = rng.integers(0, 3, size=(n, a)).astype(np.float64)
        values[rng.integers(0, n, size=300)] = values[7]
        mask = np.array([True, True, False])
        values, cfg = styled(style, values, mask, rng)
        labels = rng.integers(0, c, size=n)
        if c > 1:
            labels[labels == c - 1] = 0
            labels[[5, 9]] = c - 1  # the first tile's only rows of the last class
            labels[rng.integers(2500, n, size=60)] = c - 1
        block = InstanceBlock(rng.permutation(n).astype(np.int64) * 3, labels.astype(np.int32), values)
        pick = rng.choice(n // 2, size=m, replace=False)
        sample_ids = block.ids[pick]
        sample_ids[-1] = 3 * n + 1  # its row's twin, outside the block
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        return block, sample_ids, values[pick], mask, ranges, cfg

    @pytest.mark.parametrize(
        "c, style, cfg",
        [pytest.param(c, "plain", DiffConfig(), id=str(c)) for c in range(1, 6)]
        + [pytest.param(3, style, cfg, id=f"3-{name}") for (style, cfg), name in zip(FILTER_CASES, FILTER_IDS)],
    )
    def test_matches_full_sort_fresh_and_carried(self, c, style, cfg):
        block, sample_ids, sample_values, mask, ranges, style_cfg = self.case(c, style, m=140)
        k, cfg = self.K, style_cfg or cfg
        first, second = block.slice(0, 4000), block.slice(4000, 8000)
        rows, g, _ = neighbors.tiling(len(first), len(sample_ids), 3)
        assert rows <= 2500 < len(first) and g < len(sample_ids)  # several tiles and groups
        assert len(sample_ids) % g, "the last sample group should be partial"
        if c > 1:
            assert np.count_nonzero(first.labels[:rows] == c - 1) < k
        nn = NeighborMatrix(c, sample_ids, k, 3)
        nn.offer_block(first, sample_values, mask, ranges, cfg)
        assert grid_entries(nn) == brute_force_entries(first, sample_ids, sample_values, mask, ranges, cfg, c, k)
        # the second block meets cells that are already full
        assert (nn.count == k).all()
        nn.offer_block(second, sample_values, mask, ranges, cfg)
        want = brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, c, k + 1)
        assert any(cell[k - 1][0] == cell[k][0] for row in want for cell in row)  # a tie at the k-th
        assert grid_entries(nn) == [[cell[:k] for cell in row] for row in want]

    @pytest.mark.parametrize("style, cfg", [("plain", DiffConfig()), *FILTER_CASES], ids=["plain-linear", *FILTER_IDS])
    def test_slack_bounds_every_error(self, style, cfg):
        block, _, sample_values, mask, ranges, style_cfg = self.case(3, style)
        cfg = style_cfg or cfg
        approx, slack = approximate(block, sample_values, mask, ranges, cfg)
        exact = np.sum(feature_diffs(block.values[None], sample_values[:, None], mask, ranges, cfg), axis=-1)
        finite = np.isfinite(approx)
        assert (np.abs(approx - exact)[finite] <= slack).all()
        if style == "overflow":
            assert np.isnan(approx).any() and slack == np.inf
        else:
            assert finite.all() and 0 < slack < 0.5
        if style == "offset" and cfg.numeric_mode is DiffMode.LINEAR:
            # equal exact distances to one sample whose approximations differ
            order = np.lexsort((approx, exact))
            e, x = np.take_along_axis(exact, order, 1), np.take_along_axis(approx, order, 1)
            assert ((e[:, 1:] == e[:, :-1]) & (x[:, 1:] != x[:, :-1])).any()

    def test_lexsort_sees_only_candidates(self, monkeypatch):
        # cells are written by position: the only sort is of a tile's
        # candidates, never of the entries its cells hold, and a merge sorts
        # nothing
        c = 4
        block, sample_ids, sample_values, mask, ranges, _ = self.case(c)
        offered, sorted_ = [], []
        insert, lexsort = NeighborMatrix._insert, np.lexsort

        def counting_insert(nn, cell, *args):
            offered.append(len(cell))
            return insert(nn, cell, *args)

        monkeypatch.setattr(NeighborMatrix, "_insert", counting_insert)
        monkeypatch.setattr(np, "lexsort", lambda keys, **kw: sorted_.append(len(keys[0])) or lexsort(keys, **kw))
        halves = []
        for part in (block.slice(0, 4000), block.slice(4000, 8000)):
            nn = NeighborMatrix(c, sample_ids, self.K, 3)
            nn.offer_block(part, sample_values, mask, ranges, DiffConfig())
            halves.append(nn)
        assert (halves[0].count == self.K).all()  # later tiles met full cells
        assert sorted_ == offered and len(offered) > 2
        halves[0].merge(halves[1])
        assert len(sorted_) == len(offered) - 1


class TestFloat32Filter:
    """The filter approximates in float32 where its slack allows: every
    error stays within the slack, and selection equals a full sort of the
    exact distances, on the cases that float32 handles least well."""

    def check(self, values, mask, ranges, cfg, sample_values=None, k=3):
        """The slack bounds every approximation's error, and `offer_block`
        keeps the cells a full sort keeps; returns the filter, its slack,
        the approximate and the exact distances."""
        rng = np.random.default_rng(len(values))
        block = InstanceBlock(np.arange(len(values)), rng.integers(0, 2, size=len(values)), values.copy())
        if sample_values is None:
            sample_values = values[rng.choice(len(values), size=7, replace=False)]
        approx, slack = approximate(block, sample_values, mask, ranges, cfg)
        exact = np.sum(feature_diffs(block.values[None], sample_values[:, None], mask, ranges, cfg), axis=-1)
        finite = np.isfinite(approx)
        assert (np.abs(approx - exact)[finite] <= slack).all()
        sample_ids = np.arange(len(sample_values)) + len(values)
        nn = NeighborMatrix(2, sample_ids, k, len(mask))
        nn.offer_block(block, sample_values, mask, ranges, cfg)
        assert grid_entries(nn) == brute_force_entries(block, sample_ids, sample_values, mask, ranges, cfg, 2, k)
        with np.errstate(over="ignore", invalid="ignore"):
            return neighbors._Filter(sample_values, mask, ranges, cfg), slack, approx, exact

    def test_nominal_codes_distinct_only_in_float64(self):
        # each pair of codes is one float32: compared from float64 copies,
        # every nominal diff, and so every distance here, is exact
        codes = np.array([2.0**24, 2.0**24 + 1, *NOMINAL_CODES])
        with np.errstate(over="ignore"):
            as32 = codes.astype(np.float32)
        assert as32[0] == as32[1] and as32[2] == as32[4] and as32[3] == as32[5]
        values = codes[np.random.default_rng(11).integers(0, 6, size=(300, 4))]
        mask = np.zeros(4, dtype=bool)
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        filt, _, approx, exact = self.check(values, mask, ranges, DiffConfig())
        assert filt.dtype == np.float32 and np.array_equal(approx, exact)

    def test_scaled_values_in_float32_subnormal_range(self):
        # centred on its minimum, 0, a column of width 1 scales values
        # within 1e-38 of it into float32's subnormal range
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 1, size=(400, 3))
        values[:, 0] = rng.choice([0.0, 3e-45, 3e-41, 1e-39, 1.0], size=400)
        values[:4, 0] = [0.0, 3e-45, 1e-39, 1.0]
        mask = np.ones(3, dtype=bool)
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        filt, slack, _, _ = self.check(values, mask, ranges, DiffConfig(), sample_values=values[:4])
        assert filt.dtype == np.float32 and 0 < slack < 0.5
        tiny = np.finfo(np.float32).tiny
        assert 0 < filt.samples[0, 1] < filt.samples[0, 2] < tiny

    @pytest.mark.parametrize(
        "cfg", [DiffConfig(), DiffConfig(DiffMode.RAMP, t_eq=0.2, t_diff=0.6)], ids=["linear", "ramp"]
    )
    def test_rows_outside_the_ranges(self, cfg):
        # `offer_block` called directly with rows, and samples, beyond the
        # ranges: scaled values lie outside [0, width·scale], and far enough
        # out overflow float32, where the slack is +inf
        rng = np.random.default_rng(13)
        values = rng.uniform(-3, 4, size=(500, 3))
        mask = np.ones(3, dtype=bool)
        ranges = FeatureRange(np.zeros(3), np.ones(3), mask)
        samples = values[:7].copy()
        filt, slack, _, _ = self.check(values, mask, ranges, cfg, samples)
        assert filt.dtype == np.float32 and 0 < slack < 0.5
        values[10::50, 1] = 1e39
        filt, slack, _, _ = self.check(values, mask, ranges, cfg, samples)
        assert filt.dtype == np.float32 and slack == np.inf

    @pytest.mark.parametrize(
        "cfg, dtype",
        [(DiffConfig(), np.float32), (NARROW_RAMP, np.float64), (OVERFLOW_RAMP, np.float64)],
        ids=["linear", "narrow", "overflow"],
    )
    def test_float64_where_float32_slack_is_too_wide(self, cfg, dtype):
        # in-range values scale up to 1 / band: 1e9 under the narrow band,
        # where float32 keeps no digit of a diff, and 1e300 under the
        # overflow band, beyond float32
        rng = np.random.default_rng(14)
        values = rng.uniform(0, 1, size=(300, 4))
        mask = np.ones(4, dtype=bool)
        ranges = FeatureRange(values.min(axis=0), values.max(axis=0), mask)
        filt, slack, _, _ = self.check(values, mask, ranges, cfg)
        assert filt.dtype == dtype
        assert slack < neighbors.SLACK32_MAX or cfg is OVERFLOW_RAMP


class TestTiling:
    def test_criterion_5_partition(self):
        # the acceptance gate's partition (1M x 20, four workers, m = 10)
        # keeps the larger chunk of a block over LARGE_BLOCK_ELEMS
        assert neighbors.tiling(250_000, 10, 20) == (12_500, 10, 2)

    @pytest.mark.parametrize("p, m, a, groups", [(12_500, 100, 20, 2), (1_250, 400, 30, 4), (250_000, 10, 20, 1)])
    def test_one_tile_cap_for_every_block(self, p, m, a, groups):
        # small and large blocks alike: a tile of at most TILE_ELEMS, in as
        # few sample groups as that allows
        rows, g, _ = neighbors.tiling(p, m, a)
        assert g * rows <= neighbors.TILE_ELEMS and -(-m // g) == groups


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


# few distances, so that candidates tie with held entries and with each other
LEVELS = (0.0, 0.25, 0.5)


def row_of(ids):
    """The row stored with each id, unique to it, so that a row that lands
    in the wrong slot shows."""
    ids = np.asarray(ids, dtype=np.float64)
    return np.stack([ids, -0.5 * ids], axis=-1)


def holding(c, m, k, cells):
    """A (c, m, k) matrix of two features whose flat cell i holds the k
    smallest (distance, id) of `cells[i]`, each with its `row_of` row."""
    nn = NeighborMatrix(c, np.arange(m) + 10**6, k, 2)
    for flat, entries in enumerate(cells):
        kept = sorted(entries)[:k]
        if kept:
            at = (*divmod(flat, m), slice(0, len(kept)))
            nn.dist[at], nn.ids[at] = zip(*kept)
            nn.values[at] = row_of(nn.ids[at])
            nn.count[at[:2]] = len(kept)
    return nn


@st.composite
def held_and_offered(draw):
    """Per flat cell of a (c, m, k) matrix: the sorted entries it holds, any
    number from none to k, and entries offered to it, any number, with
    distances from `LEVELS` and ids unique within the cell."""
    k, c, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    held, offered = [], []
    for _ in range(c * m):
        ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=2 * k + 3))
        entries = [(draw(st.sampled_from(LEVELS)), i) for i in ids]
        n_held = draw(st.integers(0, min(k, len(entries))))
        held.append(sorted(entries[:n_held]))
        offered.append(entries[n_held:])
    return k, c, m, held, offered


def insert_sorted(nn, offered):
    """`_insert` every entry of `offered` (one list per flat cell), in the
    (cell, distance, id) order it takes its candidates in."""
    cand = sorted((cell, d, i) for cell, entries in enumerate(offered) for d, i in entries)
    cell = np.array([x[0] for x in cand], dtype=np.int64)
    d = np.array([x[1] for x in cand], dtype=np.float64)
    ids = np.array([x[2] for x in cand], dtype=np.int64)
    nn._insert(cell, d, ids, row_of(ids), np.arange(len(cand)))


class TestInsertByPosition:
    """`_insert` places candidates into sorted cells by position; each case
    is checked against a full per-cell sort of held and offered entries."""

    # candidates placed all at once, or a few at a time, so that slices
    # split cells
    PER_SLICE = st.none() | st.integers(1, 5)

    @given(case=held_and_offered(), per_slice=PER_SLICE)
    @settings(max_examples=300, deadline=None)
    def test_insert_equals_full_sort_per_cell(self, case, per_slice):
        k, c, m, held, offered = case
        nn = holding(c, m, k, held)
        with slices_of(per_slice, k):
            insert_sorted(nn, offered)
        assert same_matrix(nn, holding(c, m, k, [h + o for h, o in zip(held, offered)]))

    @given(case=held_and_offered(), per_slice=PER_SLICE)
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_full_sort_per_cell(self, case, per_slice):
        k, c, m, held, offered = case
        nn, other = holding(c, m, k, held), holding(c, m, k, offered)
        with slices_of(per_slice, k):
            assert nn.merge(other) is nn
        assert same_matrix(nn, holding(c, m, k, [h + o for h, o in zip(held, offered)]))

    @pytest.mark.parametrize(
        "k, held, offered",
        [
            # ties at the held entries' distance: a smaller id goes before
            # them, a larger one after, and what passes slot k drops
            (3, [(0.25, 4), (0.5, 8)], [(0.25, 2), (0.25, 6), (0.5, 9), (0.5, 7)]),
            # several candidates before, between and past full cells' entries
            (3, [(0.0, 5), (0.25, 5), (0.5, 5)], [(0.0, 1), (0.0, 9), (0.25, 1), (0.5, 1), (0.5, 9)]),
            # an empty cell, and one offered more than it can hold
            (2, [], [(0.5, 3), (0.25, 3), (0.25, 1), (0.0, 8)]),
            # k = 1: only a smaller distance, or the same with a smaller id, replaces
            (1, [(0.25, 5)], [(0.25, 6), (0.5, 0)]),
            (1, [(0.25, 5)], [(0.25, 4)]),
        ],
    )
    def test_hand_cases(self, k, held, offered):
        # two cells, so that each case also runs beside a cell left alone
        cells = [held, [(0.0, 100)]]
        nn = holding(1, 2, k, cells)
        insert_sorted(nn, [offered, []])
        want = holding(1, 2, k, [held + offered, [(0.0, 100)]])
        assert same_matrix(nn, want)
        assert nn.count[0, 0] == min(k, len(held) + len(offered))


class TestScratchMemory:
    """tracemalloc peaks of one `offer_block` on a fresh matrix and of one
    `merge`, against bounds counted from the arrays the code allocates at
    the sizes that `tiling` and `INSERT_ELEMS` set: 8 bytes an int64 or
    float64 element, 4 a float32, 1 a bool.  The filter is float32 in these
    cases.

    For a whole block `offer_block` holds the tile (g x rows float32) and
    its keep mask (g x rows bools), the run's feature-major copy (num x rows
    float32 and nom x rows float64), the kernel chunk's buffer (the larger
    of a x width x rows and the tile in float32, and of num x rows and 3a
    in float64, for the copy's centring and the exact refine) and the
    filter's scaled samples (num x m float32 and nom x m float64).  On top
    of these, the larger of:

    - the k-th cut's bool arrays over a class's columns (`near > kth`, its
      negation, and the gather of `keep`), at most three tiles of bools,
      and the columns' indices and mask, 9 bytes a row;
    - a tile's P pairs: eleven int64 or float64 arrays and one mask of P at
      most alive at once in `_offer_tile` (each pair's sample, row, block
      row, cell, exact distance and id, the sort order and its four
      gathers); the exact refine's nominal compare, for a step of pairs
      that fills the kernel buffer three times a, two float gathers and one
      mask per nominal feature, and the step's sums; and one `_place`.

    `_place` of S candidates, in at most T <= S cells, holds at most ten
    int64 or float64 arrays and two masks of S (ranks, cell heads, cells,
    counts, slots and their sums, flat slots, and the placed candidates'
    distances, ids and source rows), their rows (S x a floats), 11 bytes
    a (candidate, slot) for the (S, k) gather and compare of distances or
    ids beside two masks, or those masks and 25 bytes a (cell, slot) for the
    (T, k) shifts, destinations, move mask and one flat index temporary;
    and, for each of the M held entries that move up, a flat source and
    destination, a distance, an id and a row.  A held entry moves only in a
    cell that holds entries, at most k - 1 of them.  In a tile of the first
    run on a fresh matrix, every tile of a one-run block, no cell holds any;
    when two slices share a cell, the second's candidates all come after
    the first's.  So M = 0 there, and otherwise M <= (k - 1) x min(S, cells
    of the tile).

    A tile on a fresh matrix passes k + 1 rows per (sample, class) cell when
    no approximations tie, as in these cases, and on rows drawn
    independently a later run passes about as many: about k of its rows
    fall below a full cell's k-th distance.
    """

    PAIR_BYTES = 11 * 8 + 1
    CANDIDATE_BYTES = 10 * 8 + 2  # and 8a for the row
    CANDIDATE_SLOT_BYTES = 2 + 25  # two masks and the (cells, k) arrays, cells <= candidates
    MOVED_BYTES = 4 * 8  # and 8a for the row

    def peak(self, call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def place_bytes(self, s, moved, k, a):
        """`_place`'s arrays for s candidates of which `moved` held entries move up."""
        return s * (self.CANDIDATE_BYTES + self.CANDIDATE_SLOT_BYTES * k + 8 * a) + moved * (self.MOVED_BYTES + 8 * a)

    def offer_bound(self, p, m, num, nom, c, k):
        a = num + nom
        rows, g, width = neighbors.tiling(p, m, a)
        tile = g * rows
        kernel = max(4 * max(a * width, g) * rows, 8 * max(num * rows, 3 * a))  # bytes
        block = 4 * (tile + num * (rows + m)) + 8 * nom * (rows + m) + kernel + tile
        cut = 3 * tile + 9 * rows
        pairs = c * g * (k + 1)
        refine = min(pairs, kernel // (8 * 3 * a)) * (17 * nom + 8)
        s = neighbors._even(pairs, neighbors.INSERT_ELEMS // (k + a))
        moved = (k - 1) * min(s, c * g) if p > rows else 0
        return block + max(cut, pairs * self.PAIR_BYTES + refine + self.place_bytes(s, moved, k, a))

    @pytest.mark.parametrize(
        "p, m, num, nom, c, cfg",
        [
            # local_rank's partition: all numeric, linear
            (12_500, 100, 20, 0, 2, DiffConfig()),
            # cluster_rank's: mixed, ramp, five classes, one row tile
            (1_250, 400, 20, 10, 5, DiffConfig(DiffMode.RAMP, t_eq=0.05, t_diff=0.1)),
        ],
        ids=["local_rank", "cluster_rank"],
    )
    def test_offer_block_peak(self, p, m, num, nom, c, cfg):
        rng = np.random.default_rng(p)
        a, k = num + nom, 10
        mask = np.array([True] * num + [False] * nom)

        def draw(n):
            return np.concatenate([rng.normal(size=(n, num)), rng.integers(0, 4, size=(n, nom))], axis=1)

        block = InstanceBlock(np.arange(p), rng.integers(0, c, size=p), draw(p))
        sample_values = draw(m)
        ranges = FeatureRange(np.full(a, -5.0), np.full(a, 5.0), mask)
        nn = NeighborMatrix(c, np.arange(m) + p, k, a)
        peak = self.peak(lambda: nn.offer_block(block, sample_values, mask, ranges, cfg))
        assert (nn.count == k).all()
        assert peak <= self.offer_bound(p, m, num, nom, c, k)

    def test_merge_peak(self):
        c, m, k, a = 5, 400, 10, 30
        rng = np.random.default_rng(1)

        def full():
            nn = NeighborMatrix(c, np.arange(m), k, a)
            nn.dist[:] = np.sort(rng.random((c, m, k)), axis=-1)
            nn.ids[:] = rng.permutation(3 * c * m * k)[: c * m * k].reshape(c, m, k)
            nn.values[:] = rng.random(nn.values.shape)
            nn.count[:] = k
            return nn

        nn, other = full(), full()
        # `merge` holds other's n filled slots, their cells, distances and
        # ids, and one `_place`; each cell takes k candidates, so a slice
        # spans at most s // k + 1 cells
        n = c * m * k
        s = neighbors._even(n, neighbors.INSERT_ELEMS // (k + a))
        place = self.place_bytes(s, (k - 1) * (s // k + 1), k, a)
        assert self.peak(lambda: nn.merge(other)) <= n * (4 * 8 + 1) + place


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
    # wire arrays of `NeighborMatrix.encode`: header, counts, distances, ids, rows
    DTYPES = (np.int64, np.int64, np.float64, np.int64, np.float64)
    HEAD = 8  # the header's 4 values start after its element count

    @given(inputs=neighbor_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_damage(self, inputs, data):
        nn, buf, expected = encoded(inputs)
        assert same_matrix(NeighborMatrix.decode(buf, *expected), nn)
        num_cells = nn.count.size
        counts_at = self.HEAD + 8 * 4 + 8
        counts_end = counts_at + 8 * num_cells
        # every truncation of the header and counts, and some of the entries
        cuts = [*range(counts_end)]
        if len(buf) > counts_end:
            cuts += data.draw(st.lists(st.integers(counts_end, len(buf) - 1), max_size=8), label="cuts")
        for bad in wire_damage(buf, self.DTYPES, data, cuts):
            with pytest.raises(ValueError):
                NeighborMatrix.decode(bad, *expected)
        # a header value or a cell count set to any other value
        field = data.draw(st.integers(0, 3 + num_cells), label="field")
        at = self.HEAD + 8 * field if field < 4 else counts_at + 8 * (field - 4)
        old = int.from_bytes(buf[at : at + 8], "big", signed=True)
        new = data.draw(st.integers(-(2**63), 2**63 - 1).filter(lambda v: v != old), label="value")
        bad = buf[:at] + new.to_bytes(8, "big", signed=True) + buf[at + 8 :]
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
        with pytest.raises(ValueError, match="trailing"):
            NeighborMatrix.decode(buf + b"\x00", *expected)

    @pytest.mark.parametrize(
        "dist, ids",
        [
            ([0.2, 0.1], [1, 2]),
            ([0.1, 0.1], [2, 1]),
            ([0.1, 0.1], [1, 1]),
            ([np.nan, 0.1], [1, 2]),
            ([0.1, np.inf], [1, 2]),
            ([0.1, np.finfo(np.float64).max], [1, 2]),  # an open slot's distance
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
