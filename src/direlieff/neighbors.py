"""Bounded nearest-neighbour selection.

A neighbour entry is ordered by the pair (distance, instance id); ids are
unique, so the order is total and every top-k set is unique.  That is what
makes the search reproducible: any sequence of offers, in any grouping or
order, yields the same k survivors.

`NeighborMatrix` is the accumulator for the neighbour stage: dense
(class, sample, k) arrays of each cell's k best entries, filled from
instance blocks by `offer_block` and merged across partitions.  A block is
filled tile by tile: a tile holds the distances from a group of samples to
a run of the block's rows.  The run is first copied feature-major,
(features, rows), so that every later pass reads and writes whole
contiguous rows of one feature.  The tile is then filled one kernel chunk
at a time: one `feature_diffs` call writes a chunk's diffs feature-major
into a (features, samples, rows) buffer, and `pairwise_sum` adds its
feature planes into the tile.

The sum must keep the bits that `.sum(axis=-1)` gives over a row of
features, since the distances decide the neighbours and the weights.  numpy
adds a row in a fixed "pairwise" order (`pairwise_sum` in its
`loops_utils.h.src`): up to 128 terms it keeps eight partial sums, one per
feature index mod 8, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
and adds the remaining a mod 8 features one at a time; above 128 it splits
at a multiple of 8 and recurses.  `pairwise_sum` replays that order with
whole-plane calls, each adding cell by cell: every further block of eight
feature planes is added into the first block, the tree is two stacked
adds, and one reduction along the outer axis adds the tree's two halves
and then the tail features in sequence.  So a chunk of 16-23 features
costs one `feature_diffs` call and four summing calls, one more per further
block of eight, and no call is made per feature; one call per feature
would hold the GIL so often that threads running partitions in parallel
stop scaling.  Every call still takes the GIL briefly, which is why chunks
are large.

A row can enter only its own class's cell, and only at or below the
cell's current worst entry.  So one selection serves all classes of a tile:
each tile column is compared with `bound[class of its row, sample]`, which
drops most rows, and one `flatnonzero` and one `lexsort` over the
survivors, keyed by (cell, distance, id) with the cell numbered class * m
+ sample, merge them with their cells' current entries; the first k of
each cell are written back through flat slot indices.  The selection's
numpy calls are per (tile, sample group), not per class.  While a class
still has a cell that is not full, one `np.partition` along each sample's
row of that class's columns first cuts the rows at its k-th distance.  An
engine folds a thread's whole run of partitions into one matrix, so after
its first tile the cells are full and the cut is almost never needed.
`tiling` bounds the tile, the feature-major copy and the chunk, so the
scratch does not grow with the sample count times the partition size.
"""

from __future__ import annotations

import numpy as np

from .model import DiffConfig, FeatureRange, InstanceBlock, feature_diffs
from .wire import pack, unpack

__all__ = ["NeighborMatrix", "pairwise_sum", "tiling"]

# Scratch caps of `NeighborMatrix.offer_block`, in float64 elements: the
# (samples, rows) distance tile (256 KiB), and the feature-major copy of the
# tile's rows and one (features, samples, rows) kernel chunk (1 MiB each).
# Each kernel chunk and each tile costs a few GIL round trips, so threads
# running partitions in parallel scale better with larger ones; a chunk
# larger than the core's cache slows each pass, and a larger scratch raises
# a worker's peak RSS.
TILE_ELEMS = 1 << 15
CHUNK_ELEMS = 1 << 17
# Blocks of at least `LARGE_BLOCK_ELEMS` elements (16 MiB) get tiles and
# chunks `LARGE_SCALE` times larger.  With more threads than cores, every
# GIL round trip can leave a core idle, and a larger chunk makes fewer of
# them per element.  One thread runs faster on the smaller, cache-resident
# chunk, and the larger scratch is about half of a block at this size, so
# smaller blocks keep the smaller caps.
LARGE_BLOCK_ELEMS = 1 << 21
LARGE_SCALE = 4
# Rows a tile takes at least, while the block has them (about: tiles split
# a block evenly): every kernel pass loops over a tile's rows innermost.
TILE_MIN_ROWS = 2048
# numpy's ufunc buffer, in elements, while the kernel runs.  With the
# default (8192) numpy copies a broadcast operand into its buffer to join
# short rows into longer loops, which costs more than the arithmetic.
KERNEL_BUFSIZE = 1024
_MAX_DIST = float(np.finfo(np.float64).max)
# numpy's pairwise summation block: up to this many terms, eight partials
_PAIRWISE_BLOCK = 128


def tiling(p: int, m: int, a: int) -> tuple[int, int, int]:
    """(rows, samples, chunk samples) of `offer_block`'s tiles for a block
    of p rows, m samples and a features.

    A tile spans `rows` rows of the block and `samples` samples; a kernel
    chunk spans all of a tile's rows and `chunk samples` of its samples.
    Tiles are wide in samples, so that the feature-major copy of a tile's
    rows serves many samples, but no shorter than about `TILE_MIN_ROWS`
    rows.  A tile holds at most `TILE_ELEMS` distances and a chunk at most
    `CHUNK_ELEMS` diffs (one row's, if wider); both caps are `LARGE_SCALE`
    times larger for a block of `LARGE_BLOCK_ELEMS` elements or more.
    """
    scale = LARGE_SCALE if p * a >= LARGE_BLOCK_ELEMS else 1
    tile, chunk = scale * TILE_ELEMS, scale * CHUNK_ELEMS
    rows = _even(p, min(max(tile // m, TILE_MIN_ROWS), max(1, chunk // a)))
    g = _even(m, max(1, tile // rows))
    return rows, g, _even(g, max(1, chunk // (a * rows)))


def _even(n: int, cap: int) -> int:
    """The part size when n is cut into as few parts of at most `cap` as
    possible, with parts as equal as one common size allows: the last part
    is short by fewer elements than there are parts."""
    parts = -(-n // cap)
    return -(-n // parts)


def pairwise_sum(fm: np.ndarray, out: np.ndarray, fours: np.ndarray) -> None:
    """Sum `fm` over its first axis into `out`, in numpy's pairwise order.

    `fm` is (n, ...) and holds each cell's n terms in one column; the
    result equals `.sum(axis=-1)` over the same terms laid out as rows, bit
    for bit.  `fm` is scratch and is overwritten; `fours` is a (4, ...)
    scratch buffer of the same trailing shape, used when 8 <= n < 16.
    """
    n = len(fm)
    if out.size == 1:
        # a lone cell: numpy reduces a single column with its own pairwise
        # loop, which is the order to reproduce
        np.add.reduce(fm.reshape(n), out=out.reshape(()))
        return
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        pairwise_sum(fm[:half], fm[0], fours)
        pairwise_sum(fm[half:], fm[half], fours)
        np.add(fm[0], fm[half], out=out)
        return
    m8 = n - n % 8
    if m8:
        # eight partials r_j = f_j + f_{j+8} + ..., added block by block
        # into the first eight planes, then their tree.  A reduction along
        # the outer axis first copies a block into its output: it took 2.6
        # to 3.3 times as long as the adds at 16 features, and 0.8 to 1.15
        # times at 64 to 128.  The adds overlap their output exactly, which
        # numpy allows; a tree step writes planes it does not read, since
        # numpy copies an operand that may overlap the output otherwise, and
        # from 16 features the second block's planes are free for it.  The
        # tree's two halves land just before the tail features, so one
        # sequential reduction adds them and then the tail, in numpy's order.
        for b in range(8, m8, 8):
            np.add(fm[:8], fm[b : b + 8], out=fm[:8])
        if m8 > 8:
            fours = fm[8:12]
        np.add(fm[0:8:2], fm[1:8:2], out=fours)
        np.add(fours[0::2], fours[1::2], out=fm[m8 - 2 : m8])
        fm = fm[m8 - 2 :]
    np.add.reduce(fm, axis=0, out=out)


class NeighborMatrix:
    """Per (class, sample) cell, the k nearest instances, in dense arrays.

    Cell (C, i) collects the k nearest class-C instances to sample i,
    excluding the sample itself by id.  Its `count[C, i]` filled slots hold
    the distances `dist[C, i, :count]`, ids `ids[C, i, :count]` and rows
    `values[C, i, :count]`, in ascending (distance, id) order; every entry
    of the cell has class C, so no label is stored.  An unfilled slot holds
    distance `_MAX_DIST`, so a cell's last slot is the bound a new entry
    must come before.  Filling is associative and commutative: partitions
    can be folded independently and merged.
    """

    def __init__(self, num_classes: int, sample_ids, k: int, num_features: int):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.num_classes = num_classes
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        self.k = k
        # allocated here and only written in place: `_slots` views them flat
        shape = (num_classes, len(self.sample_ids), k)
        self.dist = np.full(shape, _MAX_DIST)
        self.ids = np.zeros(shape, dtype=np.int64)
        self.values = np.zeros((*shape, num_features))
        self.count = np.zeros(shape[:2], dtype=np.int64)

    @property
    def num_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def grid(self) -> list:
        """`grid[C][i]` is cell (C, i)'s filled distances, one view per cell."""
        return [[d[:n] for d, n in zip(dc, nc)] for dc, nc in zip(self.dist, self.count.tolist())]

    def filled(self) -> np.ndarray:
        """(classes, samples, k) mask of the filled slots."""
        return np.arange(self.k) < self.count[..., None]

    def offer_block(
        self,
        block: InstanceBlock,
        sample_values: np.ndarray,
        numeric_mask: np.ndarray,
        ranges: FeatureRange,
        cfg: DiffConfig,
    ) -> None:
        """Offer every row of `block` to every cell, keeping at most k per cell.

        Distances fill a (samples, rows) tile for a group of samples and a
        run of the block's rows (`tiling` gives the shapes).  The run is
        copied feature-major once and serves every sample group.  A kernel
        chunk is all of the run against a few samples, and is one
        `feature_diffs` call: the (1, rows, a) source view of the copy
        against the (g, 1, a) samples, written through a transposed view
        into a contiguous (a, g, rows) buffer.  `pairwise_sum` then adds
        the a feature planes into the tile in numpy's own summation order,
        so each distance has the bits that `.sum(axis=-1)` gives over the
        sample's row of diffs.  One call per chunk, not one per feature,
        keeps the GIL round trips per element few.  A sample's own row gets
        distance +inf, which excludes it by id.  The tile then goes to
        `_offer_tile`, which selects for all classes at once.
        """
        p, m, a = len(block), self.num_samples, block.values.shape[1]
        if p == 0 or m == 0:
            return
        ids, values = block.ids, block.values
        # row of each sample's own instance in the block; -1 if absent
        by_id = np.argsort(ids)
        found = by_id[np.searchsorted(ids, self.sample_ids, sorter=by_id).clip(max=p - 1)]
        self_row = np.where(ids[found] == self.sample_ids, found, -1)

        rows, g, width = tiling(p, m, a)
        tile, source = np.empty(g * rows), np.empty(a * rows)
        kernel, fours = np.empty(a * width * rows), np.empty(4 * width * rows)
        bufsize = np.setbufsize(KERNEL_BUFSIZE)
        try:
            for r0 in range(0, p, rows):
                r1 = min(r0 + rows, p)
                run = r1 - r0
                fm_rows = source[: a * run].reshape(a, run)
                np.copyto(fm_rows, values[r0:r1].T)
                src = fm_rows.T[None]
                for s0 in range(0, m, g):
                    s1 = min(s0 + g, m)
                    dist = tile[: (s1 - s0) * run].reshape(s1 - s0, run)
                    for q0 in range(s0, s1, width):
                        q1 = min(q0 + width, s1)
                        cells = (q1 - q0) * run
                        fm = kernel[: a * cells].reshape(a, q1 - q0, run)
                        group = sample_values[q0:q1, None, :]
                        feature_diffs(src, group, numeric_mask, ranges, cfg, fm.transpose(1, 2, 0))
                        pairwise_sum(fm, dist[q0 - s0 : q1 - s0], fours[: 4 * cells].reshape(4, q1 - q0, run))
                    own = self_row[s0:s1]
                    inside = np.flatnonzero((own >= r0) & (own < r1))
                    dist[inside, own[inside] - r0] = np.inf
                    self._offer_tile(dist, s0, r0, block)
        finally:
            np.setbufsize(bufsize)

    def _offer_tile(self, dist, s0, r0, block) -> None:
        """Add each cell's nearest rows among one tile's to the cell: column
        j of `dist` holds the distances of the block's row `r0 + j` to the
        samples from `s0` on.

        A row can enter only its own class's cell, and only at or below the
        cell's last slot's distance, and at that distance only with a smaller
        id; one comparison of the tile with each column's class bounds drops
        the rest.  While a class has a cell that is not full, its rows past
        each sample's k-th distance are cut first; ties at the k-th distance
        survive.  The candidates and the current entries of their cells are
        sorted together by (cell, distance, id), the cell being class * m +
        sample, and the first k of each cell are written back.
        """
        k, m = self.k, self.num_samples
        g, run = dist.shape
        labels = block.labels[r0 : r0 + run]
        # (samples, classes) last slots; a cell that is not full has a finite
        # bound, which drops the +inf own rows
        bound = np.ascontiguousarray(self.dist[:, s0 : s0 + g, k - 1].T)
        keep = dist <= np.take(bound, labels, axis=1)
        if (bound == _MAX_DIST).any():
            # a cell that is not full yet takes any row of its class: cut at
            # the k-th first
            for label in np.flatnonzero((bound == _MAX_DIST).any(axis=0)):
                cols = np.flatnonzero(labels == label)
                if len(cols) > k:
                    near = dist[:, cols]
                    keep[:, cols] &= near <= np.partition(near, k - 1, axis=1)[:, k - 1 : k]
        # one flat scan; `np.nonzero` on a 2-d mask costs over ten times more
        hits = np.flatnonzero(keep)
        if not hits.size:
            return
        s_idx, at = np.divmod(hits, run)
        label = labels[at]
        cell = label * m + s0 + s_idx
        d, cand = dist.reshape(-1)[hits], block.ids[r0 + at]
        last = cell * k + k - 1
        to_d, to_i, to_v = self._slots()
        # a row at a full cell's bound enters only on a smaller id
        live = (d < to_d[last]) | (cand < to_i[last])
        if not live.all():
            cell, d, cand, at = cell[live], d[live], cand[live], at[live]
            if not cell.size:
                return
            label, s_idx = label[live], s_idx[live]
        # the cells offered to: their current entries, then the candidates
        offered = np.bincount(label * g + s_idx)  # candidates per tile cell
        in_tile = np.flatnonzero(offered)
        touched = in_tile // g * m + s0 + in_tile % g
        n_held = self.count.reshape(-1)[touched]
        held = (touched[:, None] * k + np.arange(k))[np.arange(k) < n_held[:, None]]
        c_all = np.concatenate([np.repeat(touched, n_held), cell])
        d_all = np.concatenate([to_d[held], d])
        i_all = np.concatenate([to_i[held], cand])
        by_key = np.lexsort((i_all, d_all, c_all))
        c_sorted = c_all[by_key]
        slot = np.arange(len(by_key)) - np.searchsorted(c_sorted, c_sorted)
        top = slot < k
        kept = by_key[top]
        to = c_sorted[top] * k + slot[top]
        to_d[to], to_i[to] = d_all[kept], i_all[kept]
        # rows move slot to slot and are copied once; the right-hand side is
        # gathered before any slot is written
        moved = kept < len(held)
        to_v[to[moved]] = to_v[held[kept[moved]]]
        to_v[to[~moved]] = block.values[r0 + at[kept[~moved] - len(held)]]
        self.count.reshape(-1)[touched] = np.minimum(n_held + offered[in_tile], k)

    def merge(self, other: "NeighborMatrix") -> "NeighborMatrix":
        """Keep each cell's k best entries of the two matrices' union."""
        k = self.k
        held = np.concatenate([self.filled(), other.filled()], axis=2)
        dist = np.concatenate([self.dist, other.dist], axis=2)
        ids = np.concatenate([self.ids, other.ids], axis=2)
        values = np.concatenate([self.values, other.values], axis=2)
        # per cell: filled slots first, each in ascending (distance, id); the
        # first k as slot numbers of the joined arrays, flat in cell order
        best = np.lexsort((ids, dist, ~held), axis=2)[..., :k]
        best += 2 * k * np.arange(self.count.size).reshape(*self.count.shape, 1)
        best = best.reshape(-1)
        # "clip" (`best` is in range) lets `take` write into `out` with no
        # temporary copy, which would be the driver's peak memory
        for to, joined in zip(self._slots(), (dist, ids, values)):
            np.take(joined.reshape(2 * len(to), *to.shape[1:]), best, axis=0, out=to, mode="clip")
        self.count[...] = np.minimum(self.count + other.count, k)
        return self

    def _slots(self) -> tuple:
        """Flat views of `dist`, `ids` and `values`: one slot per row, in cell order."""
        slots = self.dist.size
        return self.dist.reshape(slots), self.ids.reshape(slots), self.values.reshape(slots, self.values.shape[3])

    def encode(self) -> bytes:
        """Header (classes, samples, k, features), each cell's fill count,
        then the filled entries in cell order: their distances, ids and
        rows, as five `wire` arrays."""
        held = self.filled()
        head = np.array([self.num_classes, self.num_samples, self.k, self.values.shape[3]])
        return pack(head, self.count, self.dist[held], self.ids[held], self.values[held])

    @classmethod
    def decode(cls, buf: bytes, sample_ids, num_classes: int, k: int, num_features: int) -> "NeighborMatrix":
        """The matrix `encode` wrote, for the expected classes, samples, k
        and features; ValueError on any other shape, a count outside [0, k],
        a length that does not match the counts, a distance that is not
        finite, or a cell out of ascending (distance, id) order."""
        # entries as views of `buf`: a native copy first raises the driver's peak RSS
        head, count, dist, ids, values = unpack(buf, np.int64, np.int64, ">f8", ">i8", ">f8")
        want = [num_classes, len(sample_ids), k, num_features]
        if head.tolist() != want:
            raise ValueError(f"neighbour matrix (classes, samples, k, features) is {head}, expected {want}")
        if len(count) != num_classes * len(sample_ids) or ((count < 0) | (count > k)).any():
            raise ValueError(f"neighbour matrix needs a count in [0, {k}] per cell")
        n = int(count.sum())
        if len(dist) != n or len(ids) != n or len(values) != n * num_features:
            raise ValueError(f"neighbour matrix of {n} entries has {len(dist)}, {len(ids)} and {len(values)} values")
        out = cls(num_classes, sample_ids, k, num_features)
        out.count.flat = count
        held = out.filled()
        out.dist[held], out.ids[held] = dist, ids
        out.values[held] = values.reshape(n, num_features)
        d, i = out.dist, out.ids
        ordered = (d[..., :-1] < d[..., 1:]) | ((d[..., :-1] == d[..., 1:]) & (i[..., :-1] < i[..., 1:]))
        if not np.isfinite(d[held]).all() or (held[..., 1:] & ~ordered).any():
            raise ValueError("neighbour matrix has a distance not finite or not in ascending (distance, id) order")
        return out
