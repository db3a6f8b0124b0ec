"""Bounded nearest-neighbour selection.

A neighbour entry is ordered by the pair (distance, instance id); ids are
unique, so the order is total and every top-k set is unique.  That is what
makes the search reproducible: any sequence of offers, in any grouping or
order, yields the same k survivors.

`NeighborMatrix` is the accumulator for the neighbour stage: dense
(class, sample, k) arrays of each cell's k best entries, filled from
instance blocks by `offer_block` and merged across partitions.

A block is filled by filter, then refine.  A tile holds approximate
distances from a group of samples to a run of the block's rows, each within
a proven `slack` of the exact one (`_Filter`), and they serve only to drop
the pairs that cannot enter any cell.  The approximation divides nothing
per element: each feature's divisions move onto one scale per feature, the
samples are scaled once per block, and a tile's rows once as they are
copied feature-major, (features, rows), so that every later pass reads and
writes whole contiguous rows of one feature.  A kernel chunk, a few samples
against the whole run, is then a subtraction, an absolute value and, under
the ramp, a shift and a clip, each one numpy call over all numeric
features; nominal features are compared with `!=`.  One `np.add.reduce`
over the feature axis adds the chunk's planes into the tile, plane after
plane; the slack holds for any order of the sum.  No call is made per
feature: one call per feature would hold the GIL so often that threads
running partitions in parallel stop scaling.  Every call still takes the
GIL briefly, which is why chunks are large.

The exact distance of every pair that passes is then computed by
`feature_diffs(...).sum(axis=-1)` over the gathered (row, sample) pairs,
the definition the sequential reference uses, and only exact distances
are compared, sorted and stored.  On mixed ramp data with full cells about
2% of the pairs pass, and on numeric data well under 1%.

A row can enter only its own class's cell, and only at or below the
cell's current worst entry.  So one selection serves all classes of a tile:
each tile column is compared with `bound[class of its row, sample]` plus
the slack, which drops most rows, and one `flatnonzero` gives the pairs
that pass; a sample's own row is dropped among them, by id.  While a class
still has a cell that is not full, the rows past each sample's (k+1)-th
approximate distance plus twice the slack are cut first: the (k+1)-th,
since one of the k + 1 nearest may be the sample's own row.  An engine
folds a thread's whole run of partitions into one matrix, so after its
first tile the cells are full and the cut is almost never needed.
`tiling` bounds the tile, the feature-major copy and the chunk, so the
scratch does not grow with the sample count times the partition size.  The
selection's own scratch, the class bounds gathered per tile column, the
k-th cut and the exact refine's buffers, lives in the kernel chunk's
buffer, which is idle between sample groups.

Cells are written in one place, `NeighborMatrix._insert`, by position.
Its candidates come sorted by (cell, distance, id), the cell numbered
class * m + sample; each lands at the number of its cell's held entries
that come before it plus its rank among its cell's candidates, held entries
move up by the candidates placed before them, and what passes slot k
drops.  Only candidates are sorted: a tile's refined pairs by one `lexsort`
per (tile, sample group) for all classes, while the filled slots of a
matrix being merged are in that order already.  They are placed in slices
of a bounded size, so that neither a large tile nor a merge grows the
placement's scratch.
"""

from __future__ import annotations

import numpy as np

from .model import DiffConfig, DiffMode, FeatureRange, InstanceBlock, feature_diffs
from .wire import pack, unpack

__all__ = ["NeighborMatrix", "tiling"]

# Scratch caps of `NeighborMatrix.offer_block`, in float64 elements: the
# (samples, rows) distance tile, and the feature-major copy of the tile's
# rows and one (features, samples, rows) kernel chunk (1 MiB each).  A
# tile's selection makes a run of small numpy calls, each holding the GIL,
# whatever the tile's size, so threads running partitions in parallel
# scale better with large tiles; the selection's own scratch lives in the
# kernel chunk's buffer, idle between sample groups, so a larger tile adds
# only the tile and its keep mask, and `_insert` places candidates in
# bounded slices (`INSERT_ELEMS`).  Each kernel chunk costs a few GIL round
# trips too, but a chunk larger than the core's cache slows each pass.
TILE_ELEMS = 1 << 17
CHUNK_ELEMS = 1 << 17
# Blocks of at least `LARGE_BLOCK_ELEMS` elements (16 MiB) get chunks
# `LARGE_SCALE` times larger.  Threads running partitions in parallel meet
# at the GIL: one that ends a numpy call while the other holds the lock
# sleeps until it is let go, and larger chunks make fewer calls per
# element.  One thread runs faster on the smaller, cache-resident chunk, and
# the larger chunk is about a quarter of a block at this size, so smaller
# blocks keep the smaller cap.
LARGE_BLOCK_ELEMS = 1 << 21
LARGE_SCALE = 4
# A tile spans a run of about `RUN_ELEMS // m` rows for m samples,
# `LARGE_SCALE` times more in a large block: few samples make tall runs, so
# that a tile's selection covers many rows, but a run's feature-major copy
# grows with it.
RUN_ELEMS = 1 << 15
# `NeighborMatrix._insert` places candidates in as few equal slices of at
# most `INSERT_ELEMS // (k + a)` as they fit, so that its (candidates, k)
# comparisons and its gathers of rows, (candidates, a), stay the size of a
# small tile: a tile on a fresh matrix passes about k + 1 rows per cell, a
# larger tile more cells, and a merge offers every filled slot.
INSERT_ELEMS = 1 << 15
# Rows a tile takes at least, while the block has them (about: tiles split
# a block evenly): every kernel pass loops over a tile's rows innermost.
TILE_MIN_ROWS = 2048
# numpy's ufunc buffer, in elements, while the kernel runs.  With the
# default (8192) numpy copies a broadcast operand into its buffer to join
# short rows into longer loops, which costs more than the arithmetic.
KERNEL_BUFSIZE = 1024
_MAX_DIST = float(np.finfo(np.float64).max)
_U = 2.0**-53  # unit roundoff of float64
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64


def tiling(p: int, m: int, a: int) -> tuple[int, int, int]:
    """(rows, samples, chunk samples) of `offer_block`'s tiles for a block
    of p rows, m samples and a features.

    A tile spans `rows` rows of the block and `samples` samples; a kernel
    chunk spans all of a tile's rows and `chunk samples` of its samples.
    A run spans about `RUN_ELEMS // m` rows, but no fewer than about
    `TILE_MIN_ROWS`, and a tile as many samples as `TILE_ELEMS` distances
    allow.  A chunk holds at most `CHUNK_ELEMS` diffs (one row's, if
    wider); the chunk and the run are `LARGE_SCALE` times larger for a block
    of `LARGE_BLOCK_ELEMS` elements or more.
    """
    scale = LARGE_SCALE if p * a >= LARGE_BLOCK_ELEMS else 1
    chunk = scale * CHUNK_ELEMS
    rows = _even(p, min(max(scale * RUN_ELEMS // m, TILE_MIN_ROWS), max(1, chunk // a)))
    g = _even(m, max(1, TILE_ELEMS // rows))
    return rows, g, _even(g, max(1, chunk // (a * rows)))


def _even(n: int, cap: int) -> int:
    """The part size when n is cut into as few parts of at most `cap` as
    possible, with parts as equal as one common size allows: the last part
    is short by fewer elements than there are parts."""
    parts = -(-n // cap)
    return -(-n // parts)


def _exact_distances(values, rows, sample_values, samples, numeric_mask, ranges, cfg, scratch) -> np.ndarray:
    """The exact distances of `values[rows[i]]` to `sample_values[samples[i]]`:
    `feature_diffs(...).sum(axis=-1)` over the paired rows, the distance the
    sequential reference uses.  Pairs are taken as many at a time as the
    flat float64 `scratch`, of at least 3a elements, holds three (pairs, a)
    buffers of: the paired rows and their diffs."""
    a = values.shape[1]
    out = np.empty(len(rows))
    step = len(scratch) // (3 * a)
    for i in range(0, len(rows), step):
        j = slice(i, i + step)
        x, y, diffs = scratch[: 3 * a * len(rows[j])].reshape(3, -1, a)
        np.take(values, rows[j], axis=0, out=x, mode="clip")
        np.take(sample_values, samples[j], axis=0, out=y, mode="clip")
        out[j] = feature_diffs(x, y, numeric_mask, ranges, cfg, diffs).sum(axis=-1)
    return out


class _Filter:
    """Approximate distances for one block, with no division per element,
    and a bound on their error.

    Each numeric feature with a width gets a scale, 1 / safe_width, divided
    also by the band t_diff - t_eq under the ramp, which also gets one
    shift, t_eq / (t_diff - t_eq).  A diff is then |x·s - y·s|, and under
    the ramp clip(|x·s - y·s| - shift, 0, 1): the exact diff's operations
    with the divisions moved onto the scale.  The samples are scaled once
    per block, a tile's rows once as they are copied.  Features are held as
    planes in a new order: numeric features with a width, then nominal ones,
    compared with `!=` unscaled as `feature_diffs` compares them.  A
    zero-width feature's diff is 0 in both distances and has no plane.

    The error bound.  Write u = 2**-53 and, for one pair (x, y) and one
    numeric plane of scale s, r = |x - y|·s, G = (|x| + |y|)·s and q =
    t_eq / band (0 when linear).  To first order in u, the exact diff
    before the clip is within 4u·r + 2u·q of r - q: it rounds |x - y|, the
    division by the width, and under the ramp the subtraction of t_eq and
    the division by the band.  The approximation is within 4u·r + u·G +
    2u·q of r - q: it rounds the scale (twice under the ramp), the two
    products, their difference and the shift.  The clip only brings the two
    closer, and r <= G <= 2M, M being the plane's largest |value|·s over the
    tile's rows and the samples; so the two diffs differ by at most
    18u·M + 4u·q, and by at most 1 under the ramp.  A plane's error bound is
    e = 24u·M + 8u·shift, with M from the min and max of the scaled values.
    Nominal planes and zero-width features are exact in both.  A sum of a
    nonnegative terms, in any order, errs by at most (a - 1)u times their
    sum; with T a plane's cap on both diffs (1 under the ramp and on a
    nominal plane, and when linear the spread of the scaled values plus
    4u·M), |approx - exact| <= sum(e) + 2a·u·(2·sum(T) + sum(e)).  The
    slack is twice that, which covers the second-order terms and the
    rounding of the slack's own sums, plus a·tiny for the absolute error of
    an underflow.  It is +inf, so that every pair is refined, where a
    scaled value could overflow (a·sum(M) >= 2**1000) or the reciprocal of
    a width is subnormal and so less precise than u.
    """

    def __init__(self, sample_values, numeric_mask, ranges: FeatureRange, cfg: DiffConfig):
        self.ramp = cfg.numeric_mode is DiffMode.RAMP
        inverse = 1.0 / ranges.safe_width  # 0 for nominal and zero-width features
        numeric = np.flatnonzero(numeric_mask & (inverse > 0))
        self.planes = np.concatenate([numeric, np.flatnonzero(~numeric_mask)])
        self.num_numeric = len(numeric)
        self.num_features = len(numeric_mask)
        self.exact_only = bool((inverse[numeric] < _TINY).any())
        scale, self.shift = inverse[numeric], 0.0
        if self.ramp:
            band = cfg.t_diff - cfg.t_eq
            scale, self.shift = scale / band, cfg.t_eq / band
        self.scale = scale[:, None]
        # (planes, samples)
        self.samples = np.ascontiguousarray(sample_values[:, self.planes].T)
        scaled = self.samples[: self.num_numeric]
        scaled *= self.scale
        self.lo, self.hi = scaled.min(axis=1), scaled.max(axis=1)

    def copy_rows(self, values: np.ndarray, out: np.ndarray) -> float:
        """Copy the (rows, features) `values` into `out` as scaled (planes,
        rows); return the slack of their pairs with the samples."""
        scaled = out[: self.num_numeric]
        if self.num_numeric == self.num_features:
            # every feature is a plane, in order: copy and scale in one pass
            np.multiply(values.T, self.scale, out=scaled)
        else:
            np.take(values.T, self.planes, axis=0, out=out, mode="clip")
            scaled *= self.scale
        if self.exact_only:
            return np.inf
        lo = np.minimum(scaled.min(axis=1), self.lo)
        hi = np.maximum(scaled.max(axis=1), self.hi)
        mag = np.maximum(np.abs(lo), np.abs(hi))
        a = self.num_features
        if not a * mag.sum() < 2.0**1000:  # NaN too
            return np.inf
        err = 24 * _U * mag + 8 * _U * self.shift
        if self.ramp:
            err, caps = np.minimum(err, 1.0), float(len(mag))
        else:
            caps = float((hi - lo + 4 * _U * mag).sum())
        caps += len(self.planes) - self.num_numeric
        errs = float(err.sum())
        return 2 * (errs + 2 * a * _U * (2 * caps + errs)) + a * _TINY

    def chunk(self, rows: np.ndarray, q0: int, q1: int, out: np.ndarray) -> None:
        """Write the approximate diffs of the copied (planes, run) `rows`
        against samples q0 to q1 into `out`, (planes, samples, run)."""
        n = self.num_numeric
        diffs = out[:n]
        np.subtract(rows[:n, None, :], self.samples[:n, q0:q1, None], out=diffs)
        np.abs(diffs, out=diffs)
        if self.ramp:
            diffs -= self.shift
            np.clip(diffs, 0.0, 1.0, out=diffs)
        if n < len(rows):
            np.not_equal(rows[n:, None, :], self.samples[n:, q0:q1, None], out=out[n:])


class NeighborMatrix:
    """Per (class, sample) cell, the k nearest instances, in dense arrays.

    Cell (C, i) collects the k nearest class-C instances to sample i,
    excluding the sample itself by id.  Its `count[C, i]` filled slots hold
    the distances `dist[C, i, :count]`, ids `ids[C, i, :count]` and rows
    `values[C, i, :count]`, in ascending (distance, id) order; every entry
    of the cell has class C, so no label is stored.  An unfilled slot holds
    distance `_MAX_DIST`, so a cell's last slot is the bound a new entry
    must come before.  Filling is associative and commutative: partitions
    can be folded independently and merged.  `offer_block` and `merge` both
    write cells only through `_insert`.
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

        Filter, then refine.  A (samples, rows) tile for a group of samples
        and a run of the block's rows (`tiling` gives the shapes) is filled
        with approximate distances, which only decide the pairs that cannot
        enter any cell; `_offer_tile` computes the exact distances of the
        rest and selects on those.  The run is copied once, scaled and
        feature-major, by `_Filter.copy_rows`, which also gives the tile's
        `slack`; it serves every sample group.  A kernel chunk is all of the
        run against a few samples: `_Filter.chunk` writes its approximate
        diffs into a contiguous (planes, g, rows) buffer, and one
        `np.add.reduce` adds the planes into the tile.  A sample's own row,
        found by id among the tile's candidates, is excluded.
        """
        p, m, a = len(block), self.num_samples, block.values.shape[1]
        if p == 0 or m == 0:
            return
        values = block.values
        sample_values = np.asarray(sample_values, dtype=np.float64)

        rows, g, width = tiling(p, m, a)
        bufsize = np.setbufsize(KERNEL_BUFSIZE)
        try:
            # scaled values may overflow; the slack is then +inf (`_Filter`)
            with np.errstate(over="ignore", invalid="ignore"):
                filt = _Filter(sample_values, numeric_mask, ranges, cfg)
                planes = len(filt.planes)
                tile, source = np.empty(g * rows), np.empty(planes * rows)
                # the chunk's buffer is idle while a tile is selected, and
                # holds the selection's scratch then
                kernel = np.empty(max(planes * width * rows, g * rows, 3 * a))
                keep = np.empty(g * rows, dtype=bool)

                def exact(rows, samples):
                    return _exact_distances(values, rows, sample_values, samples, numeric_mask, ranges, cfg, kernel)

                for r0 in range(0, p, rows):
                    r1 = min(r0 + rows, p)
                    run = r1 - r0
                    fm_rows = source[: planes * run].reshape(planes, run)
                    slack = filt.copy_rows(values[r0:r1], fm_rows)
                    for s0 in range(0, m, g):
                        s1 = min(s0 + g, m)
                        dist = tile[: (s1 - s0) * run].reshape(s1 - s0, run)
                        mask = keep[: dist.size].reshape(dist.shape)
                        for q0 in range(s0, s1, width):
                            q1 = min(q0 + width, s1)
                            cells = (q1 - q0) * run
                            fm = kernel[: planes * cells].reshape(planes, q1 - q0, run)
                            filt.chunk(fm_rows, q0, q1, fm)
                            np.add.reduce(fm, axis=0, out=dist[q0 - s0 : q1 - s0])
                        self._offer_tile(dist, slack, s0, r0, block, exact, mask, kernel)
        finally:
            np.setbufsize(bufsize)

    def _offer_tile(self, approx, slack, s0, r0, block, exact, keep, scratch) -> None:
        """Offer one tile's rows to their cells: column j of `approx` holds
        the approximate distances of the block's row `r0 + j` to the samples
        from `s0` on, each within `slack` of the exact one, and
        `exact(rows, samples)` gives the exact distances of paired block
        rows and samples.  `keep`, a bool array of `approx`'s shape, and
        the flat float64 `scratch`, of at least `approx.size` elements, are
        written over.

        A row can enter only its own class's cell, and only at or below the
        cell's last slot's distance.  The filter drops a pair only when it
        provably cannot enter: when its approximation exceeds the bound of
        its class's cell plus `slack`, or, while a class has a cell that is
        not full, exceeds the sample's (k+1)-th smallest approximation over
        the class's rows in the tile plus twice `slack` (one of the k + 1
        nearest may be the sample's own row, so k others are exactly within
        that approximation plus `slack`).  Both tests are written
        `~(approx > limit)`, so a NaN or inf approximation goes on.  The
        survivors, less the samples' own rows found by id and the pairs
        whose exact distance is not below an open slot's (NaN among them),
        go to `_insert` with their exact distances, sorted by (cell,
        distance, id).
        """
        k, m = self.k, self.num_samples
        g, run = approx.shape
        labels = block.labels[r0 : r0 + run]
        # (samples, classes) last slots
        bound = self.dist[:, s0 : s0 + g, k - 1].T
        limit = scratch[: approx.size].reshape(g, run)
        np.take(bound + slack, labels, axis=1, out=limit, mode="clip")
        np.greater(approx, limit, out=keep)
        np.logical_not(keep, out=keep)
        if (bound == _MAX_DIST).any():
            # a cell that is not full yet takes any row of its class: cut at
            # the (k+1)-th first
            for label in np.flatnonzero((bound == _MAX_DIST).any(axis=0)):
                cols = np.flatnonzero(labels == label)
                if len(cols) > k + 1:
                    # in the scratch, and so gathered twice: a copy of the
                    # class's columns, with `np.partition`'s own, would take
                    # up to two tiles on a fresh matrix
                    near = scratch[: g * len(cols)].reshape(g, len(cols))
                    np.take(approx, cols, axis=1, out=near, mode="clip")
                    near.partition(k, axis=1)
                    kth = near[:, k : k + 1] + 2 * slack
                    np.take(approx, cols, axis=1, out=near, mode="clip")
                    keep[:, cols] &= ~(near > kth)
        # one flat scan; `np.nonzero` on a 2-d mask costs over ten times more
        s_idx, at = np.divmod(np.flatnonzero(keep), run)
        other = block.ids[r0 + at] != self.sample_ids[s0 + s_idx]
        s_idx, at = s_idx[other], at[other]
        if not at.size:
            return
        rows = r0 + at
        cell = labels[at] * m + s0 + s_idx
        d, ids = exact(rows, s0 + s_idx), block.ids[rows]
        by_key = np.lexsort((ids, d, cell))
        by_key = by_key[d[by_key] < _MAX_DIST]
        self._insert(cell[by_key], d[by_key], ids[by_key], block.values, rows[by_key])

    def _insert(self, cell, d, ids, source, rows) -> None:
        """Enter candidates into their cells, keeping each cell's k best:
        candidate i goes to flat cell `cell[i]` (class * m + sample) with
        exact distance `d[i]`, id `ids[i]` and row `source[rows[i]]`; no id
        is offered twice to a cell or is already held by it.  Candidates
        come in ascending (cell, distance, id) order: `_offer_tile` sorts
        its pairs so, and a matrix's filled slots are in that order already;
        each distance is below `_MAX_DIST`, an open slot's.  They are placed
        in as few equal slices of at most `INSERT_ELEMS // (k + a)` as they
        fit: a cell that two slices share holds the first slice's
        candidates when the second comes, and they all come before the
        second's.
        """
        if len(cell):
            step = _even(len(cell), max(1, INSERT_ELEMS // (self.k + self.values.shape[3])))
            for i in range(0, len(cell), step):
                j = slice(i, i + step)
                self._place(cell[j], d[j], ids[j], source, rows[j])

    def _place(self, cell, d, ids, source, rows) -> None:
        """`_insert` one slice of candidates.

        Nothing is sorted here: held entries are in order in their cells.  A
        candidate's slot is the number of its cell's held entries that come
        before it plus its rank among its cell's candidates, and a held entry
        moves up by the number of its cell's candidates that come before it.
        What lands at slot k or past it is dropped: a candidate not below its
        cell's last slot, nor at it with a smaller id, among them.  Held
        entries that keep their slot are not written, and each new row is
        copied once.
        """
        k = self.k
        to_d, to_i, to_v = self._slots()
        # each candidate's rank among its cell's, each cell's first
        # candidate and the cell's candidate count
        rank = np.arange(len(cell)) - cell.searchsorted(cell)
        head = (rank == 0).nonzero()[0]
        touched = cell[head]
        offered = cell.searchsorted(touched, side="right") - head
        # before[i, j]: slot j of candidate i's cell holds an entry that
        # comes before it; an open slot's distance never does
        held = self.dist.reshape(-1, k)[cell]
        before, tie = held < d[:, None], held == d[:, None]
        del held
        tie &= self.ids.reshape(-1, k)[cell] < ids[:, None]
        before |= tie
        slot = before.sum(axis=1) + rank
        # slot j of each cell offered to moves up by the candidates before it
        shift = offered[:, None] - np.add.reduceat(before, head, axis=0, dtype=np.int64)
        src = np.arange(k)
        dst = src + shift
        moved = (shift > 0) & (dst < k)
        base = touched[:, None] * k
        src, dst = (base + src)[moved], (base + dst)[moved]
        # the right-hand sides are gathered before any slot is written
        to_d[dst], to_i[dst], to_v[dst] = to_d[src], to_i[src], to_v[src]
        placed = slot < k
        to = (cell * k + slot)[placed]
        to_d[to], to_i[to], to_v[to] = d[placed], ids[placed], source[rows[placed]]
        count = self.count.reshape(-1)
        count[touched] = np.minimum(count[touched] + offered, k)

    def merge(self, other: "NeighborMatrix") -> "NeighborMatrix":
        """Keep each cell's k best entries of the two matrices' union:
        `other`'s filled slots, in (cell, distance, id) order, are inserted
        as candidates."""
        d, ids, values = other._slots()
        filled = np.flatnonzero(other.filled())
        self._insert(filled // self.k, d[filled], ids[filled], values, filled)
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
        a length that does not match the counts, a distance not below an
        open slot's (NaN too), or a cell out of ascending (distance, id)
        order."""
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
        if not (d[held] < _MAX_DIST).all() or (held[..., 1:] & ~ordered).any():
            raise ValueError("neighbour matrix has a distance not below an open slot's or out of ascending order")
        return out
