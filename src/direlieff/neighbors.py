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
the pairs that cannot enter any cell.  They are float32, half the bytes of
float64 for every pass of the kernel, unless the slack that float32 allows
would be too wide to filter, as under a very narrow ramp band; the class
limits and the k-th cut they are compared with are float32 too, rounded up.
The approximation divides nothing per element: each feature's divisions
move onto one scale per feature, the samples are scaled once per block, and
a tile's rows once as they are copied feature-major, (features, rows), so
that every later pass reads and writes whole contiguous rows of one
feature.  Numeric values are centred on their range's minimum before they
are rounded to float32, so that an offset does not cost them precision.  A
kernel chunk, a few samples against the whole run, is then a subtraction,
an absolute value and, under the ramp, a shift and a clip, each one numpy
call over all numeric features; nominal features are compared with `!=`,
from float64 copies.  One `np.add.reduce` over the feature axis adds the
chunk's planes into the tile, plane after plane; the slack holds for any
order of the sum.  No call is made per feature: every numpy call has a
fixed cost, which is why chunks are large.

The exact distance of every pair that passes is then computed in float64
by `feature_diffs(...).sum(axis=-1)` over the gathered (row, sample) pairs,
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
folds a process's whole run of partitions into one matrix, so after its
first tile the cells are full and the cut is almost never needed.
`tiling` bounds the tile, the feature-major copy and the chunk, so the
scratch does not grow with the sample count times the partition size.  The
selection's own scratch, the class limits gathered per tile column, the
k-th cut and the exact refine's float64 buffers, lives in the kernel
chunk's buffer, which is idle between sample groups, and so do the float64
values a run's copy is centred and scaled in.

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

# Scratch caps of `NeighborMatrix.offer_block`, in elements of the filter's
# dtype: the (samples, rows) distance tile, and the feature-major copy of
# the tile's rows and one (features, samples, rows) kernel chunk (512 KiB
# each in float32).  A tile's selection makes a run of small numpy calls
# whatever the tile's size, so large tiles spread their fixed cost; the
# selection's own scratch lives in the kernel chunk's buffer, idle between
# sample groups, so a larger tile adds only the tile and its keep mask, and
# `_insert` places candidates in bounded slices (`INSERT_ELEMS`).  Each
# kernel chunk costs a few calls too, but a chunk larger than the core's
# cache slows each pass.
TILE_ELEMS = 1 << 17
CHUNK_ELEMS = 1 << 17
# Blocks of at least `LARGE_BLOCK_ELEMS` elements (16 MiB) get chunks
# `LARGE_SCALE` times larger, which makes fewer calls per element: on
# criterion 5's four 250k x 20 partitions (2 vCPUs, numpy 2.4) a rank took
# about 13% less time in one process and 9% less in two than with the
# smaller cap.  The larger chunk is about a quarter of a block at this
# size, so smaller blocks keep the smaller cap.
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
# `_Filter` approximates in float32 while the slack that float32 gives rows
# within the ranges is at most this, a 256th of one feature's largest diff,
# and in float64 beyond it.
SLACK32_MAX = 2.0**-8
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
    """Approximate distances for one block, in float32 where that is
    precise enough, with no division per element, and a bound on their
    error.

    Each numeric feature with a width gets a scale, s = 1 / safe_width,
    divided also by the band t_diff - t_eq under the ramp, which also gets
    one shift, t_eq / (t_diff - t_eq).  A value x becomes X = (x - o)·s,
    computed in float64 and rounded once to the filter's dtype.  In float32
    the origin o is the feature's range minimum, so that in-range values
    scale into [0, width·s] and keep float32's 24 bits whatever their
    offset; in float64 it is 0.  A diff is then |X - Y|, and under the ramp
    clip(|X - Y| - shift, 0, 1): the exact diff's operations with the
    divisions moved onto the scale.  The samples are scaled once per block,
    a tile's rows once as they are copied.  Features are held as planes in a
    new order: numeric features with a width, then nominal ones, compared
    with `!=` from float64 copies, as `feature_diffs` compares them; a
    float32 copy would merge distinct codes, such as 2**24 and 2**24 + 1.  A
    zero-width feature's diff is 0 in both distances and has no plane.

    The error bound.  Write u for the unit roundoff of the filter's dtype
    (2**-24 in float32, 2**-53 in float64), U = 2**-53 for that of the
    exact distances and, for one pair (x, y) and one numeric plane,
    r = |x - y|·s, G = |X| + |Y| and q = t_eq / band (0 when linear).  To first order in u
    and U, the exact diff before the clip is within 4U·r + 2U·q of r - q: it
    rounds |x - y|, the division by the width, and under the ramp the
    subtraction of t_eq and the division by the band.  A scaled value is
    within (u + 4U)·|X| of X: it rounds x - o, the scale (twice under the
    ramp), the product and the cast.  With the rounding of the difference,
    of the shift and of its subtraction, the approximation is within
    (u + 4U)·G + 2u·r + (2u + U)·q of r - q.  The clip only brings the two
    closer, and r <= G <= 2M, M being the plane's largest |X| over the
    tile's rows and the samples; so the two diffs differ by at most
    (6u + 16U)·M + (2u + 3U)·q, and by at most 1 under the ramp.  A plane's
    error bound is e = 8(u + 2U)·M + 4(u + U)·q, with M from the min and max
    of the scaled values.  Nominal planes and zero-width features are exact
    in both.  A sum of a nonnegative terms, in any order, errs by at most
    (a - 1) unit roundoffs times their sum; with T a plane's cap on both
    diffs (1 under the ramp and on a nominal plane, and when linear the
    spread of the scaled values plus e), |approx - exact| <= sum(e) +
    a·u·(sum(T) + sum(e)) + a·U·sum(T).  The slack is twice that with 2a in
    place of a, which covers the second-order terms and the rounding of the
    slack's own sums, plus a·tiny, tiny being the dtype's smallest normal
    number, for the absolute error of a value rounded into its subnormal
    range.  It is +inf, so that every pair is refined, where a scaled value
    could overflow (a·sum(M) >= 2**(maxexp - 24), 2**104 in float32) or the
    reciprocal of a width is subnormal and so less precise than U.

    The dtype is float32 unless the slack that float32 gives values within
    the ranges, M taken over [0, width·s], passes `SLACK32_MAX`: under a
    ramp band of 1e-9 in-range values scale up to 1e9, where float32 keeps
    no digit of a diff, and a band of 1e-300 overflows it.  Values outside
    the ranges, which only a direct call can offer, get the slack of their
    own M, up to +inf.
    """

    def __init__(self, sample_values, numeric_mask, ranges: FeatureRange, cfg: DiffConfig):
        self.ramp = cfg.numeric_mode is DiffMode.RAMP
        inverse = 1.0 / ranges.safe_width  # 0 for nominal and zero-width features
        self.numeric = np.flatnonzero(numeric_mask & (inverse > 0))
        self.nominal = np.flatnonzero(~numeric_mask)
        self.num_features = len(numeric_mask)
        self.exact_only = bool((inverse[self.numeric] < _TINY).any())
        scale, self.q = inverse[self.numeric], 0.0
        if self.ramp:
            band = cfg.t_diff - cfg.t_eq
            scale, self.q = scale / band, cfg.t_eq / band
        self.scale = scale[:, None]
        # centred, values within the ranges scale into [0, width·s]
        top = ranges.safe_width[self.numeric] * scale
        self.finfo, self.origin = np.finfo(np.float32), ranges.mins[self.numeric, None]
        if not self._slack(np.zeros_like(top), top) <= SLACK32_MAX:
            self.finfo, self.origin = np.finfo(np.float64), np.zeros_like(self.origin)
        self.dtype = self.finfo.dtype
        self.shift = self.dtype.type(self.q)
        self.samples = np.empty((len(self.numeric), len(sample_values)), self.dtype)
        self._scale(sample_values, self.samples, np.empty(self.samples.size))
        self.lo, self.hi = self.samples.min(axis=1), self.samples.max(axis=1)
        self.nominal_samples = np.ascontiguousarray(sample_values[:, self.nominal].T)

    def _scale(self, values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write the scaled numeric planes of the (rows, features) `values`
        into `out`, (planes, rows) of the filter's dtype, computed in the
        flat float64 `scratch` of at least `out.size` elements."""
        wide = scratch[: out.size].reshape(out.shape)
        if len(self.numeric) == self.num_features:
            # every feature is a plane, in order: copy and centre in one pass
            np.subtract(values.T, self.origin, out=wide)
        else:
            np.take(values.T, self.numeric, axis=0, out=wide, mode="clip")
            wide -= self.origin
        np.multiply(wide, self.scale, out=out)

    def copy_rows(self, values: np.ndarray, out: np.ndarray, nominal: np.ndarray, scratch: np.ndarray) -> float:
        """Copy the (rows, features) `values` into `out` as scaled numeric
        (planes, rows) of the filter's dtype and into `nominal` as float64
        nominal (planes, rows), computing in the flat float64 `scratch` of at
        least `out.size` elements; return the slack of their pairs with the
        samples."""
        self._scale(values, out, scratch)
        np.take(values.T, self.nominal, axis=0, out=nominal, mode="clip")
        lo = np.minimum(out.min(axis=1, initial=np.inf), self.lo)
        hi = np.maximum(out.max(axis=1, initial=-np.inf), self.hi)
        return self._slack(lo.astype(np.float64), hi.astype(np.float64))

    def _slack(self, lo: np.ndarray, hi: np.ndarray) -> float:
        """The bound on |approx - exact| of pairs whose scaled values lie in
        [lo, hi] on each numeric plane, for the dtype of `self.finfo`."""
        mag = np.maximum(np.abs(lo), np.abs(hi))
        a = self.num_features
        if self.exact_only or not a * mag.sum() < 2.0 ** (self.finfo.maxexp - 24):  # NaN too
            return np.inf
        u = float(self.finfo.eps) / 2
        err = 8 * (u + 2 * _U) * mag + 4 * (u + _U) * self.q
        if self.ramp:
            err, caps = np.minimum(err, 1.0), float(len(mag))
        else:
            caps = float((hi - lo + err).sum())
        caps += len(self.nominal)
        errs = float(err.sum())
        return 2 * (errs + 2 * a * (u * (caps + errs) + _U * caps)) + a * float(self.finfo.tiny)

    def chunk(self, rows: np.ndarray, nominal: np.ndarray, q0: int, q1: int, out: np.ndarray) -> None:
        """Write the approximate diffs of the copied numeric (planes, run)
        `rows` and `nominal` rows against samples q0 to q1 into `out`,
        (planes, samples, run) of the filter's dtype."""
        n = len(rows)
        diffs = out[:n]
        np.subtract(rows[:, None, :], self.samples[:, q0:q1, None], out=diffs)
        np.abs(diffs, out=diffs)
        if self.ramp:
            diffs -= self.shift
            np.clip(diffs, 0.0, 1.0, out=diffs)
        if len(nominal):
            np.not_equal(nominal[:, None, :], self.nominal_samples[:, q0:q1, None], out=out[n:])


def _round_up(x: np.ndarray, dtype) -> np.ndarray:
    """float64 `x` in `dtype`, each value rounded up, so that none falls
    below its float64 value."""
    y = x.astype(dtype)
    return np.where(y < x, np.nextafter(y, np.inf), y)


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
        diffs into a contiguous (planes, g, rows) buffer of the filter's
        dtype, and one `np.add.reduce` adds the planes into the tile.  A
        sample's own row, found by id among the tile's candidates, is
        excluded.
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
                num, nom, dtype = len(filt.numeric), len(filt.nominal), filt.dtype
                planes = num + nom
                tile = np.empty(g * rows, dtype)
                source, nominal = np.empty(num * rows, dtype), np.empty(nom * rows)
                # the chunk's buffer is idle while a run is copied and while
                # a tile is selected, and holds their scratch then: the
                # float64 rows of `copy_rows` and of the exact refine, viewed
                # as float64
                nbytes = max(dtype.itemsize * max(planes * width, g) * rows, 8 * max(num * rows, 3 * a))
                wide = np.empty(-(-nbytes // 8))
                kernel = wide.view(dtype)
                keep = np.empty(g * rows, dtype=bool)

                def exact(rows, samples):
                    return _exact_distances(values, rows, sample_values, samples, numeric_mask, ranges, cfg, wide)

                for r0 in range(0, p, rows):
                    r1 = min(r0 + rows, p)
                    run = r1 - r0
                    fm_rows = source[: num * run].reshape(num, run)
                    fm_nominal = nominal[: nom * run].reshape(nom, run)
                    slack = filt.copy_rows(values[r0:r1], fm_rows, fm_nominal, wide)
                    for s0 in range(0, m, g):
                        s1 = min(s0 + g, m)
                        dist = tile[: (s1 - s0) * run].reshape(s1 - s0, run)
                        mask = keep[: dist.size].reshape(dist.shape)
                        for q0 in range(s0, s1, width):
                            q1 = min(q0 + width, s1)
                            cells = (q1 - q0) * run
                            fm = kernel[: planes * cells].reshape(planes, q1 - q0, run)
                            filt.chunk(fm_rows, fm_nominal, q0, q1, fm)
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
        the flat `scratch` of `approx`'s dtype, of at least `approx.size`
        elements, are written over.

        A row can enter only its own class's cell, and only at or below the
        cell's last slot's distance.  The filter drops a pair only when it
        provably cannot enter: when its approximation exceeds the bound of
        its class's cell plus `slack`, or, while a class has a cell that is
        not full, exceeds the sample's (k+1)-th smallest approximation over
        the class's rows in the tile plus twice `slack` (one of the k + 1
        nearest may be the sample's own row, so k others are exactly within
        that approximation plus `slack`).  Each limit is computed in
        float64 and rounded up to `approx`'s dtype.  Both tests are written
        `~(approx > limit)`, so a NaN or inf approximation goes on.  The
        survivors, less the samples' own rows found by id and the pairs
        whose exact distance is not below an open slot's (an inf or NaN
        one, which only rows outside the ranges give, among them), go to
        `_insert` with their exact distances, sorted by (cell, distance,
        id).
        """
        k, m = self.k, self.num_samples
        g, run = approx.shape
        labels = block.labels[r0 : r0 + run]
        # (samples, classes) last slots
        bound = self.dist[:, s0 : s0 + g, k - 1].T
        limit = scratch[: approx.size].reshape(g, run)
        np.take(_round_up(bound + slack, approx.dtype), labels, axis=1, out=limit, mode="clip")
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
                    kth = _round_up(np.add(near[:, k : k + 1], 2 * slack, dtype=np.float64), approx.dtype)
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
