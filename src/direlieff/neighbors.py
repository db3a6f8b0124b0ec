"""Bounded nearest-neighbour selection.

A neighbour entry is ordered by the pair (distance, instance id); ids are
unique, so the order is total and every top-k set is unique.  That is what
makes the search reproducible: any sequence of offers, in any grouping or
order, yields the same k survivors.

`NeighborMatrix` is the accumulator for the neighbour stage: one bounded
heap per (class, sample) cell, filled from instance blocks by `offer_block`
and merged across partitions.  A block is filled tile by tile: a tile holds the
distances from a group of samples to a run of the block's rows, and
`feature_diffs` fills it one kernel chunk of rows at a time.  For each class
one `np.partition` along each sample's row of the tile finds its k-th
distance; only the rows at or below it are sorted and offered to the heaps.
`TILE_ELEMS` and `CHUNK_ELEMS` cap the tile and the chunk, so the scratch
does not grow with the sample count times the partition size.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from .model import DiffConfig, FeatureRange, InstanceBlock, feature_diffs

__all__ = ["NeighborHeap", "NeighborMatrix"]

_ENTRY_HEAD = struct.Struct("!dqi")  # distance, neighbour id, class id
_CELL_HEAD = struct.Struct("!i")
_MATRIX_HEAD = struct.Struct("!iiii")  # classes, samples, k, features

# Scratch caps of `NeighborMatrix.offer_block`, in float64 elements: the
# (samples, rows) distance tile (512 KiB) and one (samples, rows, features)
# diff-kernel chunk (1 MiB).  Each kernel chunk costs a few GIL round trips,
# so threads running partitions in parallel scale better with larger chunks;
# a larger scratch raises a worker's peak RSS.
TILE_ELEMS = 1 << 16
CHUNK_ELEMS = 1 << 17


class NeighborHeap:
    """Keeps the k best entries under ascending (distance, id).

    Internally a heap of (-distance, -id, label, values) tuples, so the
    root is always the current worst; ids are unique, so comparisons never
    reach the array payload.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        self.k = k
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    def offer(self, dist: float, iid: int, label: int, values: np.ndarray) -> None:
        item = (-dist, -iid, label, values)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item[:2] > self._heap[0][:2]:
            heapq.heapreplace(self._heap, item)

    def merge(self, other: "NeighborHeap") -> None:
        for negd, negi, label, values in other._heap:
            self.offer(-negd, -negi, label, values)

    def sorted_entries(self) -> list:
        """Entries as (distance, id, label, values), ascending (distance, id)."""
        items = sorted(self._heap, key=lambda e: e[:2], reverse=True)
        return [(-negd, -negi, label, values) for negd, negi, label, values in items]


class NeighborMatrix:
    """Per (class, sample) bounded heaps over a dataset's instances.

    Cell (C, i) collects the k nearest class-C instances to sample i,
    excluding the sample itself by id.  Filling is associative and
    commutative: partitions can be folded independently and merged.
    """

    def __init__(self, num_classes: int, sample_ids, k: int):
        self.num_classes = num_classes
        self.sample_ids = list(sample_ids)
        self.k = k
        self.grid = [
            [NeighborHeap(k) for _ in self.sample_ids] for _ in range(num_classes)
        ]

    @property
    def num_samples(self) -> int:
        return len(self.sample_ids)

    # -- filling ----------------------------------------------------------

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
        run of the block's rows: `feature_diffs` on (1, rows, a) kernel
        chunks against the (g, 1, a) sample group, summed over the feature
        axis.  Each sample's slab of a chunk is contiguous, so the kernel
        costs the same per element whatever the group size.  A sample's own
        row gets distance +inf, which excludes it by id.  Per class, one
        `np.partition` along each sample's row of the tile finds its k-th
        distance; every row at or below it is a candidate, so ties at the
        k-th distance survive, and the candidates are sorted by (sample,
        distance, id).  The first k of each sample go to the heap.
        """
        p, m, a = len(block), self.num_samples, block.values.shape[1]
        if p == 0 or m == 0:
            return
        ids, labels, values = block.ids, block.labels, block.values
        class_rows = [np.flatnonzero(labels == label) for label in range(self.num_classes)]
        # row of each sample's own instance in the block; -1 if absent
        sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        by_id = np.argsort(ids)
        found = by_id[np.searchsorted(ids, sample_ids, sorter=by_id).clip(max=p - 1)]
        self_row = np.where(ids[found] == sample_ids, found, -1)

        g = min(m, max(1, TILE_ELEMS // p), max(1, CHUNK_ELEMS // a))
        rows = min(p, TILE_ELEMS // g)
        chunk = max(1, CHUNK_ELEMS // (g * a))
        tile, kernel = np.empty(g * rows), np.empty(g * chunk * a)
        for s0 in range(0, m, g):
            group = sample_values[s0 : s0 + g, None, :]
            width = len(group)
            own = self_row[s0 : s0 + g]
            for r0 in range(0, p, rows):
                r1 = min(r0 + rows, p)
                dist = tile[: width * (r1 - r0)].reshape(width, r1 - r0)
                for c0 in range(r0, r1, chunk):
                    c1 = min(c0 + chunk, r1)
                    out = kernel[: width * (c1 - c0) * a].reshape(width, c1 - c0, a)
                    diffs = feature_diffs(values[None, c0:c1], group, numeric_mask, ranges, cfg, out)
                    diffs.sum(axis=-1, out=dist[:, c0 - r0 : c1 - r0])
                inside = np.flatnonzero((own >= r0) & (own < r1))
                dist[inside, own[inside] - r0] = np.inf
                for label, members in enumerate(class_rows):
                    sel = members[np.searchsorted(members, r0) : np.searchsorted(members, r1)]
                    if sel.size:
                        self._offer_nearest(label, s0, dist[:, sel - r0], sel, block)

    def _offer_nearest(self, label, s0, dist, sel, block) -> None:
        """Offer each sample's k nearest rows among `sel`, the class-`label`
        rows of `block`; column j of `dist` holds row `sel[j]`'s distances
        to the samples from `s0` on."""
        k = self.k
        keep = dist < np.inf
        if len(sel) > k:
            keep &= dist <= np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        s_idx, at = np.nonzero(keep)
        d = dist[s_idx, at]
        rows = sel[at]
        cand = block.ids[rows]
        by_key = np.lexsort((cand, d, s_idx))
        s_sorted = s_idx[by_key]
        top = by_key[np.arange(len(by_key)) - np.searchsorted(s_sorted, s_sorted) < k]
        heaps = self.grid[label]
        for s, dd, iid, j in zip(s_idx[top].tolist(), d[top].tolist(), cand[top].tolist(), rows[top].tolist()):
            heaps[s0 + s].offer(dd, iid, label, block.values[j])

    def merge(self, other: "NeighborMatrix") -> "NeighborMatrix":
        for c in range(self.num_classes):
            mine, theirs = self.grid[c], other.grid[c]
            for s_idx in range(self.num_samples):
                mine[s_idx].merge(theirs[s_idx])
        return self

    # -- wire format --------------------------------------------------------

    def encode(self, num_features: int) -> bytes:
        parts = [
            _MATRIX_HEAD.pack(self.num_classes, self.num_samples, self.k, num_features)
        ]
        for row in self.grid:
            for heap in row:
                entries = heap.sorted_entries()
                parts.append(_CELL_HEAD.pack(len(entries)))
                for dist, iid, label, vals in entries:
                    parts.append(_ENTRY_HEAD.pack(dist, iid, label))
                    parts.append(vals.astype(">f8").tobytes())
        return b"".join(parts)

    @classmethod
    def decode(cls, buf: bytes, sample_ids) -> "NeighborMatrix":
        num_classes, num_samples, k, a = _MATRIX_HEAD.unpack_from(buf, 0)
        if num_samples != len(sample_ids):
            raise ValueError("sample count mismatch in encoded neighbour matrix")
        out = cls(num_classes, sample_ids, k)
        at = _MATRIX_HEAD.size
        for c in range(num_classes):
            for s_idx in range(num_samples):
                (count,) = _CELL_HEAD.unpack_from(buf, at)
                at += _CELL_HEAD.size
                heap = out.grid[c][s_idx]
                for _ in range(count):
                    dist, iid, label = _ENTRY_HEAD.unpack_from(buf, at)
                    at += _ENTRY_HEAD.size
                    vals = np.frombuffer(buf, dtype=">f8", count=a, offset=at).astype(
                        np.float64
                    )
                    at += 8 * a
                    heap.offer(dist, iid, label, vals)
        if at != len(buf):
            raise ValueError(f"{len(buf) - at} trailing bytes after encoded neighbour matrix")
        return out
