"""The partition-parallel feature-weighting pipeline.

Six steps over a partitioned dataset: global feature ranges, class priors,
sample draw, one fold pass filling the per-(class, sample) neighbour
matrix, the per-feature average-difference matrix, and the weight formula.
Everything after the neighbour pass runs on the driver: the neighbour
matrix is c*m cells of at most k entries, small regardless of n.

The heavy stages run through an engine (local pool or TCP cluster); both
expose the same stage interface, and all result combining happens on the
driver in partition order, so a fixed seed yields bit-identical weights on
any backend and any partition count.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .engine import EmptyDatasetError, LocalEngine, PartitionedDataset, draw_sample_positions
from .model import (
    ClassPriors,
    DiffConfig,
    FeatureRange,
    InstanceBlock,
    RankConfig,
    Schema,
    WeightVector,
    feature_diffs,
    rank_features,
)
from .neighbors import NeighborMatrix
from .stages import FETCH, NEIGHBORS, PRIORS, RANGES, FetchParams, NeighborParams

__all__ = [
    "compute_ranges",
    "compute_priors",
    "select_samples",
    "find_neighbors",
    "compute_sdif",
    "compute_weights",
    "rank",
    "RankResult",
    "write_weights_csv",
    "read_weights_csv",
]

log = logging.getLogger(__name__)


def compute_ranges(ds: PartitionedDataset, engine) -> FeatureRange:
    """Exact global per-feature (min, max); one fold pass."""
    if sum(engine.partition_lens(ds)) == 0:
        raise EmptyDatasetError("cannot compute ranges of an empty dataset")
    mins, maxs = engine.run_stage(ds, RANGES, None)
    return FeatureRange(mins, maxs, ds.schema.numeric_mask())


def compute_priors(ds: PartitionedDataset, engine) -> ClassPriors:
    """Empirical prior(C) = count(C) / n; one counting pass."""
    counts = engine.run_stage(ds, PRIORS, None)
    return ClassPriors(counts)


def select_samples(ds: PartitionedDataset, engine, m: int, seed: int) -> InstanceBlock:
    """Draw m instances uniformly without replacement, partition-invariant;
    the block's rows are in draw order.

    m greater than the dataset size is clamped to it with a warning.
    """
    lens = engine.partition_lens(ds)
    n = sum(lens)
    if n == 0:
        raise EmptyDatasetError("cannot sample from an empty dataset")
    if m > n:
        log.warning("sample size %d exceeds dataset size %d; clamping to %d", m, n, n)
        m = n
    positions = np.asarray(draw_sample_positions(n, m, seed))
    # FETCH returns the rows in ascending position; by_pos[r] is the draw
    # slot of fetched row r
    by_pos = np.argsort(positions)
    bounds = np.cumsum(lens)
    picks: dict[int, list[int]] = {}
    for pos in positions[by_pos].tolist():
        pidx = int(np.searchsorted(bounds, pos, side="right"))
        picks.setdefault(pidx, []).append(pos - (int(bounds[pidx - 1]) if pidx else 0))
    fetched = engine.run_stage(ds, FETCH, FetchParams(picks=picks))
    return fetched.take(np.argsort(by_pos))


def find_neighbors(
    ds: PartitionedDataset,
    engine,
    samples: InstanceBlock,
    ranges: FeatureRange,
    k: int,
    cfg: DiffConfig,
) -> NeighborMatrix:
    """Single fold pass filling every (class, sample) neighbour cell.

    Distances are computed on the fly inside the fold and never stored as a
    dataset; only the bounded neighbour matrix travels back to the driver.
    """
    params = NeighborParams.build(ds.schema, samples, k, ranges, cfg)
    return engine.run_stage(ds, NEIGHBORS, params)


def compute_sdif(
    nn: NeighborMatrix,
    samples: InstanceBlock,
    ranges: FeatureRange,
    k: int,
    cfg: DiffConfig,
    numeric_mask: np.ndarray,
    average_by_found: bool = False,
) -> np.ndarray:
    """Per-(class, sample) average feature differences, shape (c, m, a).

    Cell (C, i, A) is the mean diff of feature A between sample i and its
    selected class-C neighbours, summed in ascending (distance, id) order.
    The divisor is the fixed k unless `average_by_found` asks for the
    actual neighbour count; a cell with no neighbours is 0.  Runs on the
    driver, over all cells at once; the matrix is small.
    """
    count = nn.count
    diffs = feature_diffs(nn.values, samples.values[None, :, None, :], numeric_mask, ranges, cfg)
    # an unfilled slot adds +0.0: every diff is >= +0.0, so the sums keep their bits
    diffs[~nn.filled()] = 0.0
    sums = diffs.sum(axis=2)
    if len(numeric_mask) == 1:
        # numpy adds a lone column pairwise, in an order set by its length:
        # a short cell is summed over its own entries, as one cell alone is
        for n in np.unique(count[(count > 0) & (count < nn.k)]).tolist():
            sums[count == n] = diffs[count == n][:, :n].sum(axis=1)
    if not average_by_found:
        return sums / k
    return np.divide(sums, count[..., None], out=np.zeros_like(sums), where=count[..., None] > 0)


def compute_weights(
    sdif: np.ndarray,
    samples: InstanceBlock,
    priors: ClassPriors,
) -> WeightVector:
    """Fold the difference averages into one weight per feature.

    For each sample: subtract the same-class column, add every other-class
    column scaled by prior(C) / (1 - prior(class of sample)); average over
    samples.  Classes with prior 0 contribute nothing, and a sample whose
    class has prior 1 contributes its same-class term only.

    Per-sample terms are accumulated in sample-id order, not draw order, so
    two draws covering the same instances give bit-identical weights.
    """
    c, m, a = sdif.shape
    total = np.zeros(a)
    for i in np.argsort(samples.ids).tolist():
        cl = int(samples.labels[i])
        term = -sdif[cl, i]
        p_cl = priors.prior(cl)
        denom = 1.0 - p_cl
        if denom > 0.0:
            for ci in range(c):
                if ci == cl or priors.counts[ci] == 0:
                    continue
                term = term + (priors.prior(ci) / denom) * sdif[ci, i]
        total += term
    return WeightVector(total / len(samples))


@dataclass(frozen=True)
class RankResult:
    """Everything a ranking run produced, for reporting and reuse."""

    weights: WeightVector
    ranking: np.ndarray
    samples: InstanceBlock
    priors: ClassPriors
    ranges: FeatureRange
    n: int
    config: RankConfig


def rank(ds: PartitionedDataset, config: RankConfig, engine=None) -> RankResult:
    """Full pipeline: ranges, priors, samples, neighbours, weights, order."""
    if ds.schema is None:
        raise ValueError("ranking needs a dataset with a schema")
    engine = engine if engine is not None else LocalEngine()
    n = sum(engine.partition_lens(ds))
    ranges = compute_ranges(ds, engine)
    priors = compute_priors(ds, engine)
    samples = select_samples(ds, engine, config.m, config.seed)
    nn = find_neighbors(ds, engine, samples, ranges, config.k, config.diff)
    sdif = compute_sdif(
        nn,
        samples,
        ranges,
        config.k,
        config.diff,
        ds.schema.numeric_mask(),
        config.average_by_found,
    )
    weights = compute_weights(sdif, samples, priors)
    return RankResult(
        weights=weights,
        ranking=rank_features(weights),
        samples=samples,
        priors=priors,
        ranges=ranges,
        n=n,
        config=config,
    )


def write_weights_csv(path, schema: Schema, weights: WeightVector, ranking: np.ndarray) -> None:
    """Weights file: one row per feature, best first.

    Weights are written with repr, which round-trips float64 exactly, so
    equal weights always produce byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_index", "feature_name", "weight", "rank"])
        for pos, fidx in enumerate(ranking, start=1):
            fidx = int(fidx)
            writer.writerow([fidx, schema.features[fidx].name, repr(float(weights.values[fidx])), pos])


def read_weights_csv(path) -> list[dict]:
    """Parse a weights file back into row dicts (typed)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        {
            "feature_index": int(r["feature_index"]),
            "feature_name": r["feature_name"],
            "weight": float(r["weight"]),
            "rank": int(r["rank"]),
        }
        for r in rows
    ]
