"""Sequential single-machine feature weighting, used as the correctness
oracle for the partition-parallel pipeline.

Follows the classic formulation literally: for each drawn sample, find its
k nearest same-class instances (hits) and, per other class, the k nearest
instances of that class (misses); subtract averaged hit differences and add
prior-weighted averaged miss differences, feature by feature.

Neighbour selection here is a full sort per class rather than the bounded
neighbour matrix the parallel path fills; both honour the same (distance,
id) order and id-based self-exclusion, so agreement between the two is a
meaningful check of the matrix's selection and merging.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ClassPriors,
    DiffConfig,
    FeatureRange,
    Instance,
    InstanceBlock,
    ModelError,
    Schema,
    WeightVector,
    diff,
    feature_diffs,
)

__all__ = ["relieff_sequential"]


def _k_nearest(block, dists, label, exclude_id, k):
    """Indices of the k nearest class members by (distance, id), ascending."""
    sel = np.flatnonzero((block.labels == label) & (block.ids != exclude_id))
    if sel.size == 0:
        return sel
    order = np.lexsort((block.ids[sel], dists[sel]))
    return sel[order[:k]]


def relieff_sequential(
    instances,
    samples: list[Instance],
    k: int,
    cfg: DiffConfig,
    schema: Schema,
    average_by_found: bool = False,
) -> WeightVector:
    """Weight every feature from an in-memory instance list.

    `samples` is supplied by the caller so a parallel run and this oracle
    can score the identical draw.  The per-class divisor is the fixed k
    unless `average_by_found` switches it to the retrieved count.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    block = instances if isinstance(instances, InstanceBlock) else InstanceBlock.from_instances(instances)
    if len(samples) < 1:
        raise ModelError("need at least one sample")
    mask = schema.numeric_mask()
    names = [f.name for f in schema.features]
    ranges = FeatureRange(block.values.min(axis=0), block.values.max(axis=0), mask, names)
    priors = ClassPriors(np.bincount(block.labels, minlength=schema.num_classes))

    a = schema.num_features
    m = len(samples)
    W = np.zeros(a)
    for sample in samples:
        dists = np.sum(feature_diffs(block.values, sample.values, mask, ranges, cfg), axis=-1)
        cl = sample.label

        hit_idx = _k_nearest(block, dists, cl, sample.id, k)
        hit_div = m * (len(hit_idx) if average_by_found else k)
        if hit_div:
            for feature in range(a):
                acc = 0.0
                for j in hit_idx:
                    acc += diff(feature, sample, block[int(j)], ranges, cfg, mask)
                W[feature] -= acc / hit_div

        p_cl = priors.prior(cl)
        if 1.0 - p_cl <= 0.0:
            continue
        for other in range(schema.num_classes):
            if other == cl or priors.counts[other] == 0:
                continue
            miss_idx = _k_nearest(block, dists, other, sample.id, k)
            miss_div = m * (len(miss_idx) if average_by_found else k)
            if not miss_div:
                continue
            coef = priors.prior(other) / (1.0 - p_cl)
            for feature in range(a):
                acc = 0.0
                for j in miss_idx:
                    acc += diff(feature, sample, block[int(j)], ranges, cfg, mask)
                W[feature] += coef * acc / miss_div
    return WeightVector(W)
