"""Synthetic dataset generation for benchmarks and experiments.

Numeric-only datasets with a controlled signal: informative features are
class-conditional Gaussians whose means sit one unit apart per class, noise
features are uniform and independent of the class, and labels can be
flipped with a given probability to blur the signal.  Everything derives
from one seed, so a spec reproduces its dataset (and files) byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .engine import PartitionedDataset
from .model import FeatureKind, FeatureMeta, InstanceBlock, ModelError, Schema

__all__ = ["SynthSpec", "make_block", "make_dataset", "gen_synthetic"]

# narrow enough that adjacent class means (1 apart) barely overlap
_SIGMA = 0.5


@dataclass(frozen=True)
class SynthSpec:
    n: int
    informative: int
    noise: int
    classes: int = 2
    seed: int = 0
    flip_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("n must be >= 1")
        if self.informative < 0 or self.noise < 0 or self.informative + self.noise < 1:
            raise ModelError("need at least one feature")
        if self.classes < 2:
            raise ModelError("need at least two classes")
        if not (0.0 <= self.flip_prob < 0.5):
            raise ModelError("flip_prob must be in [0, 0.5)")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")

    @property
    def num_features(self) -> int:
        return self.informative + self.noise


def _schema_for(spec: SynthSpec) -> Schema:
    feats = tuple(
        FeatureMeta(name=f"x{j:02d}", kind=FeatureKind.NUMERIC, index=j)
        for j in range(spec.num_features)
    )
    labels = tuple(f"c{ci}" for ci in range(spec.classes))
    return Schema(features=feats, class_labels=labels)


def make_block(spec: SynthSpec):
    """Generate the full dataset in memory as (schema, block)."""
    rng = np.random.default_rng(spec.seed)
    true_labels = rng.integers(0, spec.classes, size=spec.n)
    cols = []
    if spec.informative:
        means = true_labels[:, None].astype(np.float64)
        cols.append(rng.normal(loc=means, scale=_SIGMA, size=(spec.n, spec.informative)))
    if spec.noise:
        cols.append(rng.uniform(0.0, 1.0, size=(spec.n, spec.noise)))
    values = np.concatenate(cols, axis=1)

    labels = true_labels.copy()
    if spec.flip_prob > 0.0:
        flip = rng.random(spec.n) < spec.flip_prob
        shift = rng.integers(1, spec.classes, size=spec.n)
        labels[flip] = (labels[flip] + shift[flip]) % spec.classes

    block = InstanceBlock(
        np.arange(spec.n, dtype=np.int64), labels.astype(np.int32), values
    )
    return _schema_for(spec), block


def make_dataset(spec: SynthSpec, partitions: int = 1) -> PartitionedDataset:
    """Generate directly into a partitioned dataset (no files involved)."""
    schema, block = make_block(spec)
    return PartitionedDataset.split(block, partitions, schema)


def gen_synthetic(spec: SynthSpec, csv_path, sidecar_path=None) -> None:
    """Emit the dataset as CSV (+ JSON sidecar pinning the schema).

    Values are written with repr, which round-trips float64 exactly: the
    loaded dataset equals the in-memory one, and equal specs give
    byte-identical files.
    """
    schema, block = make_block(spec)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f.name for f in schema.features] + ["label"]) + "\n")
        class_labels = schema.class_labels
        for i in range(len(block)):
            row = [repr(v) for v in block.values[i].tolist()]
            row.append(class_labels[block.labels[i]])
            fh.write(",".join(row) + "\n")
    if sidecar_path is not None:
        doc = {
            "columns": [
                {"name": f.name, "kind": f.kind.value} for f in schema.features
            ]
            + [{"name": "label"}],
            "class_column": "label",
            "class_labels": list(schema.class_labels),
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
