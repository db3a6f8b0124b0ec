"""The benchmark's own input generator.

Every input is made from the workload seed alone, with planted structure
the benchmark knows: informative numeric columns are class-conditional
Gaussians, informative nominal columns repeat the class with high
probability, and noise columns (numeric uniform, nominal uniform over
categories) carry no class signal.  Column order is shuffled by the seed,
so planted columns sit at varying positions.

The generated arrays are what the oracle scores.  The program sees them
only as files: a headered CSV (every float written with `repr`, which
round-trips float64 exactly) or raw `.npy` arrays plus a JSON layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATEGORIES = 4  # levels of each nominal column
SIGMA = 0.25  # spread of informative numeric columns; class means sit 1 apart
PURITY = 0.9  # chance that an informative nominal cell repeats the class


@dataclass(frozen=True)
class DataSpec:
    n: int
    informative: int  # numeric, class-conditional Gaussian
    noise: int  # numeric, uniform
    nominal_informative: int
    nominal_noise: int
    classes: int

    @property
    def num_features(self) -> int:
        return self.informative + self.noise + self.nominal_informative + self.nominal_noise


@dataclass
class Dataset:
    """Generated rows: values (n, a) float64, nominal cells hold category codes."""

    values: np.ndarray
    labels: np.ndarray  # int32 class ids 0..c-1
    nominal: np.ndarray  # bool (a,), True for nominal columns
    informative: np.ndarray  # bool (a,), True for planted columns
    classes: int

    @property
    def names(self) -> list[str]:
        return [f"f{j:02d}" for j in range(self.values.shape[1])]


def generate(spec: DataSpec, seed: int) -> Dataset:
    rng = np.random.default_rng([seed, spec.n, spec.num_features, spec.classes])
    c = spec.classes
    # unequal class sizes, so the prior weighting matters
    probs = np.linspace(1.0, 2.0, c)
    labels = rng.choice(c, size=spec.n, p=probs / probs.sum()).astype(np.int32)

    cols, nominal, informative = [], [], []
    for _ in range(spec.informative):
        means = rng.permutation(c).astype(np.float64)
        cols.append(rng.normal(means[labels], SIGMA))
        nominal.append(False)
        informative.append(True)
    for _ in range(spec.noise):
        cols.append(rng.uniform(0.0, 1.0, size=spec.n))
        nominal.append(False)
        informative.append(False)
    for _ in range(spec.nominal_informative):
        shift = int(rng.integers(0, CATEGORIES))
        keep = rng.random(spec.n) < PURITY
        other = rng.integers(0, CATEGORIES, size=spec.n)
        cols.append(np.where(keep, (labels + shift) % CATEGORIES, other).astype(np.float64))
        nominal.append(True)
        informative.append(True)
    for _ in range(spec.nominal_noise):
        cols.append(rng.integers(0, CATEGORIES, size=spec.n).astype(np.float64))
        nominal.append(True)
        informative.append(False)

    order = rng.permutation(len(cols))
    values = np.ascontiguousarray(np.stack([cols[j] for j in order], axis=1))
    return Dataset(
        values=values,
        labels=labels,
        nominal=np.array(nominal)[order],
        informative=np.array(informative)[order],
        classes=c,
    )


def write_csv(data: Dataset, path: Path) -> None:
    """Headered CSV with an inferable schema: nominal cells are `k<code>`
    (never a number), the class column `label` is last with `c<id>`."""
    cells = []
    for j in range(data.values.shape[1]):
        col = data.values[:, j]
        if data.nominal[j]:
            cells.append(["k%d" % v for v in col.astype(np.int64).tolist()])
        else:
            cells.append([repr(v) for v in col.tolist()])
    cells.append(["c%d" % v for v in data.labels.tolist()])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(data.names + ["label"]) + "\n")
        fh.write("\n".join(",".join(row) for row in zip(*cells)))
        fh.write("\n")


def write_arrays(data: Dataset, stem: Path) -> None:
    """`<stem>.values.npy`, `<stem>.labels.npy` and `<stem>.json` (layout)."""
    np.save(f"{stem}.values.npy", data.values)
    np.save(f"{stem}.labels.npy", data.labels)
    layout = {"names": data.names, "nominal": data.nominal.tolist(), "classes": data.classes}
    Path(f"{stem}.json").write_text(json.dumps(layout))
