"""Domain types and the per-feature difference math shared by every module.

Feature quality weighting works on mixed nominal/numeric instances.  All
values are stored in a single float64 vector per instance: numeric slots
hold the raw value, nominal slots hold the interned category id (an exact
small integer, so float equality is a safe category comparison).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FeatureKind",
    "FeatureMeta",
    "Schema",
    "Instance",
    "InstanceBlock",
    "FeatureRange",
    "ClassPriors",
    "DiffMode",
    "DiffConfig",
    "WeightVector",
    "RankConfig",
    "ModelError",
    "diff",
    "feature_diffs",
    "rank_features",
]

# FP accumulation may overshoot the mathematical weight bound of 1 by a few
# ulps; anything past this slack is a real bug, not rounding.
_WEIGHT_SLACK = 1e-9


class ModelError(ValueError):
    """Raised when a domain invariant is violated at construction time."""


class FeatureKind(enum.Enum):
    NOMINAL = "nominal"
    NUMERIC = "numeric"


class DiffMode(enum.Enum):
    LINEAR = "linear"
    RAMP = "ramp"


@dataclass(frozen=True)
class FeatureMeta:
    """Identity and type of one feature column."""

    name: str
    kind: FeatureKind
    index: int


@dataclass(frozen=True)
class Schema:
    """Ordered feature metadata plus the ordered set of class labels."""

    features: tuple[FeatureMeta, ...]
    class_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.features) < 1:
            raise ModelError("schema needs at least one feature")
        if len(self.class_labels) < 2:
            raise ModelError("schema needs at least two class labels")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ModelError("feature names must be unique")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ModelError("class labels must be unique")
        for pos, f in enumerate(self.features):
            if f.index != pos:
                raise ModelError(f"feature {f.name!r} has index {f.index}, expected {pos}")

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def num_classes(self) -> int:
        return len(self.class_labels)

    def numeric_mask(self) -> np.ndarray:
        """Boolean vector, True where the feature is numeric."""
        return np.array([f.kind is FeatureKind.NUMERIC for f in self.features], dtype=bool)

    def to_dict(self) -> dict:
        return {
            "features": [{"name": f.name, "kind": f.kind.value} for f in self.features],
            "class_labels": list(self.class_labels),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        """The schema `to_dict` wrote; ModelError on any other shape."""
        try:
            feats = tuple(
                FeatureMeta(name=c["name"], kind=FeatureKind(c["kind"]), index=i)
                for i, c in enumerate(d["features"])
            )
            return cls(features=feats, class_labels=tuple(d["class_labels"]))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"not a schema: {exc!r}") from None


@dataclass(frozen=True, eq=False)
class Instance:
    """One row: feature values, class id, and its ingestion ordinal.

    `values` has one float64 per feature; nominal slots carry category ids.
    The id is unique within a dataset and doubles as the global row position.
    """

    id: int
    label: int
    values: np.ndarray


class InstanceBlock:
    """A contiguous batch of instances stored column-wise for fast math.

    Acts as a read-only sequence of :class:`Instance`.  The arrays are
    frozen so blocks can be shared across worker threads.
    """

    __slots__ = ("ids", "labels", "values")

    def __init__(self, ids: np.ndarray, labels: np.ndarray, values: np.ndarray):
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or len(ids) != len(labels) or len(ids) != values.shape[0]:
            raise ModelError("inconsistent block shapes")
        # a NaN or inf would poison the feature ranges and the total
        # (distance, id) order of the neighbour search
        finite = np.isfinite(values)
        if not finite.all():
            row, col = (int(x) for x in np.argwhere(~finite)[0])
            raise ModelError(
                f"non-finite value {values[row, col]!r} in instance {int(ids[row])}, feature {col}"
            )
        for arr in (ids, labels, values):
            arr.flags.writeable = False
        self.ids = ids
        self.labels = labels
        self.values = values

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Instance:
        return Instance(id=int(self.ids[i]), label=int(self.labels[i]), values=self.values[i])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def slice(self, start: int, stop: int) -> "InstanceBlock":
        return InstanceBlock(self.ids[start:stop], self.labels[start:stop], self.values[start:stop])

    def take(self, rows) -> "InstanceBlock":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        return InstanceBlock(self.ids[rows], self.labels[rows], self.values[rows])

    @classmethod
    def concat(cls, blocks: "list[InstanceBlock]") -> "InstanceBlock":
        return cls(
            np.concatenate([b.ids for b in blocks]),
            np.concatenate([b.labels for b in blocks]),
            np.concatenate([b.values for b in blocks]),
        )

    @classmethod
    def from_instances(cls, instances) -> "InstanceBlock":
        instances = list(instances)
        if not instances:
            raise ModelError("cannot build a block from zero instances")
        return cls(
            np.array([i.id for i in instances], dtype=np.int64),
            np.array([i.label for i in instances], dtype=np.int32),
            np.stack([i.values for i in instances]),
        )


class FeatureRange:
    """Per-feature global min/max; nominal features carry no range.

    Stores length-a arrays with NaN in nominal slots.  `safe_width` is the
    division-ready interval: +inf where the interval is degenerate or the
    feature is nominal, so `|x-y| / safe_width` is 0 exactly in both cases.
    A numeric interval wider than the largest float64, such as [-1e308,
    1e308], is an error: its width would be +inf, and the diff of two
    values of opposite sign inf / inf = NaN.  `names`, if given, name the
    features in that error.
    """

    __slots__ = ("mins", "maxs", "safe_width")

    def __init__(self, mins: np.ndarray, maxs: np.ndarray, numeric_mask: np.ndarray, names=None):
        mins = np.asarray(mins, dtype=np.float64).copy()
        maxs = np.asarray(maxs, dtype=np.float64).copy()
        if mins.shape != maxs.shape or mins.shape != numeric_mask.shape:
            raise ModelError("range arrays must share the schema's feature count")
        if np.any(mins[numeric_mask] > maxs[numeric_mask]):
            raise ModelError("range min exceeds max")
        mins[~numeric_mask] = np.nan
        maxs[~numeric_mask] = np.nan
        with np.errstate(over="ignore"):
            width = maxs - mins
        overflow = np.flatnonzero(numeric_mask & np.isinf(width))
        if len(overflow):
            j = int(overflow[0])
            name = repr(names[j]) if names is not None else str(j)
            lo, hi = float(mins[j]), float(maxs[j])
            raise ModelError(f"feature {name} ranges from {lo!r} to {hi!r}, a width beyond the largest float64")
        safe = np.full(mins.shape, np.inf)
        usable = numeric_mask & (width > 0)
        safe[usable] = width[usable]
        for arr in (mins, maxs, safe):
            arr.flags.writeable = False
        self.mins = mins
        self.maxs = maxs
        self.safe_width = safe

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureRange):
            return NotImplemented
        return np.array_equal(self.mins, other.mins, equal_nan=True) and np.array_equal(
            self.maxs, other.maxs, equal_nan=True
        )


class ClassPriors:
    """Empirical class frequencies: prior(C) = count(C) / n."""

    __slots__ = ("counts", "n", "priors")

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        n = int(counts.sum())
        if n <= 0:
            raise ModelError("priors need at least one instance")
        self.counts = counts
        self.n = n
        self.priors = counts / n
        if abs(float(self.priors.sum()) - 1.0) > 1e-12:
            raise ModelError("priors do not sum to 1")

    def prior(self, class_id: int) -> float:
        return float(self.priors[class_id])


@dataclass(frozen=True)
class DiffConfig:
    """Numeric diff selection: plain range-normalized distance, or the ramp
    relaxation with equality/difference thresholds given as fractions of the
    feature's value interval."""

    numeric_mode: DiffMode = DiffMode.LINEAR
    t_eq: float = 0.05
    t_diff: float = 0.10

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_eq < self.t_diff <= 1.0):
            raise ModelError(f"need 0 <= t_eq < t_diff <= 1, got ({self.t_eq}, {self.t_diff})")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-feature quality weights in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ModelError("weights must be finite")
        if np.any(np.abs(vals) > 1.0 + _WEIGHT_SLACK):
            raise ModelError("weight outside [-1, 1] beyond rounding slack")
        vals = np.clip(vals, -1.0, 1.0)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class RankConfig:
    """Parameters of a ranking run.

    `average_by_found` switches the per-class neighbor averages from the
    fixed divisor k to the number of neighbors actually present (relevant
    when a class has fewer than k members).  Off by default.
    """

    m: int = 10
    k: int = 10
    seed: int = 0
    diff: DiffConfig = field(default_factory=DiffConfig)
    average_by_found: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ModelError("m must be >= 1")
        if self.k < 1:
            raise ModelError("k must be >= 1")


# ---------------------------------------------------------------------------
# diff / distance


def feature_diffs(
    values: np.ndarray,
    ref: np.ndarray,
    numeric_mask: np.ndarray,
    ranges: FeatureRange,
    cfg: DiffConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-feature differences in [0, 1] between rows and reference rows.

    `values` and `ref` broadcast against each other over their leading axes
    with features last: (p, a) or (a,) against (a,) gives (p, a), and a
    (1, rows, a) block against a (g, 1, a) sample block gives (g, rows, a).
    Nominal slots compare category ids for equality; numeric slots are
    range-normalized and optionally passed through the ramp.  This is the
    single authoritative implementation: scalar `diff`, the
    partition-parallel neighbor search, and the sequential oracle all
    evaluate exactly these operations, which keeps their results
    bit-for-bit comparable.  `out`, if given, is a float64 array of the
    broadcast shape that receives the result.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None]
    ref = np.asarray(ref, dtype=np.float64)
    # every slot gets |x - y| / safe_width; nominal slots divide by +inf to 0
    # and are overwritten below, so numeric columns need no gather
    out = np.subtract(values, ref, out=out)
    np.abs(out, out=out)
    out /= ranges.safe_width
    if cfg.numeric_mode is DiffMode.RAMP:
        # (d - t_eq) / (t_diff - t_eq) is <= 0 exactly when d <= t_eq and
        # >= 1 exactly when d > t_diff (rounding is monotonic), so the clip
        # gives the same bits as the three-way branch in `diff`
        out -= cfg.t_eq
        out /= cfg.t_diff - cfg.t_eq
        np.clip(out, 0.0, 1.0, out=out)
    if not numeric_mask.all():
        nom = ~numeric_mask
        out[..., nom] = values[..., nom] != ref[..., nom]
    return out


def diff(
    feature: int,
    i1: Instance,
    i2: Instance,
    ranges: FeatureRange,
    cfg: DiffConfig,
    numeric_mask: np.ndarray,
) -> float:
    """Difference of a single feature between two instances, in [0, 1]."""
    v1 = float(i1.values[feature])
    v2 = float(i2.values[feature])
    if not numeric_mask[feature]:
        return 0.0 if v1 == v2 else 1.0
    d = abs(v1 - v2) / float(ranges.safe_width[feature])
    if cfg.numeric_mode is DiffMode.RAMP:
        if d <= cfg.t_eq:
            return 0.0
        if d > cfg.t_diff:
            return 1.0
        return (d - cfg.t_eq) / (cfg.t_diff - cfg.t_eq)
    return d


def rank_features(weights: WeightVector) -> np.ndarray:
    """Feature indices sorted by weight descending, ties by ascending index."""
    a = len(weights.values)
    return np.lexsort((np.arange(a), -weights.values))
