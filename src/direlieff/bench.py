"""Experiment harness: stability, scaling, and speedup measurements.

Every report carries its provenance (seed, config, version string) so a
result table can be traced back to the exact run that produced it.  Wall
times are medians over repeated runs; ranking quality comparisons use the
mean absolute weight difference between two independent draws.
"""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

from . import __version__ as _pkg_version
from .engine import EngineConfig, LocalEngine
from .model import RankConfig, WeightVector
from .pipeline import rank
from .synth import SynthSpec, make_dataset

__all__ = [
    "BenchError",
    "avg_diff",
    "stability_curve",
    "scaling_sweep",
    "speedup_sweep",
    "version_string",
    "write_report_csv",
    "write_plot_data",
]


class BenchError(ValueError):
    """Invalid experiment specification."""


def version_string() -> str:
    """git describe when available, package version otherwise."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"v{_pkg_version}"


def avg_diff(w1: WeightVector, w2: WeightVector) -> float:
    """Mean absolute per-feature weight difference between two runs."""
    if len(w1) != len(w2):
        raise BenchError(f"weight lengths differ: {len(w1)} vs {len(w2)}")
    return float(np.mean(np.abs(w1.values - w2.values)))


def _median_time(fn, repeats: int):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def stability_curve(ds, m_values, k, seed_pairs, engine=None):
    """Mean weight discrepancy between two independent draws, per sample size.

    For each m and each (seed1, seed2) pair the dataset is ranked twice and
    the runs compared with `avg_diff`; rows are (m, mean over pairs).
    """
    if not seed_pairs:
        raise BenchError("need at least one seed pair")
    if not m_values:
        raise BenchError("need at least one sample size")
    engine = engine if engine is not None else LocalEngine()
    rows = []
    for m in m_values:
        diffs = []
        for s1, s2 in seed_pairs:
            w1 = rank(ds, RankConfig(m=m, k=k, seed=s1), engine).weights
            w2 = rank(ds, RankConfig(m=m, k=k, seed=s2), engine).weights
            diffs.append(avg_diff(w1, w2))
        rows.append({"m": m, "avg_diff": float(np.mean(diffs))})
    return rows


def _r_squared(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(np.sum(residuals**2)) / ss_tot


def scaling_sweep(
    axis: str,
    points,
    *,
    base_n: int = 50_000,
    base_features: int = 20,
    base_m: int = 10,
    k: int = 10,
    seed: int = 0,
    repeats: int = 3,
    partitions: int = 4,
    engine=None,
):
    """Wall time of a full ranking as one size axis grows.

    `axis` is one of n / a / m; the other two stay at their base values.
    Returns (rows, r_squared) where each row is (point, median seconds) and
    r_squared measures how well time fits a straight line in the axis.
    """
    if axis not in ("n", "a", "m"):
        raise BenchError(f"unknown axis {axis!r}")
    points = list(points)
    if len(points) < 3:
        raise BenchError("a scaling sweep needs at least 3 points")
    engine = engine if engine is not None else LocalEngine()
    rows = []
    for point in points:
        n = point if axis == "n" else base_n
        a = point if axis == "a" else base_features
        m = point if axis == "m" else base_m
        spec = SynthSpec(n=n, informative=min(5, a), noise=a - min(5, a), seed=seed)
        ds = make_dataset(spec, partitions=partitions)
        cfg = RankConfig(m=m, k=k, seed=seed)
        seconds, _ = _median_time(lambda: rank(ds, cfg, engine), repeats)
        rows.append({"point": point, "seconds": seconds})
    r2 = _r_squared([r["point"] for r in rows], [r["seconds"] for r in rows])
    return rows, r2


def speedup_sweep(ds, worker_counts, config: RankConfig, repeats: int = 3):
    """Wall time per worker-pool size, same seed throughout.

    The weight vectors of all runs must be identical; a mismatch is an
    error, not a report row.
    """
    worker_counts = list(worker_counts)
    if not worker_counts:
        raise BenchError("need at least one worker count")
    rows = []
    baseline: WeightVector | None = None
    for workers in worker_counts:
        engine = LocalEngine(EngineConfig(workers=workers))
        seconds, result = _median_time(lambda: rank(ds, config, engine), repeats)
        if baseline is None:
            baseline = result.weights
        elif result.weights != baseline:
            raise BenchError(f"weights changed with workers={workers}")
        rows.append({"workers": workers, "seconds": seconds})
    return rows


def _meta_line(seed, config) -> str:
    return f"# version={version_string()} seed={seed} config={config}"


def write_report_csv(path, rows, columns, seed, config) -> None:
    """Report table: one provenance comment line, then a plain CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(seed, config) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")


def write_plot_data(path, rows, x: str, y: str) -> None:
    """Two-column x/y file consumable by any plotting tool."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{x} {y}\n")
        for row in rows:
            fh.write(f"{row[x]} {row[y]}\n")
