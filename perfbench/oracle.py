"""Brute-force ReliefF and the checks every benchmark run applies.

The oracle shares no code with the program except `draw_sample_positions`
(the documented sample draw), whose output it validates before use.  It
scores the arrays the benchmark generated, never the program's parse of
them, with the textbook formula: range-normalised Manhattan distance
(nominal columns compare for equality, numeric ones optionally pass through
the ramp), a full sort of each class on (distance, id) with the sample's own
id excluded, and the prior-weighted average of hit and miss differences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-9


class CheckError(AssertionError):
    """A run's output failed a correctness or property check."""


@dataclass(frozen=True)
class Ramp:
    t_eq: float = 0.05
    t_diff: float = 0.10


@dataclass
class OracleResult:
    weights: np.ndarray
    short_cells: int  # (class, sample) cells with fewer than k candidates
    kth_ties: int  # cells where the (k+1)-th candidate ties the k-th on distance


def checked_positions(positions, n: int, m: int) -> np.ndarray:
    pos = np.asarray(list(positions), dtype=np.int64)
    if pos.shape != (m,) or len(set(pos.tolist())) != m or pos.min() < 0 or pos.max() >= n:
        raise CheckError(f"sample draw is not {m} distinct positions in [0, {n})")
    return pos


def relieff(
    values: np.ndarray,
    labels: np.ndarray,
    nominal: np.ndarray,
    classes: int,
    positions,
    k: int,
    ramp: Ramp | None = None,
) -> OracleResult:
    values = np.asarray(values, dtype=np.float64)
    n, a = values.shape
    nominal = np.asarray(nominal, dtype=bool)
    numeric = ~nominal
    positions = checked_positions(positions, n, len(positions))
    ids = np.arange(n)

    width = values.max(axis=0) - values.min(axis=0)
    width = np.where(numeric & (width > 0), width, np.inf)
    num_vals, num_width = values[:, numeric], width[numeric]
    nom_vals = values[:, nominal]
    counts = np.bincount(labels, minlength=classes)
    prior = counts / n
    members = [np.flatnonzero(labels == c) for c in range(classes)]

    total = np.zeros(a)
    short = ties = 0
    diffs = np.empty((n, a))
    for pos in positions.tolist():
        sample = values[pos]
        d = np.abs(num_vals - sample[numeric]) / num_width
        if ramp is not None:
            scale = ramp.t_diff - ramp.t_eq
            d = np.where(d <= ramp.t_eq, 0.0, np.where(d > ramp.t_diff, 1.0, (d - ramp.t_eq) / scale))
        diffs[:, numeric] = d
        diffs[:, nominal] = (nom_vals != sample[nominal]).astype(np.float64)
        dist = np.sum(diffs, axis=-1)
        own = labels[pos]
        for c in range(classes):
            cand = members[c][members[c] != pos]
            order = cand[np.lexsort((ids[cand], dist[cand]))]
            if len(order) < k:
                short += 1
            elif len(order) > k and dist[order[k]] == dist[order[k - 1]]:
                ties += 1
            avg = diffs[order[:k]].sum(axis=0) / k
            if c == own:
                total -= avg
            elif counts[c] and prior[own] < 1.0:
                total += prior[c] / (1.0 - prior[own]) * avg
    return OracleResult(total / len(positions), short, ties)


def read_weights(path) -> tuple[np.ndarray, list[int], list[str]]:
    """(weights by feature index, ranking best first, names in rank order)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["feature_index", "feature_name", "weight", "rank"]:
        raise CheckError(f"{path}: unexpected header {rows[:1]}")
    body = rows[1:]
    ranking = [int(r[0]) for r in body]
    if sorted(ranking) != list(range(len(body))):
        raise CheckError(f"{path}: feature indexes are not a permutation")
    if [int(r[3]) for r in body] != list(range(1, len(body) + 1)):
        raise CheckError(f"{path}: rank column is not 1..a in order")
    weights = np.empty(len(body))
    weights[ranking] = [float(r[2]) for r in body]
    return weights, ranking, [r[1] for r in body]


def check_weights(path, names, informative: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Check one weights file against the oracle and the method's
    properties; returns the weights read."""
    weights, ranking, ranked_names = read_weights(path)
    if len(weights) != len(expected):
        raise CheckError(f"{path}: {len(weights)} weights, expected {len(expected)}")
    if ranked_names != [names[j] for j in ranking]:
        raise CheckError(f"{path}: feature names do not match their indexes")
    if not np.all(np.isfinite(weights)) or np.any(np.abs(weights) > 1.0):
        raise CheckError(f"{path}: a weight is not finite or lies outside [-1, 1]")
    worst = float(np.max(np.abs(weights - expected)))
    if worst > TOLERANCE:
        raise CheckError(f"{path}: weights differ from the oracle by {worst:.3e}")
    if ranking != sorted(range(len(weights)), key=lambda j: (-weights[j], j)):
        raise CheckError(f"{path}: ranking does not follow the weights")
    place = np.empty(len(ranking), dtype=np.int64)
    place[ranking] = np.arange(len(ranking))
    if informative.any() and (~informative).any():
        if place[informative].max() > place[~informative].min():
            raise CheckError(f"{path}: a noise feature ranks above a planted informative one")
    return weights


def check_bit_identical(traced: np.ndarray, untraced: np.ndarray) -> None:
    traced = np.asarray(traced, dtype=np.float64)
    untraced = np.asarray(untraced, dtype=np.float64)
    if traced.shape != untraced.shape or traced.tobytes() != untraced.tobytes():
        raise CheckError("traced weights are not bit-identical to the untraced job's")
