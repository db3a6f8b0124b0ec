"""Tests of the benchmark's own oracle and checks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bench_data import DataSpec, generate  # noqa: E402
from oracle import (  # noqa: E402
    CheckError,
    Ramp,
    check_bit_identical,
    check_weights,
    checked_positions,
    relieff,
)

from direlieff import (  # noqa: E402
    DiffConfig,
    DiffMode,
    FeatureKind,
    FeatureMeta,
    InstanceBlock,
    PartitionedDataset,
    RankConfig,
    Schema,
    rank,
    relieff_sequential,
    write_weights_csv,
)
from direlieff.engine import draw_sample_positions  # noqa: E402

SMALL = DataSpec(n=240, informative=3, noise=4, nominal_informative=1, nominal_noise=2, classes=3)


def program_view(data):
    feats = tuple(
        FeatureMeta(name=name, kind=FeatureKind.NOMINAL if nom else FeatureKind.NUMERIC, index=j)
        for j, (name, nom) in enumerate(zip(data.names, data.nominal))
    )
    schema = Schema(features=feats, class_labels=tuple(f"c{c}" for c in range(data.classes)))
    block = InstanceBlock(np.arange(len(data.labels)), data.labels, data.values)
    return schema, block


@pytest.mark.parametrize("mode", [DiffMode.LINEAR, DiffMode.RAMP])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_sequential_reference(seed, mode):
    data = generate(SMALL, seed)
    schema, block = program_view(data)
    m, k = 30, 5
    positions = draw_sample_positions(len(block), m, seed)
    cfg = DiffConfig(numeric_mode=mode)
    expected = relieff_sequential(block, [block[p] for p in positions], k, cfg, schema)
    ramp = Ramp(cfg.t_eq, cfg.t_diff) if mode is DiffMode.RAMP else None
    got = relieff(data.values, data.labels, data.nominal, data.classes, positions, k, ramp)
    np.testing.assert_allclose(got.weights, expected.values, rtol=0, atol=1e-12)


def test_oracle_hand_computed():
    # sample 0 at 0.0; its hit at 0.5 (diff 0.5), its miss at 1.0 (diff 1.0);
    # priors 2/3 and 1/3, so the miss coefficient is (1/3) / (1 - 2/3) = 1
    values = np.array([[0.0], [0.5], [1.0]])
    labels = np.array([0, 0, 1])
    linear = relieff(values, labels, np.array([False]), 2, [0], k=1)
    assert linear.weights[0] == pytest.approx(0.5, abs=1e-15)
    # the hit at 0.06 falls on the ramp: (0.06 - 0.05) / 0.05 = 0.2
    values[1, 0] = 0.06
    ramped = relieff(values, labels, np.array([False]), 2, [0], k=1, ramp=Ramp())
    assert ramped.weights[0] == pytest.approx(1.0 - 0.2, abs=1e-12)
    # k=2 with one hit and one miss: sums still divide by k; both cells short
    short = relieff(values, labels, np.array([False]), 2, [0], k=2)
    assert short.weights[0] == pytest.approx((1.0 - 0.06) / 2, abs=1e-15)
    assert short.short_cells == 2


def test_oracle_counts_ties_at_kth_distance():
    # sample 0; class 1 holds two rows at equal distance, k=1 keeps the lower id
    values = np.array([[0.0], [0.2], [1.0], [1.0]])
    labels = np.array([0, 0, 1, 1])
    result = relieff(values, labels, np.array([False]), 2, [0], k=1)
    assert result.kth_ties == 1


def test_sample_positions_are_validated():
    assert list(checked_positions([3, 0, 2], 4, 3)) == [3, 0, 2]
    for bad in ([1, 1, 2], [0, 1, 4], [0, 1]):
        with pytest.raises(CheckError):
            checked_positions(bad, 4, 3)


@pytest.fixture()
def weights_file(tmp_path):
    data = generate(SMALL, 7)
    schema, block = program_view(data)
    ds = PartitionedDataset.from_blocks([block.slice(0, 100), block.slice(100, len(block))], schema=schema)
    m, k = 40, 5
    result = rank(ds, RankConfig(m=m, k=k, seed=7))
    path = tmp_path / "weights.csv"
    write_weights_csv(path, schema, result.weights, result.ranking)
    positions = draw_sample_positions(len(block), m, 7)
    expected = relieff(data.values, data.labels, data.nominal, data.classes, positions, k)
    return path, data, expected.weights


def test_check_accepts_the_programs_weights(weights_file):
    path, data, expected = weights_file
    check_weights(path, data.names, data.informative, expected)


def test_check_rejects_one_perturbed_weight(weights_file):
    path, data, expected = weights_file
    lines = path.read_text().splitlines()
    idx, name, weight, pos = lines[3].split(",")
    lines[3] = ",".join([idx, name, repr(float(weight) + 1e-7), pos])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="differ from the oracle"):
        check_weights(path, data.names, data.informative, expected)


def test_check_rejects_noise_ranked_above_planted(weights_file):
    path, data, expected = weights_file
    noise = np.flatnonzero(~data.informative)
    informative = data.informative.copy()
    informative[noise[np.argmin(expected[noise])]] = True  # call the weakest noise column planted
    with pytest.raises(CheckError, match="noise feature"):
        check_weights(path, data.names, informative, expected)


def test_bit_identity_check():
    weights = np.array([0.25, -0.125, 0.3])
    check_bit_identical(weights.copy(), weights)
    nudged = weights.copy()
    nudged[2] = np.nextafter(nudged[2], 1.0)
    with pytest.raises(CheckError):
        check_bit_identical(nudged, weights)
    with pytest.raises(CheckError):
        check_bit_identical(weights[:2], weights)
