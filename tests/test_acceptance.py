"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers at the stated tolerance."""

import random
import time

import numpy as np
import pytest

from direlieff.bench import avg_diff, scaling_sweep, speedup_sweep, stability_curve
from direlieff.cluster import ClusterEngine, encode_frame
from direlieff.engine import EngineConfig, LocalEngine, PartitionedDataset, available_cores, draw_sample_positions
from direlieff.model import (
    DiffConfig,
    DiffMode,
    FeatureKind,
    FeatureMeta,
    InstanceBlock,
    RankConfig,
    Schema,
)
from direlieff.pipeline import rank, select_samples, write_weights_csv
from direlieff.reference import relieff_sequential
from direlieff.stages import PRIORS, RANGES
from direlieff.synth import SynthSpec, make_dataset

from _support import random_mixed_block, read_frames, reap, spawn_worker, uncapped_threads

RESULTS: list[str] = []


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)


# -- criterion 1 + 3 share the randomized corpus -------------------------------


@pytest.fixture(scope="module")
def corpus():
    """100 randomized configs ranked by the parallel pipeline and scored
    against the sequential oracle on the same draw."""
    rng = np.random.default_rng(20260814)
    runs = []
    t0 = time.perf_counter()
    for case in range(100):
        n = int(rng.integers(30, 2001))
        a = int(rng.integers(2, 51))
        a_nom = int(rng.integers(0, a + 1))
        c = int(rng.integers(2, 6))
        schema, block = random_mixed_block(rng, n, a - a_nom, a_nom, c)
        partitions = int(rng.integers(1, 9))
        ds = PartitionedDataset.split(block, partitions, schema)

        k = int(rng.integers(1, 11))
        m = int(rng.integers(1, min(50, n) + 1))
        if case % 2 == 0:
            diff = DiffConfig(DiffMode.LINEAR)
        else:
            t_eq = float(rng.uniform(0.0, 0.2))
            t_diff = float(rng.uniform(t_eq + 0.01, min(t_eq + 0.3, 1.0)))
            diff = DiffConfig(DiffMode.RAMP, t_eq=t_eq, t_diff=t_diff)
        cfg = RankConfig(m=m, k=k, seed=int(rng.integers(0, 10_000)), diff=diff)
        engine = LocalEngine(EngineConfig(workers=int(rng.integers(1, 5))))

        with uncapped_threads():
            result = rank(ds, cfg, engine)
        oracle = relieff_sequential(list(block), result.samples, k, diff, schema)
        gap = float(np.max(np.abs(result.weights.values - oracle.values)))
        runs.append({"case": case, "gap": gap, "weights": result.weights.values})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


@pytest.mark.acceptance
def test_criterion_1_oracle_equivalence(corpus):
    worst = max(r["gap"] for r in corpus["runs"])
    elapsed = corpus["elapsed"]
    ok = worst <= 1e-12 and elapsed <= 120.0
    record(
        1,
        "oracle equivalence",
        ok,
        f"max_abs_diff={worst:.3e} tol=1e-12, 100 configs in {elapsed:.1f}s budget 120s",
    )
    assert worst <= 1e-12
    assert elapsed <= 120.0


@pytest.mark.acceptance
def test_criterion_3_weight_range(corpus):
    peak = max(float(np.max(np.abs(r["weights"]))) for r in corpus["runs"])

    # a nominal feature that equals the class exactly, balanced binary labels
    n = 200
    labels = np.tile([0, 1], n // 2).astype(np.int32)
    noise = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, 3))
    values = np.column_stack([labels.astype(float), noise])
    feats = (FeatureMeta(name="sep", kind=FeatureKind.NOMINAL, index=0),) + tuple(
        FeatureMeta(name=f"u{j}", kind=FeatureKind.NUMERIC, index=j) for j in (1, 2, 3)
    )
    schema = Schema(features=feats, class_labels=("a", "b"))
    block = InstanceBlock(np.arange(n, dtype=np.int64), labels, values)
    ds = PartitionedDataset.split(block, 4, schema)
    top = rank(ds, RankConfig(m=100, k=10, seed=0)).weights.values[0]
    sep_gap = abs(top - 1.0)

    ok = peak <= 1.0 and sep_gap <= 1e-9
    record(
        3,
        "weight range",
        ok,
        f"max|W|={peak:.6f} bound 1.0; separating feature |W-1|={sep_gap:.2e} tol 1e-9",
    )
    assert peak <= 1.0
    assert sep_gap <= 1e-9


@pytest.mark.acceptance
def test_criterion_2_partition_backend_invariance(tmp_path):
    t0 = time.perf_counter()
    cfg = RankConfig(m=10, k=10, seed=13)
    files = []
    for partitions in (1, 2, 4, 8):
        ds = make_dataset(
            SynthSpec(n=100_000, informative=5, noise=15, seed=7), partitions=partitions
        )
        for backend in ("local", "cluster"):
            path = tmp_path / f"w_{partitions}_{backend}.csv"
            if backend == "local":
                result = rank(ds, cfg, LocalEngine())
            else:
                procs, addrs = [], []
                for _ in range(2):
                    proc, addr = spawn_worker()
                    procs.append(proc)
                    addrs.append(addr)
                try:
                    with ClusterEngine(addrs) as eng:
                        result = rank(ds, cfg, eng)
                finally:
                    codes = reap(procs)
                assert codes == [0, 0]
            write_weights_csv(path, ds.schema, result.weights, result.ranking)
            files.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    distinct = len({f for f in files})
    ok = distinct == 1 and elapsed <= 120.0
    record(
        2,
        "partition/backend invariance",
        ok,
        f"{len(files)} weight files, {distinct} distinct, {elapsed:.1f}s budget 120s",
    )
    assert distinct == 1
    assert elapsed <= 120.0


@pytest.mark.acceptance
def test_criterion_4_linear_scaling():
    t0 = time.perf_counter()
    ratios = {}
    for axis, points in (("n", [50_000, 100_000, 200_000]), ("a", [10, 20, 40]), ("m", [10, 20, 40])):
        rows, _ = scaling_sweep(axis, points, repeats=5, partitions=4)
        times = [r["seconds"] for r in rows]
        ratios[axis] = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    elapsed = time.perf_counter() - t0
    worst = max(max(r) for r in ratios.values())
    ok = worst <= 2.6 and elapsed <= 600.0
    detail = ", ".join(
        f"{axis}: {'/'.join(f'{v:.2f}' for v in vals)}" for axis, vals in ratios.items()
    )
    record(
        4,
        "linear scaling per doubling",
        ok,
        f"ratios {detail}; bound 2.6x; {elapsed:.1f}s budget 600s",
    )
    assert worst <= 2.6
    assert elapsed <= 600.0


@pytest.mark.acceptance
def test_criterion_5_worker_speedup():
    t0 = time.perf_counter()
    ds = make_dataset(SynthSpec(n=1_000_000, informative=5, noise=15, seed=11), partitions=4)
    rows = speedup_sweep(ds, [1, 4], RankConfig(m=10, k=10, seed=0), repeats=3)
    elapsed = time.perf_counter() - t0
    t1 = rows[0]["seconds"]
    t4 = rows[1]["seconds"]
    ratio = t4 / t1
    ok = ratio <= 0.6 and elapsed <= 600.0
    record(
        5,
        "4-worker speedup",
        ok,
        f"t1={t1:.2f}s t4={t4:.2f}s ratio={ratio:.2f} bound 0.60; weights identical; "
        f"{elapsed:.1f}s budget 600s",
    )
    assert ratio <= 0.6, (
        f"4 workers took {ratio:.2f} of 1 worker's time (t1={t1:.2f}s t4={t4:.2f}s), "
        f"bound 0.60, on {available_cores()} available cores"
    )
    assert elapsed <= 600.0


@pytest.mark.acceptance
def test_criterion_6_stability():
    t0 = time.perf_counter()
    ds = make_dataset(SynthSpec(n=100_000, informative=5, noise=15, seed=42), partitions=4)
    pairs = [(2 * j, 2 * j + 1) for j in range(5)]
    rows = stability_curve(ds, [10, 100], k=10, seed_pairs=pairs)
    elapsed = time.perf_counter() - t0
    d10 = rows[0]["avg_diff"]
    d100 = rows[1]["avg_diff"]
    ok = d100 < d10 and d100 <= 0.5 * d10 and elapsed <= 300.0
    record(
        6,
        "stability improves with m",
        ok,
        f"AvgDiff m=10: {d10:.5f}, m=100: {d100:.5f} (need < and <=0.5x); "
        f"{elapsed:.1f}s budget 300s",
    )
    assert d100 < d10
    assert d100 <= 0.5 * d10
    assert elapsed <= 300.0


@pytest.mark.acceptance
def test_criterion_7_relevance_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        ds = make_dataset(
            SynthSpec(n=5000, informative=5, noise=15, seed=100 + seed), partitions=4
        )
        result = rank(ds, RankConfig(m=200, k=10, seed=seed))
        if set(result.ranking[:5].tolist()) == {0, 1, 2, 3, 4}:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed <= 120.0
    record(
        7,
        "relevance recovery",
        ok,
        f"informative fill top-5 in {hits}/10 seeds (need >=9); {elapsed:.1f}s budget 120s",
    )
    assert hits >= 9
    assert elapsed <= 120.0


# -- criterion 8: engine laws ---------------------------------------------------


def _random_partitioned(rnd: random.Random, block, schema):
    cuts = sorted(rnd.sample(range(len(block) + 1), rnd.randint(0, min(4, len(block)))))
    bounds = [0] + cuts + [len(block)]
    blocks = [block.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return PartitionedDataset.from_blocks(blocks, schema=schema)


@pytest.mark.acceptance
def test_criterion_8_engine_laws():
    t0 = time.perf_counter()
    eng = LocalEngine()
    rnd = random.Random(404)

    for _ in range(1000):
        rng = np.random.default_rng(rnd.randrange(2**32))
        schema, block = random_mixed_block(rng, rnd.randint(1, 30), rnd.randint(1, 3), rnd.randint(0, 2), 3)
        ds = _random_partitioned(rnd, block, schema)
        mins, maxs = eng.run_stage(ds, RANGES, None)
        assert np.array_equal(mins, block.values.min(axis=0))
        assert np.array_equal(maxs, block.values.max(axis=0))
        assert np.array_equal(eng.run_stage(ds, PRIORS, None), np.bincount(block.labels, minlength=3))

    for _ in range(1000):
        n = rnd.randint(1, 40)
        rng = np.random.default_rng(rnd.randrange(2**32))
        schema, block = random_mixed_block(rng, n, 2, 1, 2)
        block = InstanceBlock(rng.permutation(n) * 3 + 1, block.labels, block.values)
        m = rnd.randint(1, n)
        seed = rnd.randint(0, 10_000)
        one = select_samples(_random_partitioned(rnd, block, schema), eng, m, seed)
        two = select_samples(_random_partitioned(rnd, block, schema), eng, m, seed)
        want = block.ids[draw_sample_positions(n, m, seed)]
        assert one.ids.tolist() == two.ids.tolist() == want.tolist()

    for _ in range(1000):
        tag = rnd.randint(1, 6)
        payload = rnd.randbytes(rnd.randint(0, 256))
        frame = encode_frame(tag, payload)
        [(got_tag, got_payload)], rest = read_frames(frame)
        assert (got_tag, got_payload, rest) == (tag, payload, b"")
        assert encode_frame(got_tag, got_payload) == frame

    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    record(
        8,
        "engine laws",
        ok,
        f"3 laws x 1000 random cases each; {elapsed:.1f}s budget 60s",
    )
    assert elapsed <= 60.0
