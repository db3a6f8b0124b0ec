"""One untraced ranking job on an in-memory dataset, run in its own process.

    python perfbench/job.py --stem DIR/input --m 100 --k 10 --seed 1 \
        --partitions 8 --diff linear --threads 2 --output DIR/weights.csv
    python perfbench/job.py ... --cluster 127.0.0.1:4001,127.0.0.1:4002

The arrays the benchmark wrote are loaded before the clock starts, so the
job is `rank` plus writing the weights file, as a library user runs it on
data already in memory.  The last stdout line is a JSON object with the
job's wall time and the CPU time this process spent in it.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from direlieff import (
    DiffConfig,
    DiffMode,
    EngineConfig,
    FeatureKind,
    FeatureMeta,
    InstanceBlock,
    LocalEngine,
    PartitionedDataset,
    RankConfig,
    Schema,
    rank,
    write_weights_csv,
)
from direlieff.cluster import ClusterEngine
from direlieff.engine import split_sizes


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser()
    p.add_argument("--stem", default=None, help="input arrays written by bench_data.write_arrays")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--partitions", type=int, required=True)
    p.add_argument("--diff", choices=("linear", "ramp"), required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--cluster", default=None, help="comma-separated host:port list")
    p.add_argument("--output", required=True)
    return p


def load_arrays(stem: str, partitions: int) -> PartitionedDataset:
    layout = json.loads(Path(f"{stem}.json").read_text())
    values = np.load(f"{stem}.values.npy")
    labels = np.load(f"{stem}.labels.npy")
    feats = tuple(
        FeatureMeta(name=name, kind=FeatureKind.NOMINAL if nom else FeatureKind.NUMERIC, index=j)
        for j, (name, nom) in enumerate(zip(layout["names"], layout["nominal"]))
    )
    schema = Schema(features=feats, class_labels=tuple(f"c{c}" for c in range(layout["classes"])))
    ids = np.arange(len(labels), dtype=np.int64)
    blocks, at = [], 0
    for size in split_sizes(len(labels), partitions):
        blocks.append(InstanceBlock(ids[at : at + size], labels[at : at + size], values[at : at + size]))
        at += size
    return PartitionedDataset.from_blocks(blocks, schema=schema)


def rank_config(args) -> RankConfig:
    mode = DiffMode.RAMP if args.diff == "ramp" else DiffMode.LINEAR
    return RankConfig(m=args.m, k=args.k, seed=args.seed, diff=DiffConfig(numeric_mode=mode))


def worker_addrs(text: str) -> list[tuple[str, int]]:
    out = []
    for tok in text.split(","):
        host, _, port = tok.rpartition(":")
        out.append((host, int(port)))
    return out


def main() -> None:
    p = parser()
    args = p.parse_args()
    if args.stem is None:
        p.error("--stem is required")
    ds = load_arrays(args.stem, args.partitions)
    config = rank_config(args)
    engine_cfg = EngineConfig(workers=args.threads)
    cpu0, t0 = time.process_time(), time.perf_counter()
    if args.cluster:
        with ClusterEngine(worker_addrs(args.cluster), engine_cfg) as engine:
            result = rank(ds, config, engine)
    else:
        result = rank(ds, config, LocalEngine(engine_cfg))
    write_weights_csv(args.output, ds.schema, result.weights, result.ranking)
    job_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    print(json.dumps({"job_s": job_s, "cpu_s": cpu_s}))


if __name__ == "__main__":
    main()
