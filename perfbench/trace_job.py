"""One traced ranking job: the pipeline called step by step, with timers.

    python perfbench/trace_job.py --csv DIR/input.csv ... --output DIR/w.csv
    python perfbench/trace_job.py --stem DIR/input ... [--cluster ADDRS]

Takes the same arguments as `job.py` (plus `--csv` for the file workload)
and produces the same weights, but calls the program's public functions one
at a time: `infer_schema` and `load`, then `compute_ranges`,
`compute_priors`, `select_samples`, `find_neighbors`, `compute_sdif`,
`compute_weights` and `write_weights_csv`.  Timers wrap, from outside the
program, `feature_diffs` as the neighbour pass calls it,
`NeighborMatrix.offer_block`, `.merge`, `.encode` and `.decode`,
`NEIGHBORS.run_block`, the engine's `run_stage` and, on the cluster path,
`encode_frame` (bytes per message).

On the cluster path the neighbour work runs in the worker processes, out of
reach of these timers, so after the job it is replayed here over the same
per-worker partition split: `run_block` per partition, a merge per worker,
encode, decode and the driver's merge.  The weights the replayed matrix
gives are reported for the benchmark to check bit for bit.  The last stdout
line is a JSON object of layer figures.
"""

from __future__ import annotations

import functools
import json
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path

import direlieff.cluster as cluster_mod
import direlieff.neighbors as neighbors_mod
from direlieff import DatasetSource, EngineConfig, LocalEngine, infer_schema, load, rank_features
from direlieff.cluster import MSG_ASSIGN_PARTITIONS, ClusterEngine
from direlieff.engine import split_sizes
from direlieff.neighbors import NeighborMatrix
from direlieff.pipeline import (
    compute_priors,
    compute_ranges,
    compute_sdif,
    compute_weights,
    find_neighbors,
    select_samples,
    write_weights_csv,
)
from direlieff.stages import NEIGHBORS

import job

MB = 2.0**20
DIFF_BYTES_PER_ELEM = 16  # computed: one float64 read and one written per element


class Recorder:
    """Summed wall time per key and the other figures the wrappers collect;
    safe across engine threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.seconds = defaultdict(float)
        self.elems = 0
        self.per_partition: dict[int, float] = {}
        self.frames: list[tuple[int, int]] = []  # (tag, payload bytes)
        self.stages: list[tuple] = []  # (stage, params, result, wall seconds)

    def reset(self) -> None:
        self.__init__()

    def add(self, key: str, dt: float) -> None:
        with self.lock:
            self.seconds[key] += dt

    def timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, time.perf_counter() - t0)

        return wrapper


def instrument(rec: Recorder, engine) -> None:
    diffs = neighbors_mod.feature_diffs

    def feature_diffs(values, *rest):
        t0 = time.perf_counter()
        out = diffs(values, *rest)
        rec.add("feature_diffs", time.perf_counter() - t0)
        with rec.lock:
            rec.elems += out.size
        return out

    neighbors_mod.feature_diffs = feature_diffs
    NeighborMatrix.offer_block = rec.timed("offer_block", NeighborMatrix.offer_block)
    NeighborMatrix.merge = rec.timed("merge", NeighborMatrix.merge)
    NeighborMatrix.encode = rec.timed("encode", NeighborMatrix.encode)
    NeighborMatrix.decode = staticmethod(rec.timed("decode", NeighborMatrix.decode))

    run_block = NEIGHBORS.run_block

    def timed_run_block(acc, block, params, schema, partition_index):
        t0 = time.perf_counter()
        out = run_block(acc, block, params, schema, partition_index)
        with rec.lock:
            rec.per_partition[partition_index] = time.perf_counter() - t0
        return out

    NEIGHBORS.run_block = timed_run_block

    run_stage = engine.run_stage

    def timed_run_stage(ds, stage, params):
        t0 = time.perf_counter()
        result = run_stage(ds, stage, params)
        rec.stages.append((stage, params, result, time.perf_counter() - t0))
        return result

    engine.run_stage = timed_run_stage

    encode_frame = cluster_mod.encode_frame

    def counted_encode_frame(tag, payload):
        rec.frames.append((tag, len(payload)))
        return encode_frame(tag, payload)

    cluster_mod.encode_frame = counted_encode_frame


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def replay_cluster_neighbors(rec: Recorder, ds, params, workers: int):
    """Worker-side neighbour work of the job, redone here per worker split.

    Returns the driver's merged matrix, each worker's summed `run_block`
    seconds and the encoded bytes of the workers' results."""
    schema = ds.schema
    sizes = split_sizes(ds.num_partitions, workers)
    decoded, busy, nbytes, at = [], [], 0, 0
    for size in sizes:
        mine = range(at, at + size)
        at += size
        partials = [
            NEIGHBORS.run_block(NEIGHBORS.make_zero(schema, params), ds.partition(g), params, schema, g)
            for g in mine
        ]
        busy.append(sum(rec.per_partition[g] for g in mine))
        merged = functools.reduce(NEIGHBORS.comb, partials)
        buf = NEIGHBORS.encode_result(merged, schema)
        nbytes += len(buf)
        decoded.append(NEIGHBORS.decode_result(buf, schema, params))
    return functools.reduce(NEIGHBORS.comb, decoded), busy, nbytes


def main() -> None:
    p = job.parser()
    p.add_argument("--csv", default=None, help="headered CSV; replaces --stem")
    args = p.parse_args()
    config = job.rank_config(args)
    rec = Recorder()
    steps: dict[str, float] = {}

    def step(key, fn, *fargs):
        t0 = time.perf_counter()
        out = fn(*fargs)
        steps[key] = time.perf_counter() - t0
        return out

    replay_weights = None
    ds = None if args.csv else job.load_arrays(args.stem, args.partitions)
    engine_cfg = EngineConfig(workers=args.threads)
    if args.cluster:
        engine = ClusterEngine(job.worker_addrs(args.cluster), engine_cfg)
    else:
        engine = LocalEngine(engine_cfg)
    instrument(rec, engine)

    t0 = time.perf_counter()
    if args.csv:
        src = DatasetSource(args.csv)
        rss0 = peak_rss_mb()
        step("ingest.infer_schema_s", infer_schema, src)
        ds = step("ingest.load_s", load, src, args.partitions)
        steps["ingest.rss_rise_mb"] = peak_rss_mb() - rss0
    if args.cluster:
        engine.connect()
        step("cluster.distribute_s", engine.distribute, ds)
    try:
        ranges = step("pipeline.ranges_s", compute_ranges, ds, engine)
        priors = step("pipeline.priors_s", compute_priors, ds, engine)
        samples = step("pipeline.fetch_s", select_samples, ds, engine, config.m, config.seed)
        nn = step("pipeline.neighbors_s", find_neighbors, ds, engine, samples, ranges, config.k, config.diff)
    finally:
        if args.cluster:
            engine.shutdown()
    mask = ds.schema.numeric_mask()
    sdif = step("pipeline.sdif_s", compute_sdif, nn, samples, ranges, config.k, config.diff, mask, False)
    weights = step("pipeline.weights_s", compute_weights, sdif, samples, priors)
    step("pipeline.write_s", write_weights_csv, args.output, ds.schema, weights, rank_features(weights))
    total_s = time.perf_counter() - t0

    schema = ds.schema
    stage_calls = list(rec.stages)
    neighbors_wall = next(wall for stage, _, _, wall in stage_calls if stage is NEIGHBORS)
    neighbor_params = next(params for stage, params, _, _ in stage_calls if stage is NEIGHBORS)
    out = dict(steps)
    out["stages.params_bytes"] = sum(len(s.encode_params(pr, schema)) for s, pr, _, _ in stage_calls)
    out["stages.result_bytes"] = sum(len(s.encode_result(r, schema)) for s, _, r, _ in stage_calls)
    out["neighbors.short_cells"] = sum(len(h) < config.k for row in nn.grid for h in row)

    if args.cluster:
        assign = [size for tag, size in rec.frames if tag == MSG_ASSIGN_PARTITIONS]
        out["cluster.assign_bytes"] = max(assign)
        rec.reset()
        replayed, busy, result_bytes = replay_cluster_neighbors(rec, ds, neighbor_params, len(engine.addrs))
        again = compute_weights(
            compute_sdif(replayed, samples, ranges, config.k, config.diff, mask, False), samples, priors
        )
        replay_weights = again.values.tolist()
        out["cluster.neighbors_overhead_s"] = neighbors_wall - max(busy)
        out["neighbors.result_bytes"] = result_bytes
    else:
        out["neighbors.result_bytes"] = len(NEIGHBORS.encode_result(nn, schema))

    busy_s = sum(rec.per_partition.values())
    out["engine.neighbors_busy_s"] = busy_s
    out["engine.neighbors_parallel_x"] = busy_s / neighbors_wall
    out["model.feature_diffs_s"] = rec.seconds["feature_diffs"]
    out["model.diff_elems"] = rec.elems
    out["model.diff_bytes"] = rec.elems * DIFF_BYTES_PER_ELEM
    out["neighbors.offer_block_s"] = rec.seconds["offer_block"]
    out["neighbors.select_s"] = rec.seconds["offer_block"] - rec.seconds["feature_diffs"]
    for key in ("merge", "encode", "decode"):
        out[f"neighbors.{key}_s"] = rec.seconds[key]
    if args.csv:
        out["ingest.input_mb"] = Path(args.csv).stat().st_size / MB
    else:
        block_bytes = sum(
            b.ids.nbytes + b.labels.nbytes + b.values.nbytes
            for b in (ds.partition(i) for i in range(ds.num_partitions))
        )
        out["ingest.input_mb"] = block_bytes / MB
    print(json.dumps({"layers": out, "total_s": total_s, "replay_weights": replay_weights}))


if __name__ == "__main__":
    main()
