"""Command-line front end.

Subcommands: `rank` (weight a dataset), `compare` (parallel pipeline vs the
sequential oracle on one shared sample draw), `bench` / `speedup` /
`stability` (experiment sweeps), `gen` (synthetic datasets), and `worker`
(cluster worker process).

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# A CLI process runs with one BLAS thread.  numpy's bundled OpenBLAS starts
# its thread pool as numpy loads, and the pool's threads spin on the CPU,
# yet the only BLAS call in direlieff is `np.polyfit` on three points in
# `bench`.  A value the user has set still wins, and a process that loaded
# numpy before this module, such as a library user's, is left as it is.
# This cannot wait for `main()`: `python -m direlieff.cli` imports the
# package first, which is why the package loads its modules lazily.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .engine import EngineConfig, EngineError, LocalEngine  # noqa: E402
from .ingest import DatasetSource, IngestError, load  # noqa: E402
from .model import DiffConfig, DiffMode, InstanceBlock, ModelError, RankConfig  # noqa: E402
from .pipeline import rank, write_weights_csv  # noqa: E402
from .reference import relieff_sequential  # noqa: E402
from .synth import SynthSpec, gen_synthetic, make_dataset  # noqa: E402

__all__ = ["main", "build_parser"]

ORACLE_TOLERANCE = 1e-12


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _port(text: str) -> int:
    value = _int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0-65535, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    """Comma-separated integers >= 1; empty items are skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    bad = [v for v in values if v < 1]
    if bad:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {bad[0]} in {text!r}")
    return values


def _positive_int_list(text: str) -> list[int]:
    values = _int_list(text)
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")
    return values


# argparse reads a value that starts with "-" and is not one plain number,
# such as "-1,3,4", as an option, so that a list flag given it would end in
# "expected one argument"; `_join_list_values` joins such a value to its
# flag, and the flag's type names it.
_LIST_FLAGS = ("--points", "--m-values", "--worker-counts")


def _join_list_values(argv) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _addr_list(text: str) -> list[tuple[str, int]]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        host, sep, port = tok.rpartition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"worker address {tok!r} is not host:port")
        try:
            out.append((host, _port(port)))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"worker address {tok!r}: {exc}")
    if not out:
        raise argparse.ArgumentTypeError("empty worker address list")
    return out


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--schema", default=None, help="JSON schema sidecar")
    p.add_argument("--partitions", type=_positive_int, default=4)


def _add_rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_positive_int, default=10, help="neighbors per class")
    p.add_argument("--m", type=_positive_int, default=10, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--diff", choices=("linear", "ramp"), default="linear")
    p.add_argument("--t-eq", type=float, default=0.05)
    p.add_argument("--t-diff", type=float, default=0.10)
    p.add_argument("--average-by-found", action="store_true",
                   help="divide class sums by retrieved neighbor count instead of k")


def _rank_config(args) -> RankConfig:
    cfg = DiffConfig(
        numeric_mode=DiffMode.RAMP if args.diff == "ramp" else DiffMode.LINEAR,
        t_eq=args.t_eq,
        t_diff=args.t_diff,
    )
    return RankConfig(
        m=args.m, k=args.k, seed=args.seed, diff=cfg, average_by_found=args.average_by_found
    )


def _load_dataset(args):
    src = DatasetSource(path=args.input, format=args.format, schema_sidecar=args.schema)
    return load(src, partitions=args.partitions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="direlieff", description="Distributed ReliefF-style feature weighting."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank features of a dataset")
    _add_dataset_flags(p_rank)
    _add_rank_flags(p_rank)
    p_rank.add_argument("--workers", type=_positive_int, default=1,
                        help="local processes a stage runs in, at most one per core; "
                             "a cluster worker takes --threads")
    p_rank.add_argument("--backend", choices=("local", "cluster"), default="local")
    p_rank.add_argument("--cluster-workers", type=_addr_list, default=None,
                        help="comma-separated host:port list")
    p_rank.add_argument("--output", default="weights.csv")

    p_cmp = sub.add_parser("compare", help="parallel pipeline vs sequential oracle")
    _add_dataset_flags(p_cmp)
    _add_rank_flags(p_cmp)

    p_bench = sub.add_parser("bench", help="scaling sweep on synthetic data")
    p_bench.add_argument("--axis", choices=("n", "a", "m"), required=True)
    p_bench.add_argument("--points", type=_int_list, required=True)
    p_bench.add_argument("--base-n", type=_positive_int, default=50_000)
    p_bench.add_argument("--base-features", type=_positive_int, default=20)
    p_bench.add_argument("--base-m", type=_positive_int, default=10)
    p_bench.add_argument("--k", type=_positive_int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=_positive_int, default=3)
    p_bench.add_argument("--partitions", type=_positive_int, default=4)
    p_bench.add_argument("--workers", type=_positive_int, default=1)
    p_bench.add_argument("--output", default="scaling.csv")
    p_bench.add_argument("--plot-data", default=None)

    p_speed = sub.add_parser("speedup", help="wall time vs worker count")
    p_speed.add_argument("--n", type=_positive_int, default=1_000_000)
    p_speed.add_argument("--features", type=_positive_int, default=20)
    p_speed.add_argument("--classes", type=_positive_int, default=2)
    p_speed.add_argument("--worker-counts", type=_positive_int_list, default=[1, 2, 4])
    p_speed.add_argument("--partitions", type=_positive_int, default=None,
                         help="defaults to max worker count")
    p_speed.add_argument("--m", type=_positive_int, default=10)
    p_speed.add_argument("--k", type=_positive_int, default=10)
    p_speed.add_argument("--seed", type=int, default=0)
    p_speed.add_argument("--repeats", type=_positive_int, default=3)
    p_speed.add_argument("--output", default="speedup.csv")

    p_stab = sub.add_parser("stability", help="draw-to-draw weight variation per m")
    _add_dataset_flags(p_stab)
    p_stab.add_argument("--m-values", type=_int_list, required=True)
    p_stab.add_argument("--k", type=_positive_int, default=10)
    p_stab.add_argument("--pairs", type=_positive_int, default=5)
    p_stab.add_argument("--seed", type=int, default=0, help="base seed for the pair sequence")
    p_stab.add_argument("--workers", type=_positive_int, default=1)
    p_stab.add_argument("--output", default="stability.csv")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--n", type=_positive_int, required=True)
    p_gen.add_argument("--informative", type=_nonneg_int, default=5)
    p_gen.add_argument("--noise", type=_nonneg_int, default=15)
    p_gen.add_argument("--classes", type=_positive_int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--flip-prob", type=float, default=0.0)
    p_gen.add_argument("--output", required=True, help="CSV path")
    p_gen.add_argument("--sidecar", default=None, help="JSON schema sidecar path")

    p_worker = sub.add_parser("worker", help="run a cluster worker")
    p_worker.add_argument("--host", default="127.0.0.1")
    p_worker.add_argument("--port", type=_port, default=0, help="0-65535; 0 picks a free port")
    p_worker.add_argument("--threads", type=_positive_int, default=1,
                          help="processes this worker runs a stage in, at most one per core")

    return parser


def _print_top(result, schema, limit: int = 10) -> None:
    print(f"n={result.n} m={result.config.m} k={result.config.k} seed={result.config.seed}")
    print("rank  index  weight                 name")
    for pos, fidx in enumerate(result.ranking[:limit], start=1):
        fidx = int(fidx)
        w = float(result.weights.values[fidx])
        print(f"{pos:>4}  {fidx:>5}  {w:<20.12g}   {schema.features[fidx].name}")


def _cmd_rank(args) -> int:
    if args.backend == "cluster" and not args.cluster_workers:
        print("error: --backend cluster requires --cluster-workers", file=sys.stderr)
        return 1
    if args.backend != "cluster" and args.cluster_workers:
        print("error: --cluster-workers requires --backend cluster", file=sys.stderr)
        return 1
    if args.backend == "cluster" and args.workers > 1:
        print("error: --workers sets local processes; a cluster worker takes --threads", file=sys.stderr)
        return 1
    ds = _load_dataset(args)
    config = _rank_config(args)
    engine_cfg = EngineConfig(workers=args.workers)
    with contextlib.ExitStack() as stack:
        if args.backend == "cluster":
            from .cluster import ClusterEngine

            engine = stack.enter_context(ClusterEngine(args.cluster_workers, engine_cfg))
        else:
            engine = LocalEngine(engine_cfg)
        result = rank(ds, config, engine)
    write_weights_csv(args.output, ds.schema, result.weights, result.ranking)
    _print_top(result, ds.schema)
    print(f"wrote {args.output}")
    return 0


def _cmd_compare(args) -> int:
    ds = _load_dataset(args)
    config = _rank_config(args)
    engine = LocalEngine()
    result = rank(ds, config, engine)
    oracle = relieff_sequential(
        InstanceBlock.concat([ds.partition(i) for i in range(ds.num_partitions)]),
        result.samples,
        config.k,
        config.diff,
        ds.schema,
        average_by_found=config.average_by_found,
    )
    max_abs = float(np.max(np.abs(result.weights.values - oracle.values)))
    print(f"max_abs_diff={max_abs:.3e}")
    if max_abs > ORACLE_TOLERANCE:
        print(f"error: exceeds tolerance {ORACLE_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args, parser) -> int:
    from .bench import scaling_sweep, write_plot_data, write_report_csv

    if len(args.points) < 3:
        parser.error("bench --points needs at least 3 values")
    rows, r2 = scaling_sweep(
        args.axis,
        args.points,
        base_n=args.base_n,
        base_features=args.base_features,
        base_m=args.base_m,
        k=args.k,
        seed=args.seed,
        repeats=args.repeats,
        partitions=args.partitions,
        engine=LocalEngine(EngineConfig(workers=args.workers)),
    )
    config = f"axis={args.axis} points={args.points} k={args.k} r_squared={r2:.4f}"
    write_report_csv(args.output, rows, ["point", "seconds"], args.seed, config)
    if args.plot_data:
        write_plot_data(args.plot_data, rows, "point", "seconds")
    for row in rows:
        print(f"{args.axis}={row['point']}: {row['seconds']:.3f}s")
    print(f"r_squared={r2:.4f}")
    print(f"wrote {args.output}")
    return 0


def _cmd_speedup(args) -> int:
    from .bench import speedup_sweep, write_report_csv

    partitions = args.partitions if args.partitions is not None else max(args.worker_counts)
    spec = SynthSpec(
        n=args.n, informative=min(5, args.features), noise=args.features - min(5, args.features),
        classes=args.classes, seed=args.seed,
    )
    ds = make_dataset(spec, partitions=partitions)
    config = RankConfig(m=args.m, k=args.k, seed=args.seed)
    rows = speedup_sweep(ds, args.worker_counts, config, repeats=args.repeats)
    meta = f"n={args.n} a={args.features} m={args.m} k={args.k} partitions={partitions}"
    write_report_csv(args.output, rows, ["workers", "seconds"], args.seed, meta)
    for row in rows:
        print(f"workers={row['workers']}: {row['seconds']:.3f}s")
    print(f"wrote {args.output}")
    return 0


def _cmd_stability(args) -> int:
    from .bench import stability_curve, write_report_csv

    ds = _load_dataset(args)
    pairs = [(args.seed + 2 * j, args.seed + 2 * j + 1) for j in range(args.pairs)]
    rows = stability_curve(
        ds, args.m_values, args.k, pairs, engine=LocalEngine(EngineConfig(workers=args.workers))
    )
    meta = f"k={args.k} pairs={pairs}"
    write_report_csv(args.output, rows, ["m", "avg_diff"], args.seed, meta)
    for row in rows:
        print(f"m={row['m']}: avg_diff={row['avg_diff']:.6g}")
    print(f"wrote {args.output}")
    return 0


def _cmd_gen(args) -> int:
    spec = SynthSpec(
        n=args.n,
        informative=args.informative,
        noise=args.noise,
        classes=args.classes,
        seed=args.seed,
        flip_prob=args.flip_prob,
    )
    gen_synthetic(spec, args.output, args.sidecar)
    print(f"wrote {args.output}" + (f" and {args.sidecar}" if args.sidecar else ""))
    return 0


def _cmd_worker(args) -> int:
    from .cluster import serve_worker

    def announce(host, port):
        print(f"listening {host}:{port}", flush=True)

    return serve_worker(args.host, args.port, threads=args.threads, on_listen=announce)


def _reported_errors() -> tuple:
    """What a command reports as an `error:` line.  `BenchError` joins once
    `bench` is loaded: only the commands that import it can raise it."""
    bench = sys.modules.get("direlieff.bench")
    return (IngestError, ModelError, EngineError, OSError) + ((bench.BenchError,) if bench else ())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "speedup":
            return _cmd_speedup(args)
        if args.command == "stability":
            return _cmd_stability(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "worker":
            return _cmd_worker(args)
        parser.error(f"unknown command {args.command!r}")
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
