"""The direlieff benchmark: three ranking workloads, end to end or traced.

    python3 perfbench/run.py --workload csv_rank --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  A run makes its input from the seed, then repeats whole rounds of
(set-up, job) until `--seconds` have passed.  Each job is a fresh process,
so its wall time, CPU time and peak RSS are its own.  Every job's weights
file is checked against a brute-force oracle computed here from the
generated data.  The last stdout line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, which holds the end-to-end metrics as
medians over the run's jobs or, with `--trace 1`, the per-layer metrics of
traced jobs.  README.md in this directory describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench_data import DataSpec, generate, write_arrays, write_csv
from launcher import Launcher
from oracle import CheckError, Ramp, check_bit_identical, check_weights, relieff

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MB = 2.0**20
THREADS = 2  # nproc on the reference host: local threads, or cluster workers
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "csv": the CLI on a CSV file; "local"/"cluster": rank() in memory
    spec: DataSpec
    m: int
    k: int
    partitions: int
    diff: str  # "linear" or "ramp"


WORKLOADS = {
    # ingest-bound: parse of a 30k x 20 CSV with nominal columns, small m
    "csv_rank": Workload(
        "csv",
        DataSpec(n=30_000, informative=4, noise=12, nominal_informative=1, nominal_noise=3, classes=3),
        m=20,
        k=10,
        partitions=4,
        diff="linear",
    ),
    # neighbour-pass-bound: all numeric, large n, no ingest, no wire
    "local_rank": Workload(
        "local",
        DataSpec(n=100_000, informative=5, noise=15, nominal_informative=0, nominal_noise=0, classes=2),
        m=100,
        k=10,
        partitions=8,
        diff="linear",
    ),
    # wire- and heap-heavy: mixed types, ramp, many classes, partitions and samples
    "cluster_rank": Workload(
        "cluster",
        DataSpec(n=20_000, informative=6, noise=14, nominal_informative=2, nominal_noise=8, classes=5),
        m=400,
        k=10,
        partitions=16,
        diff="ramp",
    ),
}


class JobFailed(RuntimeError):
    pass


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live child has used so far (utime + stime)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Run:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, name: str, seed: int, work: Path, launcher: Launcher):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.data = generate(self.wl.spec, seed)
        self.input = work / ("input.csv" if self.wl.kind == "csv" else "input")
        self.output = work / "weights.csv"

    def oracle(self):
        from direlieff.engine import draw_sample_positions

        d = self.data
        positions = draw_sample_positions(len(d.labels), self.wl.m, self.seed)
        ramp = Ramp() if self.wl.diff == "ramp" else None
        return relieff(d.values, d.labels, d.nominal, d.classes, positions, self.wl.k, ramp)

    def run_child(self, argv, name: str) -> tuple[dict, Path]:
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        status = self.launcher.wait(self.launcher.spawn(argv, out, err), CHILD_TIMEOUT_S)
        if status["code"] != 0:
            raise JobFailed(f"{name} exited with {status['code']}: {err.read_text()[-2000:]}")
        return status, out

    def start_workers(self) -> list[tuple[int, str, float]]:
        """Two `direlieff worker` processes, one thread each, on loopback:
        (pid, host:port, CPU seconds used by the time it listens)."""
        argv = [sys.executable, "-m", "direlieff.cli", "worker", "--port", "0", "--threads", "1"]
        outs = [self.work / f"worker{i}.out" for i in range(THREADS)]
        pids = [self.launcher.spawn(argv, out, out.with_suffix(".err")) for out in outs]
        workers = []
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        for pid, out in zip(pids, outs):
            while not (match := re.match(r"listening (\S+):(\d+)\n", out.read_text())):
                if time.perf_counter() > deadline:
                    for p in pids:
                        self.launcher.kill(p)
                        self.launcher.wait(p, CHILD_TIMEOUT_S)
                    raise JobFailed("a worker did not announce its port")
                time.sleep(0.002)
            workers.append((pid, f"{match.group(1)}:{match.group(2)}", proc_cpu_s(pid)))
        return workers

    def setup(self):
        """Write the input from the seed; start the workers for the cluster."""
        t0 = time.perf_counter()
        data = generate(self.wl.spec, self.seed)
        if self.wl.kind == "csv":
            write_csv(data, self.input)
        else:
            write_arrays(data, self.input)
        workers = self.start_workers() if self.wl.kind == "cluster" else []
        return time.perf_counter() - t0, workers

    def command(self, traced: bool, workers) -> list[str]:
        wl = self.wl
        common = ["--m", wl.m, "--k", wl.k, "--seed", self.seed, "--partitions", wl.partitions,
                  "--diff", wl.diff, "--output", self.output]
        if wl.kind == "csv" and not traced:
            return [sys.executable, "-m", "direlieff.cli", "rank", "--input", self.input,
                    "--workers", THREADS, *common]
        script = HERE / ("trace_job.py" if traced else "job.py")
        source = ["--csv", self.input] if wl.kind == "csv" else ["--stem", self.input]
        if workers:
            backend = ["--cluster", ",".join(addr for _, addr, _ in workers)]
        else:
            backend = ["--threads", THREADS]
        return [sys.executable, script, *source, *backend, *common]

    def job(self, traced: bool) -> dict:
        """Set up and run one job to its end; returns its figures."""
        if self.output.exists():
            self.output.unlink()
        setup_s, workers = self.setup()
        try:
            status, out = self.run_child(self.command(traced, workers), "job")
        except JobFailed:
            for pid, _, _ in workers:
                self.launcher.kill(pid)
            raise
        finally:
            worker_status = [self.launcher.wait(pid, CHILD_TIMEOUT_S) for pid, _, _ in workers]
        if any(s["code"] != 0 for s in worker_status):
            raise JobFailed(f"a worker exited with {[s['code'] for s in worker_status]}")
        worker_rss = [s["maxrss_kb"] * 1024 / MB for s in worker_status]
        fig = {
            "setup_s": setup_s,
            "peak_rss_mb": max([status["maxrss_kb"] * 1024 / MB] + worker_rss),
            "worker_peak_rss_mb": max(worker_rss, default=0.0),
        }
        if self.wl.kind == "csv" and not traced:
            fig.update(job_s=status["wall_s"], cpu_s=status["cpu_s"])
        else:
            fig.update(json.loads(out.read_text().splitlines()[-1]))
        if not traced and workers:
            fig["cpu_s"] += sum(s["cpu_s"] - ready for s, (_, _, ready) in zip(worker_status, workers))
        return fig

    def import_seconds(self) -> float:
        """Interpreter start plus `import direlieff.cli`, as the CLI pays it."""
        status, _ = self.run_child([sys.executable, "-c", "import direlieff.cli"], "import")
        return status["wall_s"]


def measure(run: Run, seconds: float, traced: bool) -> dict:
    expected = run.oracle()
    d = run.data
    attempted = failed = 0
    correct = True
    samples: dict[str, list[float]] = {}

    def check(fn, *args):
        nonlocal correct
        try:
            return fn(*args)
        except CheckError as exc:
            correct = False
            print(f"{run.name}: check failed: {exc}", file=sys.stderr)
            return None

    def one_job(traced_job: bool):
        nonlocal attempted, failed
        attempted += 1
        try:
            fig = run.job(traced_job)
        except JobFailed as exc:
            failed += 1
            print(f"{run.name}: {exc}", file=sys.stderr)
            return None, None
        return fig, check(check_weights, run.output, d.names, d.informative, expected.weights)

    deadline = time.perf_counter() + seconds
    while True:
        plain, plain_weights = one_job(False)
        if traced:
            fig, weights = one_job(True)
            if fig is not None and plain is not None:
                check(check_traced, fig, weights, plain_weights, expected)
                lay = dict(fig["layers"])
                lay["neighbors.kth_ties"] = expected.kth_ties
                lay["cli.import_s"] = run.import_seconds()
                lay["cluster.worker_peak_rss_mb"] = fig["worker_peak_rss_mb"]
                traced_total = fig["total_s"] + (lay["cli.import_s"] if run.wl.kind == "csv" else 0.0)
                lay["trace.overhead_s"] = traced_total - plain["job_s"]
                for key, value in lay.items():
                    samples.setdefault(key, []).append(value)
        elif plain is not None:
            for key in ("job_s", "setup_s", "cpu_s", "peak_rss_mb"):
                samples.setdefault(key, []).append(plain[key])
        if time.perf_counter() >= deadline:
            break

    if not samples:
        raise JobFailed(f"{run.name}: no job completed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    # a layer that does not run on this workload reads 0
    metrics = {
        key: {"value": statistics.median(samples.get(key, [0.0])), "unit": unit}
        for key, unit in units.items()
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_traced(fig: dict, weights, plain_weights, expected) -> None:
    """The traced job's weights equal the untraced job's bit for bit, and so
    do those of the replayed cluster neighbour pass; its short cells are the
    oracle's."""
    check_bit_identical(weights, plain_weights)
    if fig["replay_weights"] is not None:
        check_bit_identical(fig["replay_weights"], weights)
    short = fig["layers"]["neighbors.short_cells"]
    if short != expected.short_cells:
        raise CheckError(f"{short} short cells, the oracle finds {expected.short_cells}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "direlieff" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        result = measure(Run(args.workload, args.seed, work, launcher), args.seconds, bool(args.trace))
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
