"""The benchmark's job scripts run against the current library.

`perfbench/job.py` and `perfbench/trace_job.py` call the library's public
functions directly, so an API change can break them without failing any
other test.  Both run here on a small mixed nominal/numeric dataset, locally
with two threads and against one cluster worker; the traced job's weights
must equal the untraced job's bit for bit, and on the cluster path so must
the weights of its replayed neighbour pass.  The traced job also reads the
same data as a CSV file, as the benchmark's file workload does, and must
write the weights file that `direlieff rank` writes from it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _support import reap, spawn_worker
from direlieff.pipeline import read_weights_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from bench_data import DataSpec, generate, write_arrays, write_csv  # noqa: E402

SPEC = DataSpec(n=2000, informative=3, noise=3, nominal_informative=2, nominal_noise=2, classes=3)
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    stem = tmp_path_factory.mktemp("bench") / "input"
    write_arrays(generate(SPEC, seed=11), stem)
    return stem


def run(argv) -> dict:
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def run_job(script, stem, output, diff, cluster) -> dict:
    argv = [str(PERFBENCH / script), "--stem", str(stem), "--m", "40", "--k", "5", "--seed", "3",
            "--partitions", "4", "--diff", diff, "--output", str(output)]
    if not cluster:
        return run(argv + ["--threads", "2"])
    proc, (host, port) = spawn_worker(threads=2)
    try:
        figures = run(argv + ["--cluster", f"{host}:{port}"])
    finally:
        codes = reap([proc])
    assert codes == [0]
    return figures


@pytest.mark.parametrize("diff, cluster", [("linear", False), ("ramp", False), ("ramp", True)])
def test_traced_job_matches_untraced_job(stem, tmp_path, diff, cluster):
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    run_job("job.py", stem, plain, diff, cluster)
    figures = run_job("trace_job.py", stem, traced, diff, cluster)
    assert traced.read_bytes() == plain.read_bytes()
    if cluster:
        rows = sorted(read_weights_csv(traced), key=lambda r: r["feature_index"])
        assert figures["replay_weights"] == [r["weight"] for r in rows]
    else:
        assert figures["replay_weights"] is None
    assert figures["layers"]["model.diff_elems"] > 0


def test_traced_csv_job_matches_rank_cli(tmp_path):
    csv = tmp_path / "input.csv"
    write_csv(generate(SPEC, seed=11), csv)
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    common = ["--m", "40", "--k", "5", "--seed", "3", "--partitions", "4", "--diff", "ramp"]
    cli = [sys.executable, "-m", "direlieff.cli", "rank", "--input", str(csv), "--workers", "2", *common]
    done = subprocess.run(cli + ["--output", str(plain)], capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    trace = [str(PERFBENCH / "trace_job.py"), "--csv", str(csv), "--threads", "2", *common]
    figures = run(trace + ["--output", str(traced)])
    assert traced.read_bytes() == plain.read_bytes()
    assert figures["layers"]["ingest.input_mb"] == csv.stat().st_size / 2.0**20
