"""Command-line behavior: outputs, determinism, and exit codes."""

import hashlib

import numpy as np
import pytest

from direlieff.cli import _default_workers, main
from direlieff.ingest import DatasetSource, load
from direlieff.model import RankConfig, WeightVector
from direlieff.pipeline import rank, read_weights_csv, write_weights_csv

from _support import reap, spawn_worker


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = main(
        ["gen", "--n", "400", "--informative", "2", "--noise", "3",
         "--seed", "3", "--output", str(path)]
    )
    assert code == 0
    return str(path)


class TestRankCommand:
    def test_weights_file_matches_library(self, data_csv, tmp_path, capsys):
        out = tmp_path / "weights.csv"
        code = main(
            ["rank", "--input", data_csv, "--m", "30", "--k", "5", "--seed", "1",
             "--partitions", "3", "--output", str(out)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

        ds = load(DatasetSource(data_csv), partitions=3)
        result = rank(ds, RankConfig(m=30, k=5, seed=1))
        want = tmp_path / "want.csv"
        write_weights_csv(want, ds.schema, result.weights, result.ranking)
        assert out.read_bytes() == want.read_bytes()

    def test_deterministic_across_runs(self, data_csv, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["rank", "--input", data_csv, "--m", "20", "--seed", "9",
                 "--output", str(out)]
            ) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_ramp_flag_changes_weights(self, data_csv, tmp_path):
        out_lin = tmp_path / "lin.csv"
        out_ramp = tmp_path / "ramp.csv"
        base = ["rank", "--input", data_csv, "--m", "30", "--seed", "0"]
        assert main(base + ["--output", str(out_lin)]) == 0
        assert main(base + ["--diff", "ramp", "--output", str(out_ramp)]) == 0
        lin = {r["feature_index"]: r["weight"] for r in read_weights_csv(out_lin)}
        ramp = {r["feature_index"]: r["weight"] for r in read_weights_csv(out_ramp)}
        assert lin != ramp

    def test_zero_m_is_usage_error(self, data_csv):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--input", data_csv, "--m", "0"])
        assert err.value.code == 2

    def test_missing_input_fails(self, tmp_path, capsys):
        code = main(["rank", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_cluster_backend_needs_worker_list(self, data_csv, capsys):
        code = main(["rank", "--input", data_csv, "--backend", "cluster"])
        assert code == 1
        assert "--cluster-workers" in capsys.readouterr().err

    def test_cluster_backend_end_to_end(self, data_csv, tmp_path):
        out_local = tmp_path / "local.csv"
        assert main(
            ["rank", "--input", data_csv, "--m", "25", "--seed", "4",
             "--output", str(out_local)]
        ) == 0
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        out_cluster = tmp_path / "cluster.csv"
        try:
            code = main(
                ["rank", "--input", data_csv, "--m", "25", "--seed", "4",
                 "--backend", "cluster",
                 "--cluster-workers", ",".join(f"{h}:{p}" for h, p in addrs),
                 "--output", str(out_cluster)]
            )
        finally:
            codes = reap(procs)
        assert code == 0
        assert codes == [0, 0]
        assert out_cluster.read_bytes() == out_local.read_bytes()


class TestCompareCommand:
    def test_agreement_exits_zero(self, data_csv, capsys):
        code = main(["compare", "--input", data_csv, "--m", "20", "--k", "3"])
        assert code == 0
        assert "max_abs_diff=" in capsys.readouterr().out

    def test_disagreement_exits_one(self, data_csv, capsys, monkeypatch):
        def broken_oracle(instances, samples, k, cfg, schema, average_by_found=False):
            return WeightVector(np.zeros(schema.num_features) + 0.5)

        monkeypatch.setattr("direlieff.cli.relieff_sequential", broken_oracle)
        code = main(["compare", "--input", data_csv, "--m", "5", "--k", "2"])
        assert code == 1
        assert "tolerance" in capsys.readouterr().err


class TestBenchCommands:
    def test_bench_writes_report_and_plot(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        plot = tmp_path / "scaling.dat"
        code = main(
            ["bench", "--axis", "m", "--points", "2,4,6", "--base-n", "120",
             "--base-features", "4", "--k", "2", "--repeats", "1",
             "--partitions", "2", "--output", str(out), "--plot-data", str(plot)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# version=")
        assert lines[1] == "point,seconds"
        assert len(lines) == 5
        assert plot.read_text().splitlines()[0] == "point seconds"
        assert "r_squared" in capsys.readouterr().out

    def test_bench_needs_three_points(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--axis", "n", "--points", "100,200",
                  "--output", str(tmp_path / "s.csv")])
        assert err.value.code == 2

    def test_speedup_small_run(self, tmp_path, capsys):
        out = tmp_path / "speedup.csv"
        code = main(
            ["speedup", "--n", "300", "--features", "4", "--m", "5", "--k", "2",
             "--worker-counts", "1,2", "--repeats", "1", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "workers,seconds"
        assert len(lines) == 4

    def test_stability_rows(self, data_csv, tmp_path, capsys):
        out = tmp_path / "stability.csv"
        code = main(
            ["stability", "--input", data_csv, "--m-values", "5,15", "--k", "3",
             "--pairs", "2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "m,avg_diff"
        assert len(lines) == 4
        assert "m=5" in capsys.readouterr().out


class TestGenCommand:
    def test_same_seed_same_bytes(self, tmp_path):
        digests = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            assert main(["gen", "--n", "100", "--seed", "5", "--output", str(path)]) == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_different_seed_different_bytes(self, tmp_path):
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["gen", "--n", "100", "--seed", "5", "--output", str(p1)]) == 0
        assert main(["gen", "--n", "100", "--seed", "6", "--output", str(p2)]) == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_sidecar_round_trip(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        side = tmp_path / "d.schema.json"
        assert main(
            ["gen", "--n", "50", "--informative", "1", "--noise", "1",
             "--output", str(csv_path), "--sidecar", str(side)]
        ) == 0
        ds = load(DatasetSource(str(csv_path), schema_sidecar=str(side)))
        assert ds.schema.num_features == 2
        assert sum(len(ds.partition(i)) for i in range(ds.num_partitions)) == 50


class TestBadInput:
    def test_nan_cell_in_numeric_column(self, tmp_path, capsys):
        csv_path, side = tmp_path / "d.csv", tmp_path / "d.schema.json"
        assert main(
            ["gen", "--n", "50", "--informative", "1", "--noise", "1",
             "--output", str(csv_path), "--sidecar", str(side)]
        ) == 0
        lines = csv_path.read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(
            ["rank", "--input", str(csv_path), "--schema", str(side), "--m", "5",
             "--k", "3", "--output", str(tmp_path / "w.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and ":4: non-finite value 'nan'" in err
        assert not (tmp_path / "w.csv").exists()

    def test_malformed_schema_sidecar(self, data_csv, tmp_path, capsys):
        side = tmp_path / "bad.schema.json"
        side.write_text('{"columns": [')
        code = main(
            ["rank", "--input", data_csv, "--schema", str(side),
             "--output", str(tmp_path / "w.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sidecar is not valid JSON" in err


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_worker_addr_is_usage_error(self, data_csv):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--input", data_csv, "--backend", "cluster",
                  "--cluster-workers", "nocolon"])
        assert err.value.code == 2

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("DIRELIEFF_WORKERS", raising=False)
        assert _default_workers() == 1
        monkeypatch.setenv("DIRELIEFF_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("DIRELIEFF_WORKERS", "junk")
        assert _default_workers() == 1
