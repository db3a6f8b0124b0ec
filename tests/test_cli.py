"""Command-line behavior: outputs, determinism, and exit codes."""

import argparse
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from direlieff.cli import _addr_list, main
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

    def test_worker_list_needs_cluster_backend(self, data_csv, tmp_path, capsys):
        out = tmp_path / "weights.csv"
        code = main(["rank", "--input", data_csv, "--cluster-workers", "127.0.0.1:1", "--output", str(out)])
        assert code == 1
        assert "--backend cluster" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_backend_takes_no_local_threads(self, tmp_path, capsys):
        # a cluster worker's processes are its own --threads; the input is not read
        code = main(["rank", "--input", str(tmp_path / "nope.csv"), "--backend", "cluster",
                     "--workers", "2", "--cluster-workers", "127.0.0.1:1"])
        assert code == 1
        assert capsys.readouterr().err == "error: --workers sets local processes; a cluster worker takes --threads\n"

    def test_negative_seed_draws_samples(self, data_csv, tmp_path):
        out = tmp_path / "weights.csv"
        assert main(["rank", "--input", data_csv, "--m", "20", "--seed", "-5", "--output", str(out)]) == 0
        assert len(read_weights_csv(out)) == 5

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"columns": [{"kind": "numeric"}], "class_column": "label"}, 'sidecar column 0 has no "name"'),
            (
                {"columns": [{"name": f"x0{j}", "kind": "ordinal"} for j in range(5)] + [{"name": "label"}]},
                "sidecar column 'x00' has unknown kind 'ordinal'",
            ),
            ({"columns": "x00,x01,x02,x03,x04,label"}, 'sidecar "columns" must be a list of objects'),
            ({"columns": [["x00"], ["label"]]}, 'sidecar "columns" must be a list of objects'),
            ({"class_labels": "c0c1"}, 'sidecar "class_labels" must be a list of strings'),
            ({"class_labels": [0, 1]}, 'sidecar "class_labels" must be a list of strings'),
            ({"class_labels": ["c0", "c1", "c0"]}, 'sidecar "class_labels" repeats a label'),
            ({"class_labels": []}, 'sidecar "class_labels" needs at least two labels'),
        ],
    )
    def test_malformed_sidecar_fields(self, data_csv, tmp_path, capsys, doc, message):
        side = tmp_path / "bad.schema.json"
        side.write_text(json.dumps(doc))
        code = main(
            ["rank", "--input", data_csv, "--schema", str(side),
             "--output", str(tmp_path / "w.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "w.csv").exists()


    def test_non_finite_cell_without_sidecar(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,label\n1.5,x,y\n2.5,z,n\n-inf,x,y\n0.5,z,n\n")
        code = main(["rank", "--input", str(csv_path), "--m", "2", "--k", "1",
                     "--output", str(tmp_path / "w.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d.csv:4: non-finite value '-inf' in numeric column 'a'" in err
        assert not (tmp_path / "w.csv").exists()

    def test_range_wider_than_float64(self, tmp_path, capsys):
        # both cells are finite and load, but the column's width is not
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,label\n0.5,1e308,y\n1.5,0,n\n2.5,-1e308,y\n0.5,2,n\n")
        code = main(["rank", "--input", str(csv_path), "--m", "2", "--k", "1",
                     "--output", str(tmp_path / "w.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: feature 'b' ranges from -1e+308 to 1e+308, a width beyond the largest float64\n"
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("header, name", [("a,a,label", "a"), ("a,label,label", "label")])
    def test_repeated_header_name(self, tmp_path, capsys, header, name):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(f"{header}\n1,2,y\n3,4,n\n")
        code = main(["rank", "--input", str(csv_path), "--output", str(tmp_path / "w.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {csv_path}:1: column name {name!r} repeats in the header\n"
        assert not (tmp_path / "w.csv").exists()

    def test_unknown_class_label_message(self, tmp_path, capsys):
        csv_path, side = tmp_path / "t.csv", tmp_path / "t.schema.json"
        csv_path.write_text("a,label\n1,y\n2,n\n")
        side.write_text(json.dumps({"class_labels": ["y", "x"]}))
        code = main(["rank", "--input", str(csv_path), "--schema", str(side),
                     "--output", str(tmp_path / "w.csv")])
        assert code == 1
        assert "t.csv:3: unknown class label 'n'\n" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["abc", 5.5, True, None, [3]])
    def test_libsvm_num_features_must_be_an_integer(self, tmp_path, capsys, count):
        data, side = tmp_path / "t.libsvm", tmp_path / "t.schema.json"
        data.write_text("1 1:0.5\n0 1:1.5\n")
        side.write_text(json.dumps({"num_features": count}))
        code = main(["rank", "--input", str(data), "--format", "libsvm", "--schema", str(side),
                     "--m", "1", "--k", "1", "--output", str(tmp_path / "w.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f't.schema.json: sidecar "num_features" must be an integer, not {count!r}' in err
        assert not (tmp_path / "w.csv").exists()

    def test_libsvm_unknown_class_label_message(self, tmp_path, capsys):
        data, side = tmp_path / "t.libsvm", tmp_path / "t.schema.json"
        data.write_text("y 1:0.5\nn 1:1.5\n")
        side.write_text(json.dumps({"class_labels": ["y", "x"]}))
        code = main(["rank", "--input", str(data), "--format", "libsvm", "--schema", str(side),
                     "--output", str(tmp_path / "w.csv")])
        assert code == 1
        assert "t.libsvm:2: unknown class label 'n'\n" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text, want", [("a:0", [("a", 0)]), ("a:65535,b:1", [("a", 65535), ("b", 1)])])
    def test_worker_ports_in_range(self, text, want):
        assert _addr_list(text) == want

    @pytest.mark.parametrize("text", ["a:65536", "a:70000", "a:-1"])
    def test_worker_port_out_of_range(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="port must be in 0-65535"):
            _addr_list(text)


BAD_VALUES = {
    "worker-port-high": (["worker", "--port", "70000"], 2, "argument --port: port must be in 0-65535, got 70000"),
    "worker-port-negative": (["worker", "--port", "-1"], 2, "argument --port: port must be in 0-65535, got -1"),
    "cluster-port-high": (["rank", "--input", "{csv}", "--backend", "cluster",
                           "--cluster-workers", "127.0.0.1:70000"], 2, "port must be in 0-65535, got 70000"),
    "gen-seed": (["gen", "--n", "10", "--seed", "-1", "--output", "{out}"], 1, "error: seed must be >= 0"),
    "bench-seed": (["bench", "--axis", "n", "--points", "20,30,40", "--seed", "-1", "--output", "{out}"],
                   1, "error: seed must be >= 0"),
    "speedup-seed": (["speedup", "--n", "50", "--seed", "-1", "--output", "{out}"], 1, "error: seed must be >= 0"),
    "speedup-zero-workers": (["speedup", "--n", "50", "--worker-counts", "0", "--output", "{out}"],
                             2, "argument --worker-counts: expected comma-separated integers >= 1"),
    "speedup-negative-workers": (["speedup", "--n", "50", "--worker-counts", "-1", "--output", "{out}"],
                                 2, "argument --worker-counts: expected comma-separated integers >= 1"),
    "speedup-no-workers": (["speedup", "--n", "50", "--worker-counts", ",", "--output", "{out}"],
                           2, "argument --worker-counts: expected comma-separated integers >= 1"),
    "stability-no-m": (["stability", "--input", "{csv}", "--m-values", ",", "--output", "{out}"],
                       1, "error: need at least one sample size"),
    # a list that starts with "-" is the flag's value, not an option
    "bench-negative-points": (["bench", "--axis", "n", "--points", "-1,3,4", "--output", "{out}"],
                              2, "argument --points: expected comma-separated integers >= 1, got -1 in '-1,3,4'"),
    "bench-zero-point": (["bench", "--axis", "n", "--points", "20,0,40", "--output", "{out}"],
                         2, "argument --points: expected comma-separated integers >= 1, got 0 in '20,0,40'"),
    "stability-negative-m": (["stability", "--input", "{csv}", "--m-values", "-2,5", "--output", "{out}"],
                             2, "argument --m-values: expected comma-separated integers >= 1, got -2 in '-2,5'"),
    "speedup-negative-list": (["speedup", "--n", "50", "--worker-counts", "-1,2", "--output", "{out}"],
                              2, "argument --worker-counts: expected comma-separated integers >= 1, got -1 in '-1,2'"),
    "cluster-local-threads": (["rank", "--input", "{csv}", "--backend", "cluster", "--workers", "2",
                               "--cluster-workers", "127.0.0.1:1", "--output", "{out}"],
                              1, "error: --workers sets local processes; a cluster worker takes --threads"),
}


@pytest.mark.parametrize("argv, code, message", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_a_named_error(data_csv, tmp_path, argv, code, message):
    """Run as a user runs it: a bad value ends with its exit code and one
    message, never a traceback, and writes no output."""
    out = tmp_path / "out.csv"
    argv = [a.format(csv=data_csv, out=out) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "direlieff.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


NOT_AN_INTEGER = {
    "_positive_int": (["rank", "--input", "{csv}", "--m", "abc"], "argument --m: expected an integer, got 'abc'"),
    "_nonneg_int": (["gen", "--n", "10", "--noise", "x", "--output", "{out}"],
                    "argument --noise: expected an integer, got 'x'"),
    "_port": (["worker", "--port", "x"], "argument --port: expected an integer, got 'x'"),
    "_int_list": (["bench", "--axis", "n", "--points", "1,x,3", "--output", "{out}"],
                  "argument --points: expected comma-separated integers, got '1,x,3'"),
    "_positive_int_list": (["speedup", "--worker-counts", "2,y", "--output", "{out}"],
                           "argument --worker-counts: expected comma-separated integers, got '2,y'"),
}


@pytest.mark.parametrize("argv, message", NOT_AN_INTEGER.values(), ids=NOT_AN_INTEGER.keys())
def test_usage_error_names_the_expected_form(data_csv, tmp_path, argv, message):
    """A value that is not an integer is a usage error (exit 2) that says
    what was expected, and names no private function of the CLI."""
    out = tmp_path / "out.csv"
    argv = [a.format(csv=data_csv, out=out) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "direlieff.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert re.search(r"(?<!\w)_\w", proc.stderr) is None
    assert "Traceback" not in proc.stderr
    assert not out.exists()
