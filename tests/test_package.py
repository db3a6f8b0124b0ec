"""The package's exports, and what a process loads when it starts."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import direlieff

MODULES = ["direlieff"] + [f"direlieff.{m.name}" for m in pkgutil.iter_modules(direlieff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def fresh(code: str, **env) -> str:
    """Stdout of `code` run in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS, apart from what `env` sets."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env={**environ, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestStartup:
    def test_package_import_has_no_side_effects(self):
        out = fresh("""
            import os, sys
            import direlieff
            print("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
        """)
        assert out == "False None"

    def test_names_resolve_on_first_use(self):
        out = fresh("""
            import direlieff
            assert [n for n in direlieff.__all__ if getattr(direlieff, n, None) is None] == []
            assert dir(direlieff) == sorted(direlieff.__all__)
            try:
                direlieff.no_such_name
            except AttributeError as exc:
                print(exc)
        """)
        assert out == "module 'direlieff' has no attribute 'no_such_name'"

    def test_rank_loads_only_what_it_needs(self):
        out = fresh("""
            import sys
            from direlieff import rank
            print(sorted(m for m in ("bench", "cli", "cluster", "ingest", "reference", "synth")
                         if "direlieff." + m in sys.modules), "direlieff.pipeline" in sys.modules)
        """)
        assert out == "[] True"

    @pytest.mark.parametrize("env, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
    def test_cli_sets_one_blas_thread_unless_the_user_did(self, env, want):
        assert fresh("import os, direlieff.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", **env) == want

    def test_cli_leaves_a_process_that_loaded_numpy_first(self):
        assert fresh("import os, numpy, direlieff.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"

    def test_local_rank_loads_no_bench_or_cluster(self, tmp_path):
        out = fresh(f"""
            import sys
            from direlieff.cli import main
            assert main(["gen", "--n", "200", "--output", {str(tmp_path / "d.csv")!r}]) == 0
            assert main(["rank", "--input", {str(tmp_path / "d.csv")!r},
                         "--output", {str(tmp_path / "w.csv")!r}]) == 0
            print("direlieff.bench" in sys.modules, "direlieff.cluster" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False False"

    def test_worker_loads_no_bench(self):
        # the session itself is replaced: this checks what the command imports
        out = fresh("""
            import sys
            import direlieff.cluster
            from direlieff.cli import main
            direlieff.cluster.serve_worker = lambda *args, **kwargs: 0
            assert main(["worker", "--port", "0"]) == 0
            print("direlieff.bench" in sys.modules)
        """)
        assert out == "False"

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status")
        or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        reason="counts threads through Linux's /proc, for numpy's OpenBLAS",
    )
    def test_cli_process_runs_one_thread(self):
        out = fresh("""
            import direlieff.cli
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("Threads:")))
        """)
        assert out == "1"
