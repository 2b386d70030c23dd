"""The layer benchmarks in ``benchmarks/`` sit outside ``testpaths`` and import
private names of the package; collecting their 45 cases here shows when one goes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parents[1]
PS = ["p300", "p1000"]

CASES = [
    *[f"test_layers_blas.py::test_eigh[p{p}-{n}blas]" for p in (100, 300, 500, 1000)
      for n in (1, 2)],
    *[f"test_layers_deflate.py::test_deflate[{p}-{s}]" for p in PS
      for s in ("hotelling", "projection", "schur")],
    "test_layers_deflate.py::test_cusum_tensor",
    *[f"test_layers_fit.py::{case}[{p}]" for case in ("test_ttv3", "test_trace_product",
                                                      "test_eigen_block",
                                                      "test_convergence_check") for p in PS],
    *[f"test_layers_fit.py::test_small_fit[{p}-{n}blas]" for p in (20, 60, 100) for n in (1, 2)],
    "test_layers_io.py::test_load_tensor_long_csv",
    "test_layers_io.py::test_write_long_csv",
    "test_layers_pool.py::test_rate_sweep_pool",
    *[f"test_layers_pool.py::{case}[{w}]" for case in ("test_eigh_p100",
                                                       "test_engine_criterion_4_reps",
                                                       "test_rank_select_p300")
      for w in ("serial", "pool")],
    *[f"test_layers_sim.py::test_spike_model[{p}]" for p in PS],
    "test_layers_sim.py::test_recon_error",
    "test_layers_sim.py::test_bic_candidate_rss",
    "test_layers_sim.py::test_validation_p300",
    "test_layers_sim.py::test_rep[p20]",
    "test_layers_sim.py::test_rep[p100]",
]


def test_layer_suite_collects_every_case():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ids = sorted(line.removeprefix("benchmarks/") for line in proc.stdout.splitlines()
                 if "::" in line)
    assert ids == sorted(CASES)
