import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sstpca import decompose
from sstpca._parallel import _blas_hold_for, _openblas_controls, ordered_map
from sstpca.cli import main
from sstpca.errors import DegenerateIterate
from sstpca.tensor import SemiSymTensor, ttv3

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(not _openblas_controls(),
                                    reason="no OpenBLAS thread control found")


def blas_threads() -> list:
    return [get() for get, _ in _openblas_controls()]


@pytest.fixture()
def n_libs():
    """Number of loaded OpenBLAS libraries, each set to 2 threads for the test
    so that a restored count differs from the cap."""
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    try:
        yield len(controls)
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@needs_openblas
def test_pool_holds_blas_at_one_thread_and_restores(n_libs):
    assert ordered_map(lambda _: blas_threads(), range(4), 2) == [[1] * n_libs] * 4
    assert blas_threads() == [2] * n_libs


@needs_openblas
def test_pool_restores_blas_threads_when_fn_raises(n_libs):
    def fail(i):
        if i == 2:
            raise ZeroDivisionError
        return i

    with pytest.raises(ZeroDivisionError):
        ordered_map(fail, range(4), 2)
    assert blas_threads() == [2] * n_libs


@needs_openblas
@pytest.mark.parametrize("n_threads, n_items", [(1, 4), (2, 1)], ids=["serial", "one-item"])
def test_serial_path_leaves_blas_threads_alone(n_libs, n_threads, n_items):
    seen = ordered_map(lambda _: blas_threads(), range(n_items), n_threads)
    assert seen == [[2] * n_libs] * n_items


@needs_openblas
def test_overlapping_pools_share_one_hold(n_libs):
    """Pool A starts, pool B starts, A ends, B ends: B stays capped and the
    count is back at 2 only after both."""
    b_running, a_done = threading.Event(), threading.Event()
    seen_in_b = []

    def b_item(_):
        b_running.set()
        assert a_done.wait(30)
        seen_in_b.append(blas_threads())

    b = threading.Thread(target=ordered_map, args=(b_item, range(2), 2))

    def a_item(i):
        if i == 0:
            b.start()
        assert b_running.wait(30)

    ordered_map(a_item, range(2), 2)
    a_done.set()
    b.join(30)
    assert not b.is_alive()
    assert seen_in_b == [[1] * n_libs] * 2
    assert blas_threads() == [2] * n_libs


def _benchmark_results(tmp_path, blas_threads_env: str, workers: str) -> dict:
    out = tmp_path / f"blas{blas_threads_env}-workers{workers}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": blas_threads_env}
    env.pop("SSTPCA_THREADS", None)
    subprocess.run(
        [sys.executable, "-m", "sstpca.cli", "benchmark", "--p-list", "100", "--t", "50",
         "--d-list", "30", "--u-mode", "positive", "--reps", "8", "--seed", "0",
         "--threads", workers, "--output", str(out)],
        env=env, check=True, timeout=300,
    )
    return json.loads(out.read_text())["results"]


@needs_openblas
def test_pooled_results_equal_single_blas_thread_results(tmp_path):
    """At p=100 OpenBLAS threads its eigensolver. Pools of 2 and 4 workers
    run with one BLAS thread and give the bits of a one-BLAS-thread run.
    A serial run under 2 BLAS threads gives them too, since recon_err is
    computed in closed form instead of by a threaded dot over a dense
    p x p x T difference, the one reduction here that changed with it."""
    single_blas = _benchmark_results(tmp_path, "1", "1")
    assert _benchmark_results(tmp_path, "2", "2") == single_blas
    assert _benchmark_results(tmp_path, "2", "4") == single_blas
    assert _benchmark_results(tmp_path, "2", "1") == single_blas


@needs_openblas
@pytest.mark.parametrize("p, held", [(500, True), (501, False)], ids=["p500", "p501"])
def test_fit_policy_holds_blas_at_one_thread_up_to_p500(n_libs, p, held):
    with _blas_hold_for(p):
        assert blas_threads() == [1 if held else 2] * n_libs
    assert blas_threads() == [2] * n_libs


@needs_openblas
def test_fit_restores_blas_threads_when_it_raises(n_libs, monkeypatch):
    """Slices A and -A weighted by the stable start sum to zero, so the first
    V-update raises DegenerateIterate inside the fit's hold."""
    seen = []

    def spy_ttv3(X, u):
        seen.append(blas_threads())
        return ttv3(X, u)

    monkeypatch.setattr(decompose, "ttv3", spy_ttv3)
    A = np.arange(16.0).reshape(4, 4)
    X = SemiSymTensor(np.stack([A + A.T, -(A + A.T)], axis=2))
    with pytest.raises(DegenerateIterate):
        decompose.fit_single_factor(X, decompose.FitOptions())
    assert seen == [[1] * n_libs]
    assert blas_threads() == [2] * n_libs


def _cli_outputs(tmp_path, data, blas_threads_env: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": blas_threads_env}
    outputs = {}
    for command, args in [("decompose", ["--ranks", "2,2", "--scheme", "projection"]),
                          ("changepoint", ["--rank", "2"]),
                          ("rank-select", ["--r-max", "3", "--k-max", "2"])]:
        out = tmp_path / f"{command}.json"  # one path for both runs: the JSON echoes it
        subprocess.run([sys.executable, "-m", "sstpca.cli", command, "--input", str(data), *args,
                        "--output", str(out)], env=env, check=True, timeout=300)
        outputs[command] = out.read_bytes()
    return outputs


@needs_openblas
def test_fits_up_to_p500_give_the_same_bytes_at_any_blas_thread_count(tmp_path):
    """At p=150 OpenBLAS threads eigh, and without the fit policy's hold the
    JSON of these commands differs in the last digits between 1 and 2 threads."""
    data = tmp_path / "shift.csv"
    result = CliRunner().invoke(main, [
        "simulate", "--preset", "shift", "--p", "150", "--t", "20", "--r", "2", "--d", "40",
        "--seed", "7", "--data-out", str(data), "--output", str(tmp_path / "truth.json")])
    assert result.exit_code == 0, result.output
    assert _cli_outputs(tmp_path, data, "2") == _cli_outputs(tmp_path, data, "1")
