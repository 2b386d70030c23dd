import importlib.util
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sstpca import cli, decompose
from sstpca._parallel import (
    _blas_hold_for,
    _openblas_controls,
    _openblas_thread_timeout,
    ordered_map,
    resolve_threads,
)
from sstpca.changepoint import detect_changepoint
from sstpca.cli import main
from sstpca.deflate import fit_multi
from sstpca.errors import DegenerateIterate, DidNotConvergeWarning
from sstpca.ranksel import rank_select_bic
from sstpca.simulate import spike_model
from sstpca.tensor import SemiSymTensor, ttv3

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(_openblas_controls() is None,
                                    reason="numpy's OpenBLAS has no thread control")


def blas_threads() -> int:
    return _openblas_controls()[0]()


@pytest.fixture()
def two_blas_threads():
    """numpy's OpenBLAS set to 2 threads for the test, so that a restored count
    differs from the cap."""
    get, set_ = _openblas_controls()
    saved = get()
    set_(2)
    try:
        yield
    finally:
        set_(saved)


@needs_openblas
def test_pool_holds_blas_at_one_thread_and_restores(two_blas_threads):
    assert ordered_map(lambda _: blas_threads(), range(4), 2) == [1] * 4
    assert blas_threads() == 2


@needs_openblas
def test_pool_restores_blas_threads_when_fn_raises(two_blas_threads):
    def fail(i):
        if i == 2:
            raise ZeroDivisionError
        return i

    with pytest.raises(ZeroDivisionError):
        ordered_map(fail, range(4), 2)
    assert blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("n_threads, n_items", [(1, 4), (2, 1)], ids=["serial", "one-item"])
def test_serial_path_leaves_blas_threads_alone(two_blas_threads, n_threads, n_items):
    seen = ordered_map(lambda _: blas_threads(), range(n_items), n_threads)
    assert seen == [2] * n_items


@needs_openblas
def test_overlapping_pools_share_one_hold(two_blas_threads):
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
    assert seen_in_b == [1] * 2
    assert blas_threads() == 2


def _warn_then(fail_at: "int | None"):
    def fn(i):
        warnings.warn(f"item {i}", DidNotConvergeWarning)
        if i == fail_at:
            raise ZeroDivisionError
        return i
    return fn


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("fail_at", [None, 1], ids=["returns", "raises"])
def test_pool_swallows_warnings_and_restores_filters(n_threads, fail_at):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        if fail_at is None:
            assert ordered_map(_warn_then(None), range(3), n_threads) == [0, 1, 2]
        else:
            with pytest.raises(ZeroDivisionError):
                ordered_map(_warn_then(fail_at), range(3), n_threads)
        assert warnings.filters == filters
    assert caught == []


@needs_openblas
@pytest.mark.parametrize("p, held", [(500, True), (501, False)], ids=["p500", "p501"])
def test_fit_policy_holds_blas_at_one_thread_up_to_p500(two_blas_threads, p, held):
    with _blas_hold_for(p):
        assert blas_threads() == (1 if held else 2)
    assert blas_threads() == 2


@needs_openblas
def test_fit_restores_blas_threads_when_it_raises(two_blas_threads, monkeypatch):
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
    assert seen == [1]
    assert blas_threads() == 2


@needs_openblas
def test_no_tensor_norm_of_a_fit_or_changepoint_runs_outside_the_hold(two_blas_threads,
                                                                        monkeypatch):
    """At p=150 every numpy.linalg.norm of a 3-way array, a p^2 T BLAS
    reduction, runs at one OpenBLAS thread: the fit takes none, detect_changepoint
    takes the CUSUM tensor's check and its two norms under its hold, and fit_multi
    and rank_select_bic check each deflation residual (`SemiSymTensor._trusted`)
    under theirs."""
    seen = []
    real_norm = np.linalg.norm

    def spy_norm(x, *args, **kwargs):
        if np.ndim(x) == 3:
            seen.append(blas_threads())
        return real_norm(x, *args, **kwargs)

    # d = 300, so that the BIC keeps a first factor and rank_select_bic deflates.
    X, _ = spike_model(150, 20, 1, 300.0, 1.0, "positive", np.random.default_rng(3))
    opts = decompose.FitOptions(max_iter=5)
    calls = {"fit_single_factor": lambda: decompose.fit_single_factor(X, opts),
             "detect_changepoint": lambda: detect_changepoint(X, 1, opts),
             "fit_multi": lambda: fit_multi(X, [1, 1], "projection", opts),
             "rank_select_bic": lambda: rank_select_bic(X, 2, 2, opts)}
    seen_by = {}
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConvergeWarning)
        for name, call in calls.items():
            seen.clear()
            call()
            seen_by[name] = seen.copy()
    assert seen_by.pop("fit_single_factor") == []
    for name, records in seen_by.items():
        assert records and all(rec == 1 for rec in records), (name, records)
    assert blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("p, held", [(300, True), (501, False)], ids=["p300", "p501"])
@pytest.mark.parametrize("preset, name", [("shift", "shift_model"), ("shift", "detection_snr"),
                                          ("spike", "spike_model")])
def test_simulate_instance_runs_under_the_fit_policy(two_blas_threads, monkeypatch, tmp_path,
                                                     p, held, preset, name):
    """The instance presets draw under `_blas_hold_for(p)`, so at p <= 500 the
    draw, and the shift preset's detection_snr with its eigvalsh, run on one
    thread."""
    seen = []
    real = getattr(cli, name)

    def spy(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    result = CliRunner().invoke(main, ["simulate", "--preset", preset, "--p", str(p), "--t", "4",
                                       "--output", str(tmp_path / "out.json")])
    assert result.exit_code == 0, result.output
    assert seen == [1 if held else 2]
    assert blas_threads() == 2


@pytest.mark.skipif(_openblas_thread_timeout() is None,
                    reason="numpy's OpenBLAS exports no openblas_thread_timeout")
@pytest.mark.parametrize("set_by_caller, expected", [(None, 16), ("24", 24)],
                         ids=["default", "caller-set"])
def test_openblas_loads_with_the_idle_policy(set_by_caller, expected):
    """In a fresh process that imports sstpca before numpy, numpy's OpenBLAS
    reads OPENBLAS_THREAD_TIMEOUT=16 unless the caller set a value."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if set_by_caller is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = set_by_caller
    code = ("import sstpca; from sstpca._parallel import _openblas_thread_timeout; "
            "print(_openblas_thread_timeout())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == expected


def _wheel_openblas(package: str) -> "str | None":
    """The OpenBLAS that `package`'s wheel bundles in ``<package>.libs``, if any."""
    spec = importlib.util.find_spec(package)
    if spec is None:
        return None
    found = sorted(Path(spec.origin).parents[1].joinpath(f"{package}.libs").glob("*openblas*"))
    return str(found[0]) if found else None


WHEEL_OPENBLAS = [_wheel_openblas("numpy"), _wheel_openblas("scipy")]

# Run in a fresh process that loads scipy's OpenBLAS before sstpca.
ONE_LIBRARY_CHECK = """
import ctypes, json, sys
import scipy.linalg
from numpy._core import _multiarray_umath
from sstpca import linalg
from sstpca._parallel import _openblas_controls, _openblas_function, _single_threaded_blas

def address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value

numpy_blas, scipy_blas = (ctypes.CDLL(path) for path in sys.argv[1:])
multiarray = ctypes.CDLL(_multiarray_umath.__file__)
get_scipy = _openblas_function(scipy_blas, "openblas_get_num_threads")
get_scipy.restype = ctypes.c_int
_openblas_function(scipy_blas, "openblas_set_num_threads")(2)
get, set_ = _openblas_controls()
set_(2)
with _single_threaded_blas:
    held = [get(), get_scipy()]
print(json.dumps({
    "held": held,
    "after": [get(), get_scipy()],
    "dsyevd": address(linalg._dsyevd()[0]) == address(_openblas_function(numpy_blas, "dsyevd_")),
    "matmul": address(get) == address(_openblas_function(multiarray, "openblas_get_num_threads")),
}))
"""


@pytest.mark.skipif(None in WHEEL_OPENBLAS,
                    reason="needs the OpenBLAS that numpy's and scipy's wheels each bundle")
def test_only_numpy_openblas_is_driven():
    """With scipy's OpenBLAS loaded first, the hold sets numpy's OpenBLAS to one
    thread and leaves scipy's at two; the in-place eigensolver is the dsyevd of
    the OpenBLAS in numpy.libs, and the thread control is the one that numpy's
    matmul module links."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", ONE_LIBRARY_CHECK, *WHEEL_OPENBLAS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"held": [1, 2], "after": [2, 2], "dsyevd": True,
                                       "matmul": True}


def test_worker_count_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv("SSTPCA_THREADS", raising=False)
    assert resolve_threads() == len(os.sched_getaffinity(0))


# Byte checks: each job is one `python -m sstpca.cli` argument list, at p=150.
# This OpenBLAS gives eigh the same bits at 1 and 2 threads at p=100 and
# different bits at p=150, so only from p=150 on can a check see a missing
# hold. Paths under {dir} are the job's own files, which each run overwrites,
# so every run of a job echoes the same paths into its JSON.
INSTANCE_150 = "--p 150 --t 20 --r 2 --d 40 --seed 7"
JOBS = {
    "benchmark": "benchmark --p-list 150 --t 50 --d-list 30 --u-mode positive --reps 4 --seed 0"
                 " --output {dir}/benchmark.json",
    "fig3": "simulate --preset fig3 --p 150 --t 20 --r-list 1,3 --seeds 2 --seed 5"
            " --csv {dir}/fig3.csv --output {dir}/fig3.json",
    "decompose": "decompose --input {dir}/shift.csv --ranks 2,2 --scheme projection"
                 " --output {dir}/decompose.json",
    "changepoint": "changepoint --input {dir}/shift.csv --rank 3 --output {dir}/changepoint.json",
    "rank-select": "rank-select --input {dir}/shift.csv --r-max 3 --k-max 2"
                   " --output {dir}/rank-select.json",
    "shift": f"simulate --preset shift {INSTANCE_150} --data-out {{dir}}/shift-data.csv"
             " --output {dir}/shift.json",
    "spike": f"simulate --preset spike {INSTANCE_150} --data-out {{dir}}/spike-data.csv"
             " --output {dir}/spike.json",
}
_OUTPUT_FLAGS = ("--output", "--csv", "--data-out")


def _cli_bytes(job: tuple, blas: str, workers: "str | None") -> tuple:
    """Bytes of every file `job` names, from one CLI run at OPENBLAS_NUM_THREADS=blas
    and SSTPCA_THREADS=workers (unset when None)."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": blas}
    env.pop("SSTPCA_THREADS", None)
    if workers is not None:
        env["SSTPCA_THREADS"] = workers
    subprocess.run([sys.executable, "-m", "sstpca.cli", *job], env=env, check=True, timeout=300)
    return tuple(Path(path).read_bytes()
                 for flag, path in zip(job, job[1:]) if flag in _OUTPUT_FLAGS)


@pytest.fixture(scope="module")
def cli_bytes(tmp_path_factory):
    """`cli_bytes(name, blas, workers=None)`: `_cli_bytes` of JOBS[name], run once
    per module for each configuration however many tests compare it. The jobs
    share one directory, which holds the p=150 shift input that decompose,
    changepoint and rank-select read."""
    d = tmp_path_factory.mktemp("cli")
    result = CliRunner().invoke(main, ["simulate", "--preset", "shift", *INSTANCE_150.split(),
                                       "--data-out", str(d / "shift.csv"),
                                       "--output", str(d / "truth.json")])
    assert result.exit_code == 0, result.output
    jobs = {name: tuple(arg.format(dir=d) for arg in args.split()) for name, args in JOBS.items()}
    runs = {}

    def run(name: str, blas: str, workers: "str | None" = None) -> tuple:
        key = (name, blas, workers)
        if key not in runs:
            runs[key] = _cli_bytes(jobs[name], blas, workers)
        return runs[key]

    return run


@needs_openblas
def test_pooled_results_equal_single_blas_thread_results(cli_bytes):
    """Pools of 2 and 4 workers hold BLAS at one thread and give the bits of a
    one-BLAS-thread run; so does a serial run under 2 BLAS threads, whose fits
    take the fit policy's hold. fig3 runs its reps on the same pool, so 2
    workers under 2 BLAS threads write the JSON and CSV bytes of a serial
    one-BLAS-thread run."""
    single_blas = cli_bytes("benchmark", "1", "1")
    for workers in ("2", "4", "1"):
        assert cli_bytes("benchmark", "2", workers) == single_blas, workers
    assert cli_bytes("fig3", "2", "2") == cli_bytes("fig3", "1", "1")


@needs_openblas
def test_fits_up_to_p500_give_the_same_bytes_at_any_blas_thread_count(cli_bytes):
    """Without the fit policy's hold the JSON of each differs in the last
    digits between 1 and 2 threads (a rank-2 changepoint run on this input
    does not)."""
    for command in ("decompose", "changepoint", "rank-select"):
        assert cli_bytes(command, "2") == cli_bytes(command, "1"), command


@needs_openblas
def test_simulate_instances_give_the_same_bytes_at_any_blas_thread_count(cli_bytes):
    """Their draws make no BLAS call whose bits depend on the thread count, so
    this holds even without a hold; test_simulate_instance_runs_under_the_fit_policy
    is the check that the draw takes it."""
    for preset in ("shift", "spike"):
        assert cli_bytes(preset, "2") == cli_bytes(preset, "1"), preset


@needs_openblas
def test_rank_select_gives_the_same_bytes_at_any_worker_and_blas_thread_count(cli_bytes):
    """rank-select fits each step's candidate ranks on SSTPCA_THREADS workers
    (default: the usable cores); every pairing of workers and OpenBLAS threads
    writes the same JSON."""
    outputs = {(blas, workers): cli_bytes("rank-select", blas, workers)
               for blas in ("1", "2") for workers in (None, "1", "2")}
    reference = outputs["1", "1"]
    assert [key for key, out in outputs.items() if out != reference] == []
