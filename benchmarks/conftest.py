"""Shared fixtures and helpers of the layer benchmarks.

Every case pins numpy's OpenBLAS to its own thread count: one thread,
or n where the case id says ``<n>blas``. The module-scoped inputs are drawn
at one thread as well, so no start-up ``OPENBLAS_NUM_THREADS`` changes a
number. The count of the process is restored at the end of the run.
sstpca is imported before numpy, so OpenBLAS runs under the package's idle
policy (``OPENBLAS_THREAD_TIMEOUT``, see ``sstpca._parallel``), and the run
stops where numpy's OpenBLAS reports another value.
"""

import os
import statistics
import time
import tracemalloc

# sstpca before numpy: its idle policy must be set when numpy loads OpenBLAS.
from sstpca._parallel import _openblas_controls, _openblas_thread_timeout

import numpy as np
import pytest

from sstpca.decompose import Factor
from sstpca.linalg import normalize
from sstpca.simulate import spike_model

# The spiked instance of the fit, deflation and simulation layers.
T, R, D, SIGMA = 20, 3, 60.0, 1.0
SEED = 20220209


def pytest_configure(config):
    if _openblas_controls() is None:
        raise pytest.UsageError("numpy's OpenBLAS has no thread control: the cases cannot "
                                "pin their BLAS thread count")
    policy = int(os.environ["OPENBLAS_THREAD_TIMEOUT"])
    timeout = _openblas_thread_timeout()
    if timeout is not None and timeout != policy:
        raise pytest.UsageError(f"OpenBLAS read OPENBLAS_THREAD_TIMEOUT={timeout}, not "
                                f"{policy}: numpy loaded it before sstpca was imported")


def _set_blas_threads(n):
    get, set_ = _openblas_controls()
    set_(n)
    assert get() == n


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """One OpenBLAS thread from the first fixture on; the start-up count after the run."""
    saved = _openblas_controls()[0]()
    _set_blas_threads(1)
    yield
    _set_blas_threads(saved)


@pytest.fixture(autouse=True)
def blas_threads(request):
    """The case's OpenBLAS thread count: 1, or request.param for a case that
    parametrizes this fixture indirectly. Back to 1 after the case."""
    n = getattr(request, "param", 1)
    _set_blas_threads(n)
    try:
        yield n
    finally:
        _set_blas_threads(1)


def spike(p):
    """The spiked instance at p: T=20, r=3, d=60, sigma=1, sphere loadings."""
    return spike_model(p, T, R, D, SIGMA, "sphere", np.random.default_rng(SEED))


def near_fit(truth, seed):
    """The truth moved by a small random rotation and rescaling, like a fit."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(truth.V_star + 0.05 * rng.standard_normal(truth.V_star.shape))
    u = normalize(truth.u_star + 0.05 * rng.standard_normal(truth.u_star.shape))
    return Factor(u=u, V=V, d=0.98 * truth.d)


@pytest.fixture(scope="module", params=[300, 1000], ids=["p300", "p1000"])
def spiked(request):
    return spike(request.param)


def traced_peak(fn, *args) -> int:
    """Peak bytes of numpy arrays alive during one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_cpu_time(benchmark, fn, *args, rounds):
    """benchmark.pedantic of fn(*args) after one warm-up call, adding to
    extra_info the process CPU time of each timed call (``cpu_min_s``,
    ``cpu_median_s``), which also counts the BLAS helper threads."""
    cpu = []

    def call():
        start = time.process_time()
        out = fn(*args)
        cpu.append(time.process_time() - start)
        return out

    out = benchmark.pedantic(call, rounds=rounds, warmup_rounds=1)
    if len(cpu) > 1:  # drop the warm-up call; --benchmark-disable makes none
        cpu = cpu[1:]
    benchmark.extra_info.update(cpu_min_s=min(cpu), cpu_median_s=statistics.median(cpu))
    return out
