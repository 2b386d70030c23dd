"""Shared fixtures and helpers of the layer benchmarks.

Every case pins every loaded OpenBLAS to its own thread count: one thread,
or n where the case id says ``<n>blas``. The module-scoped inputs are drawn
at one thread as well, so no start-up ``OPENBLAS_NUM_THREADS`` changes a
number. The counts of the process are restored at the end of the run.
"""

import statistics
import time
import tracemalloc

import numpy as np
import pytest

from sstpca._parallel import _openblas_controls
from sstpca.decompose import Factor
from sstpca.linalg import normalize
from sstpca.simulate import spike_model

# The spiked instance of the fit, deflation and simulation layers.
T, R, D, SIGMA = 20, 3, 60.0, 1.0
SEED = 20220209
SETTLE_S = 0.5


def pytest_configure(config):
    if not _openblas_controls():
        raise pytest.UsageError("no OpenBLAS thread control found: the cases cannot pin "
                                "their BLAS thread count")


def _set_blas_threads(n):
    controls = _openblas_controls()
    for _, set_ in controls:
        set_(n)
    assert [get() for get, _ in controls] == [n] * len(controls)


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """One OpenBLAS thread from the first fixture on; the start-up counts after the run."""
    saved = [get() for get, _ in _openblas_controls()]
    _set_blas_threads(1)
    yield
    for (_, set_), n in zip(_openblas_controls(), saved):
        set_(n)


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
        if n > 1:
            # After a threaded call OpenBLAS helper threads spin for about
            # 0.1 s of CPU; let them stop before the next case is timed.
            time.sleep(SETTLE_S)


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
