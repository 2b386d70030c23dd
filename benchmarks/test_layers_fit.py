"""Layer micro-benchmarks: the four steps of one fit iteration, and whole
small fits.

Each case reports min and median over its rounds, at p=300 and p=1000 with
T=20, on the spiked tensor of ``conftest.py`` (r=3, d=60, sigma=1, sphere
loadings):

- ``test_ttv3``: the u-weighted slice sum, by the planted loading.
- ``test_trace_product``: the T-vector trace(V' X_t V), by the planted basis.
- ``test_eigen_block``: the V-update's eigen-block, ``_best_eigen_block`` of
  a fresh copy of the u-weighted slice sum at rank 3. Its ``extra_info``
  adds the ``tracemalloc`` peak of one untimed call
  (``tracemalloc_peak_bytes``: numpy's arrays, not LAPACK's work space) and
  the bytes of the target (``target_bytes``).
- ``test_convergence_check``: ``sin_theta_frob`` of two p x 3 bases, the
  planted one and a small random rotation of it.

``test_small_fit[<p>-<n>blas]`` times a whole ``fit_single_factor`` at each
of perfbench sweep-small's p values (20, 60, 100), T=50, rank 1, d=30,
sigma=1, positive loadings, stable start, with every loaded OpenBLAS set to n
threads; at 2 the fit runs as it does outside any enclosing hold in a process
started with OPENBLAS_NUM_THREADS=2. Its ``extra_info`` adds the process CPU time
of each call (``cpu_min_s``, ``cpu_median_s``), which also counts the BLAS
helper threads, so it shows any BLAS call a fit makes before its one-thread
hold.
"""

import numpy as np
import pytest

from sstpca.decompose import FitOptions, _best_eigen_block, fit_single_factor
from sstpca.linalg import sin_theta_frob
from sstpca.simulate import spike_model
from sstpca.tensor import trace_product, ttv3

from conftest import R, SEED, SIGMA, T, traced_peak, with_cpu_time


def _rounds(p):
    return 50 if p == 300 else 10


def test_ttv3(benchmark, spiked):
    X, truth = spiked
    M = benchmark.pedantic(ttv3, args=(X, truth.u_star), rounds=_rounds(X.p))
    assert M.shape == (X.p, X.p)


def test_trace_product(benchmark, spiked):
    X, truth = spiked
    x = benchmark.pedantic(trace_product, args=(X, truth.V_star), rounds=_rounds(X.p))
    assert x.shape == (T,)


def test_eigen_block(benchmark, spiked):
    X, truth = spiked
    M = ttv3(X, truth.u_star)
    V, _ = benchmark.pedantic(_best_eigen_block, setup=lambda: ((M.copy(), R), {}),
                              rounds=_rounds(X.p))
    assert V.shape == (X.p, R)
    benchmark.extra_info["tracemalloc_peak_bytes"] = traced_peak(_best_eigen_block, M.copy(), R)
    benchmark.extra_info["target_bytes"] = M.nbytes


def test_convergence_check(benchmark, spiked):
    X, truth = spiked
    rng = np.random.default_rng(SEED + 1)
    W, _ = np.linalg.qr(truth.V_star + 1e-3 * rng.standard_normal(truth.V_star.shape))
    dist = benchmark.pedantic(sin_theta_frob, args=(W, truth.V_star), rounds=200)
    assert 0.0 < dist < 0.1


@pytest.fixture(scope="module", params=[20, 60, 100])
def small_spike(request):
    X, _ = spike_model(request.param, 50, 1, 30.0, SIGMA, "positive",
                       np.random.default_rng(SEED))
    return X


@pytest.mark.parametrize("blas_threads", [1, 2], ids=["1blas", "2blas"], indirect=True)
def test_small_fit(benchmark, small_spike, blas_threads):
    _, diag = with_cpu_time(benchmark, fit_single_factor, small_spike, FitOptions(), rounds=30)
    assert diag.converged
