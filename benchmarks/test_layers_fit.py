"""Layer micro-benchmarks: the four steps of one fit iteration.

Run with a pinned BLAS thread count, for example

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_layers_fit.py --benchmark-json bench.json

Each case reports min and median over its rounds, at p=300 and p=1000 with
T=20, on a spiked tensor (r=3, d=60, sigma=1, sphere loadings):

- ``test_ttv3``: the u-weighted slice sum, by the planted loading.
- ``test_trace_product``: the T-vector trace(V' X_t V), by the planted basis.
- ``test_eigen_block``: the V-update's eigen-block, ``_best_eigen_block`` of
  the u-weighted slice sum at rank 3.
- ``test_convergence_check``: ``sin_theta_frob`` of two p x 3 bases, the
  planted one and a small random rotation of it.

``test_small_fit`` times a whole ``fit_single_factor`` at each of perfbench
sweep-small's p values (20, 60, 100), T=50, rank 1, d=30, sigma=1, positive
loadings, stable start; at these p the fit holds OpenBLAS at one thread.
``test_small_fit_2blas`` times the same fits with every loaded OpenBLAS set to
2 threads (the ``blas_threads`` fixture of ``conftest.py``, restored after the
case), as a process started with OPENBLAS_NUM_THREADS=2 runs them outside any
enclosing hold. Its ``extra_info`` adds the process CPU time of each call
(``cpu_min_s``, ``cpu_median_s``), which also counts the BLAS helper threads,
so it shows any BLAS call a fit makes before its one-thread hold.
"""

import statistics
import time

import numpy as np
import pytest

from sstpca.decompose import FitOptions, _best_eigen_block, fit_single_factor
from sstpca.linalg import sin_theta_frob
from sstpca.simulate import spike_model
from sstpca.tensor import trace_product, ttv3

T, R, D, SIGMA = 20, 3, 60.0, 1.0
SEED = 20220209


@pytest.fixture(scope="module", params=[300, 1000], ids=["p300", "p1000"])
def spiked(request):
    return spike_model(request.param, T, R, D, SIGMA, "sphere", np.random.default_rng(SEED))


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
    V, _ = benchmark.pedantic(_best_eigen_block, args=(M, R), rounds=_rounds(X.p))
    assert V.shape == (X.p, R)


def test_convergence_check(benchmark, spiked):
    X, truth = spiked
    rng = np.random.default_rng(SEED + 1)
    W, _ = np.linalg.qr(truth.V_star + 1e-3 * rng.standard_normal(truth.V_star.shape))
    dist = benchmark.pedantic(sin_theta_frob, args=(W, truth.V_star), rounds=200)
    assert 0.0 < dist < 0.1


@pytest.mark.parametrize("p", [20, 60, 100])
def test_small_fit(benchmark, p):
    X, _ = spike_model(p, 50, 1, 30.0, SIGMA, "positive", np.random.default_rng(SEED))
    _, diag = benchmark.pedantic(fit_single_factor, args=(X, FitOptions()), rounds=30)
    assert diag.converged


@pytest.fixture(scope="module", params=[20, 60, 100])
def small_spike(request):
    """test_small_fit's instance at p. Module-scoped, so it is drawn before
    `blas_threads` sets the count and lets the draw's helper threads stop."""
    X, _ = spike_model(request.param, 50, 1, 30.0, SIGMA, "positive",
                       np.random.default_rng(SEED))
    return X


@pytest.mark.parametrize("blas_threads", [2], ids=["2blas"], indirect=True)
def test_small_fit_2blas(benchmark, small_spike, blas_threads):
    X = small_spike
    cpu = []

    def fit():
        start = time.process_time()
        out = fit_single_factor(X, FitOptions())
        cpu.append(time.process_time() - start)
        return out

    _, diag = benchmark.pedantic(fit, rounds=30, warmup_rounds=1)
    if len(cpu) > 1:  # drop the warm-up call; --benchmark-disable makes none
        cpu = cpu[1:]
    benchmark.extra_info.update(cpu_min_s=min(cpu), cpu_median_s=statistics.median(cpu))
    assert diag.converged
