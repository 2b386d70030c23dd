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
"""

import numpy as np
import pytest

from sstpca.decompose import _best_eigen_block
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
