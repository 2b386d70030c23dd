"""Layer micro-benchmarks: the three deflation schemes and the CUSUM tensor.

Run with a pinned BLAS thread count, for example

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_layers_deflate.py --benchmark-json bench.json

Each case reports min and median over its rounds.

- ``test_deflate[<scheme>-p300]`` and ``[<scheme>-p1000]``: one ``deflate``
  of a spiked tensor (T=20, r=3, d=60, sigma=1, sphere loadings) by a rank-3
  factor near the planted one, for each of hotelling, projection and schur.
- ``test_cusum_tensor``: ``cusum_tensor`` of the p=300 tensor.

The factor is the truth moved by a small random rotation and rescaling, so
every Schur block V' X_t V is well conditioned; the cost of a deflation does
not depend on how good the factor is.
"""

import numpy as np
import pytest

from sstpca.changepoint import cusum_tensor
from sstpca.decompose import Factor
from sstpca.deflate import SCHEMES, deflate
from sstpca.linalg import normalize
from sstpca.simulate import spike_model

T, R, D, SIGMA = 20, 3, 60.0, 1.0
SEED = 20220209


@pytest.fixture(scope="module", params=[300, 1000], ids=["p300", "p1000"])
def spiked(request):
    rng = np.random.default_rng(SEED)
    X, truth = spike_model(request.param, T, R, D, SIGMA, "sphere", rng)
    V, _ = np.linalg.qr(truth.V_star + 0.05 * rng.standard_normal(truth.V_star.shape))
    u = normalize(truth.u_star + 0.05 * rng.standard_normal(T))
    return X, Factor(u=u, V=V, d=0.98 * D)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_deflate(benchmark, spiked, scheme):
    X, f = spiked
    Y = benchmark.pedantic(deflate, args=(X, f, scheme), rounds=10 if X.p == 300 else 3)
    assert Y.shape == X.shape


def test_cusum_tensor(benchmark):
    X, _ = spike_model(300, T, R, D, SIGMA, "sphere", np.random.default_rng(SEED))
    C = benchmark.pedantic(cusum_tensor, args=(X,), rounds=20)
    assert C.shape == (300, 300, T - 1)
