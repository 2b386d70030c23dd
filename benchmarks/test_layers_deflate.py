"""Layer micro-benchmarks: the three deflation schemes and the CUSUM tensor.

Each case reports min and median over its rounds.

- ``test_deflate[p300-<scheme>]`` and ``[p1000-<scheme>]``: one ``deflate``
  of the spiked tensor of ``conftest.py`` (T=20, r=3, d=60, sigma=1, sphere
  loadings) by a rank-3 factor near the planted one, for each of hotelling,
  projection and schur.
- ``test_cusum_tensor``: ``cusum_tensor`` of the p=300 tensor.

The factor is the truth moved by a small random rotation and rescaling, so
every Schur block V' X_t V is well conditioned; the cost of a deflation does
not depend on how good the factor is.
"""

import pytest

from sstpca.changepoint import cusum_tensor
from sstpca.deflate import SCHEMES, deflate

from conftest import SEED, T, near_fit, spike


@pytest.mark.parametrize("scheme", SCHEMES)
def test_deflate(benchmark, spiked, scheme):
    X, truth = spiked
    f = near_fit(truth, SEED + 1)
    Y = benchmark.pedantic(deflate, args=(X, f, scheme), rounds=10 if X.p == 300 else 3)
    assert Y.shape == X.shape


def test_cusum_tensor(benchmark):
    X, _ = spike(300)
    C = benchmark.pedantic(cusum_tensor, args=(X,), rounds=20)
    assert C.shape == (300, 300, T - 1)
