"""Layer micro-benchmarks: the spiked model, the sweep's reconstruction
error, one BIC candidate's RSS and SemiSymTensor validation.

Run with a pinned BLAS thread count, for example

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_layers_sim.py --benchmark-json bench.json

Each case reports min and median over its rounds.

- ``test_spike_model[p300]`` and ``[p1000]``: one draw of the spiked model,
  T=20, r=3, d=60, sigma=1, sphere loadings.
- ``test_recon_error``: the relative reconstruction error of one sweep
  replicate at p=1000, T=20, r=3, from the truth and a fitted factor.
- ``test_bic_candidate_rss``: the distinct-entry RSS of one rank-3 BIC
  candidate at p=300, T=20, given the residual's own RSS.
- ``test_validation_p300``: ``SemiSymTensor(..., check=True)`` of a
  p=300, T=20 array.

The fitted factors are the truth moved by a small random rotation and
rescaling; the cost of both error evaluations does not depend on how good
the fit is. On a checkout without ``simulate._recon_error`` or
``ranksel.candidate_rss`` the two cases time the dense expressions those
functions replaced, so one copy of this file compares the two.
"""

import numpy as np
import pytest

from sstpca.decompose import Factor
from sstpca.linalg import normalize
from sstpca.ranksel import distinct_rss
from sstpca.simulate import spike_model
from sstpca.tensor import SemiSymTensor, frob_norm, rank1_outer

try:
    from sstpca.simulate import _recon_error
except ImportError:
    def _recon_error(factor, truth):
        signal = rank1_outer(truth.d, truth.V_star, truth.u_star)
        return frob_norm(factor.reconstruct().data - signal.data) / frob_norm(signal)

try:
    from sstpca.ranksel import candidate_rss
except ImportError:
    def candidate_rss(R, rss_R, f):
        return distinct_rss(R.data - f.reconstruct().data)

T, R, D, SIGMA = 20, 3, 60.0, 1.0
SEED = 20220209


def _spike(p):
    return spike_model(p, T, R, D, SIGMA, "sphere", np.random.default_rng(SEED))


def _near_fit(truth, rng):
    V, _ = np.linalg.qr(truth.V_star + 0.05 * rng.standard_normal(truth.V_star.shape))
    u = normalize(truth.u_star + 0.05 * rng.standard_normal(truth.u_star.shape))
    return Factor(u=u, V=V, d=0.98 * truth.d)


@pytest.mark.parametrize("p", [300, 1000], ids=["p300", "p1000"])
def test_spike_model(benchmark, p):
    X, _ = benchmark.pedantic(_spike, args=(p,), rounds=5 if p == 1000 else 20)
    assert X.shape == (p, p, T)


def test_recon_error(benchmark):
    _, truth = _spike(1000)
    factor = _near_fit(truth, np.random.default_rng(SEED + 1))
    err = benchmark.pedantic(_recon_error, args=(factor, truth), rounds=5)
    signal = rank1_outer(truth.d, truth.V_star, truth.u_star)
    dense = frob_norm(factor.reconstruct().data - signal.data) / frob_norm(signal)
    assert err == pytest.approx(dense, rel=1e-12)


def test_bic_candidate_rss(benchmark):
    X, truth = _spike(300)
    factor = _near_fit(truth, np.random.default_rng(SEED + 2))
    rss_X = distinct_rss(X)
    rss = benchmark.pedantic(candidate_rss, args=(X, rss_X, factor), rounds=20)
    assert rss == pytest.approx(distinct_rss(X.data - factor.reconstruct().data), rel=1e-12)


def test_validation_p300(benchmark):
    A = np.random.default_rng(SEED).standard_normal((300, 300, T))
    A = A + A.transpose(1, 0, 2)
    X = benchmark.pedantic(SemiSymTensor, args=(A,), kwargs={"check": True}, rounds=20)
    assert np.array_equal(X.data, A)
