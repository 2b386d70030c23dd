"""Layer micro-benchmarks: the spiked model, the sweep's reconstruction
error, one BIC candidate's RSS, SemiSymTensor validation and one sweep
replicate.

Each case reports min and median over its rounds.

- ``test_spike_model[p300]`` and ``[p1000]``: one draw of the spiked model of
  ``conftest.py``, T=20, r=3, d=60, sigma=1, sphere loadings. Its
  ``extra_info`` adds the ``tracemalloc`` peak of one untimed draw
  (``tracemalloc_peak_bytes``) and the bytes of the tensor (``output_bytes``).
- ``test_recon_error``: the relative reconstruction error of one sweep
  replicate at p=1000, T=20, r=3, from the truth and a fitted factor.
- ``test_bic_candidate_rss``: the distinct-entry RSS of one rank-3 BIC
  candidate at p=300, T=20, given the residual's own RSS.
- ``test_validation_p300``: the validating ``SemiSymTensor(...)`` constructor
  on a p=300, T=20 array.
- ``test_rep[p20]`` and ``[p100]``: one sweep replicate, ``_run_rep`` (draw,
  fit and scoring) on a cell of perfbench sweep-small: T=50, r=1, d=30,
  sigma=1, positive loadings, stable start, max_iter 200, tol 1e-8. On a
  checkout whose ``_run_rep`` still takes ``all_iterates`` it times the
  sweep's path there, which scores the iterates only up to the statistical one.

The fitted factors are the truth moved by a small random rotation and
rescaling; the cost of both error evaluations does not depend on how good
the fit is.
"""

import inspect

import numpy as np
import pytest

from sstpca.ranksel import candidate_rss, distinct_rss
from sstpca.simulate import SweepCell, _recon_error, _run_rep
from sstpca.tensor import SemiSymTensor, frob_norm, rank1_outer

from conftest import SEED, SIGMA, T, near_fit, spike, traced_peak

# max_iter and tol of a sweep rep, plus all_iterates=False where it exists.
_REP_ARGS = (200, 1e-8) + ((False,) if "all_iterates" in inspect.signature(_run_rep).parameters
                           else ())


@pytest.mark.parametrize("p", [300, 1000], ids=["p300", "p1000"])
def test_spike_model(benchmark, p):
    X, _ = benchmark.pedantic(spike, args=(p,), rounds=5 if p == 1000 else 20)
    assert X.shape == (p, p, T)
    benchmark.extra_info["tracemalloc_peak_bytes"] = traced_peak(spike, p)
    benchmark.extra_info["output_bytes"] = X.data.nbytes


def test_recon_error(benchmark):
    _, truth = spike(1000)
    factor = near_fit(truth, SEED + 1)
    err = benchmark.pedantic(_recon_error, args=(factor, truth), rounds=5)
    signal = rank1_outer(truth.d, truth.V_star, truth.u_star)
    dense = frob_norm(factor.reconstruct().data - signal.data) / frob_norm(signal)
    assert err == pytest.approx(dense, rel=1e-12)


def test_bic_candidate_rss(benchmark):
    X, truth = spike(300)
    factor = near_fit(truth, SEED + 2)
    rss_X = distinct_rss(X)
    rss = benchmark.pedantic(candidate_rss, args=(X, rss_X, factor), rounds=20)
    assert rss == pytest.approx(distinct_rss(X.data - factor.reconstruct().data), rel=1e-12)


def test_validation_p300(benchmark):
    A = np.random.default_rng(SEED).standard_normal((300, 300, T))
    A = A + A.transpose(1, 0, 2)
    X = benchmark.pedantic(SemiSymTensor, args=(A,), rounds=20)
    assert np.array_equal(X.data, A)


@pytest.mark.parametrize("p", [20, 100], ids=["p20", "p100"])
def test_rep(benchmark, p):
    cell = SweepCell(p, 50, 1, 30.0, SIGMA, "positive", "stable")
    fit = benchmark.pedantic(_run_rep, args=(cell, np.random.SeedSequence(SEED), *_REP_ARGS),
                             rounds=30)
    assert fit.diag.converged
