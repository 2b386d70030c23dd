"""Layer micro-benchmarks: the worker pool of ``rate_sweep`` and p=100 eigh.

Run with a pinned BLAS thread count above 1, for example

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python -m pytest \
        benchmarks/test_layers_pool.py --benchmark-json bench.json

At OPENBLAS_NUM_THREADS=1 pool workers and BLAS never compete for cores, so
these cases show no difference between BLAS held at one thread inside the
pool and BLAS left alone. Each case reports min and median over its rounds.

- ``test_rate_sweep_pool``: the grid of the benchmark command's sweep-small
  workload (p in {20, 60, 100}, T=50, d in {30, 60}, positive loadings) with
  8 reps per cell instead of 40, on 2 workers.
- ``test_eigh_p100[serial]`` and ``test_eigh_p100[pool]``: 32 full eigh calls
  of one symmetric 100 x 100 matrix, in a plain loop (``n_threads=1``) and
  spread over 2 workers by ``ordered_map``.
"""

import warnings

import numpy as np
import pytest

from sstpca._parallel import ordered_map
from sstpca.simulate import SweepCell, rate_sweep

SEED = 20220209
CALLS = 32


@pytest.fixture(scope="module")
def sym100():
    A = np.random.default_rng(SEED).standard_normal((100, 100))
    return (A + A.T) / 2


def test_rate_sweep_pool(benchmark):
    cells = [SweepCell(p=p, T=50, r=1, d=d, sigma=1.0, u_mode="positive", init="stable")
             for p in (20, 60, 100) for d in (30.0, 60.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = benchmark.pedantic(rate_sweep, args=(cells, 8, 0),
                                     kwargs={"n_threads": 2}, rounds=5)
    assert all(r.converged_frac == 1.0 for r in results)


@pytest.mark.parametrize("n_threads", [1, 2], ids=["serial", "pool"])
def test_eigh_p100(benchmark, sym100, n_threads):
    out = benchmark.pedantic(ordered_map, args=(lambda _: np.linalg.eigh(sym100), range(CALLS),
                                                n_threads), rounds=10)
    assert len(out) == CALLS
