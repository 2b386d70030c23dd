"""Layer micro-benchmarks: the Monte Carlo engine's worker pool and p=100 eigh.

Each case reports min and median over its rounds, at one OpenBLAS thread
like every case without ``2blas`` in its id: pooled fits hold BLAS at one
thread anyway (``_parallel``), so these cases time what the pool gains on
one-thread work. How pool workers compete with BLAS threads shows end to
end, in perfbench's sweep-small.

- ``test_rate_sweep_pool``: the grid of the benchmark command's sweep-small
  workload (p in {20, 60, 100}, T=50, d in {30, 60}, positive loadings) with
  8 reps per cell instead of 40, on 2 workers.
- ``test_eigh_p100[serial]`` and ``test_eigh_p100[pool]``: 32 full eigh calls
  of one symmetric 100 x 100 matrix, in a plain loop (``n_threads=1``) and
  spread over 2 workers by ``ordered_map``.
- ``test_engine_criterion_4_reps[serial]`` and ``[pool]``: one
  ``simulate._run_reps`` call on 8 of acceptance criterion 4's reps (p=200,
  T=20, the first 4 seeds of each rank 1 and 5, ``max_iter=1000``), on 1 and
  on 2 workers.
- ``test_rank_select_p300[serial]`` and ``[pool]``: one ``rank_select_bic``
  call (r_max 4, K_max 3) on a p=300, T=20 ``shift_model`` instance like
  the files-p300 workload's (d=60, rank 3, the mean shifts after slice 12,
  sigma 1), with SSTPCA_THREADS at 1 and at 2, so each step's four candidate
  fits run one at a time or two at a time.
"""

import warnings

import numpy as np
import pytest

from sstpca._parallel import ordered_map
from sstpca.ranksel import rank_select_bic
from sstpca.simulate import SweepCell, _run_reps, rate_sweep, shift_model

from conftest import SEED

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


@pytest.mark.parametrize("n_threads", [1, 2], ids=["serial", "pool"])
def test_engine_criterion_4_reps(benchmark, n_threads):
    reps = [(SweepCell(200, 20, r, 15.0 * r ** (-0.25), 1.0, "constant", "positive"), child)
            for r in (1, 5) for child in np.random.SeedSequence(2024).spawn(20)[:4]]
    fits = benchmark.pedantic(_run_reps, args=(reps, 1000), kwargs={"n_threads": n_threads},
                              rounds=3)
    assert len(fits) == 8


@pytest.fixture(scope="module")
def shift300():
    return shift_model(300, 20, 3, 60.0, 1.0, 12, np.random.default_rng(SEED))[0]


@pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "pool"])
def test_rank_select_p300(benchmark, monkeypatch, shift300, workers):
    monkeypatch.setenv("SSTPCA_THREADS", workers)
    ranks, _ = benchmark.pedantic(rank_select_bic, args=(shift300, 4, 3), rounds=5)
    assert ranks == [3, 3]
