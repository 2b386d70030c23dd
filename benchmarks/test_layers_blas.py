"""Layer micro-benchmark behind ``_parallel.ONE_BLAS_THREAD_MAX_P``: eigh at
one and at two OpenBLAS threads.

Run with a pinned BLAS thread count (each case sets its own), for example

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python -m pytest \
        benchmarks/test_layers_blas.py --benchmark-json bench.json

``test_eigh[p<p>-<n>blas]`` times a full ``np.linalg.eigh`` of one symmetric
p x p matrix, p in {100, 300, 500, 1000}, with every loaded OpenBLAS set to n
threads through the controls of the fit policy's hold
(``_parallel._openblas_controls``) and restored after the case. Each case
reports min and median wall time over its rounds; its ``extra_info`` adds the
process CPU time of each call (``cpu_min_s``, ``cpu_median_s``), which also
counts the BLAS helper threads while the call runs.
"""

import statistics
import time

import numpy as np
import pytest

from sstpca._parallel import _openblas_controls

SEED = 20220209
ROUNDS = {100: 100, 300: 40, 500: 20, 1000: 10}
SETTLE_S = 0.5


@pytest.fixture()
def blas_threads(request):
    """Set every loaded OpenBLAS to request.param threads for one case."""
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(request.param)
    # After a threaded call OpenBLAS helper threads spin for about 0.1 s of
    # CPU; let those of the previous case stop before this one is timed.
    time.sleep(SETTLE_S)
    try:
        assert [get() for get, _ in controls] == [request.param] * len(controls)
        yield request.param
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@pytest.mark.parametrize("blas_threads", [1, 2], ids=["1blas", "2blas"], indirect=True)
@pytest.mark.parametrize("p", sorted(ROUNDS), ids=[f"p{p}" for p in sorted(ROUNDS)])
def test_eigh(benchmark, blas_threads, p):
    A = np.random.default_rng(SEED).standard_normal((p, p))
    M = (A + A.T) / 2
    cpu = []

    def eigh():
        start = time.process_time()
        out = np.linalg.eigh(M)
        cpu.append(time.process_time() - start)
        return out

    w, _ = benchmark.pedantic(eigh, rounds=ROUNDS[p], warmup_rounds=1)
    cpu = cpu[1:]  # drop the warm-up call
    benchmark.extra_info.update(cpu_min_s=min(cpu), cpu_median_s=statistics.median(cpu))
    assert w.shape == (p,)
