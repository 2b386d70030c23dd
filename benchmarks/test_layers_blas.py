"""Layer micro-benchmark behind ``_parallel.ONE_BLAS_THREAD_MAX_P``: eigh at
one and at two OpenBLAS threads.

``test_eigh[p<p>-<n>blas]`` times a full ``np.linalg.eigh`` of one symmetric
p x p matrix, p in {100, 300, 500, 1000}, with every loaded OpenBLAS set to n
threads (the ``blas_threads`` fixture of ``conftest.py``). Each case reports
min and median wall time over its rounds; its ``extra_info`` adds the process
CPU time of each call (``cpu_min_s``, ``cpu_median_s``), which also counts the
BLAS helper threads while the call runs.
"""

import numpy as np
import pytest

from conftest import SEED, with_cpu_time

ROUNDS = {100: 100, 300: 40, 500: 20, 1000: 10}


@pytest.mark.parametrize("blas_threads", [1, 2], ids=["1blas", "2blas"], indirect=True)
@pytest.mark.parametrize("p", sorted(ROUNDS), ids=[f"p{p}" for p in sorted(ROUNDS)])
def test_eigh(benchmark, blas_threads, p):
    A = np.random.default_rng(SEED).standard_normal((p, p))
    w, _ = with_cpu_time(benchmark, np.linalg.eigh, (A + A.T) / 2, rounds=ROUNDS[p])
    assert w.shape == (p,)
