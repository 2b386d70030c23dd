import os
import time

import pytest

from sstpca._parallel import _openblas_controls

SETTLE_S = 0.5


def pytest_configure(config):
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        raise pytest.UsageError(
            "set OPENBLAS_NUM_THREADS (for example to 1): timings taken with "
            "the default BLAS thread count are not comparable between runs"
        )


@pytest.fixture()
def blas_threads(request):
    """Set every loaded OpenBLAS to request.param threads for one case (used
    indirectly, as in ``test_layers_blas.py``) and restore the counts after it."""
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
