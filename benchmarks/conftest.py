import os

import pytest


def pytest_configure(config):
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        raise pytest.UsageError(
            "set OPENBLAS_NUM_THREADS (for example to 1): timings taken with "
            "the default BLAS thread count are not comparable between runs"
        )
