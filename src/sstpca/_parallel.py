"""Deterministic work pool and the BLAS thread policy of a fit.

`ordered_map` is the one worker pool: `simulate._run_reps` sends all reps
of a sweep or of fig3 through one call, `ranksel.rank_select_bic` one call
per step for its candidate ranks. It owns the rules of pooled fits, so its
callers repeat none: results keep submission order; library warnings are
ignored on the calling thread, serial or pooled, because warning filters are
process-wide and workers must not touch them; and while it runs on two or
more workers, numpy's OpenBLAS is held at one thread, so each worker runs
its LAPACK calls on its own core instead of competing with BLAS helper
threads, and the results equal those of a serial run with one BLAS thread,
bit for bit, for any worker count. No other BLAS library is touched.

Outside a pool, `_blas_hold_for(p)` sets the thread policy of a fit on a
p-node network: at p <= ONE_BLAS_THREAD_MAX_P (500) the fit runs under the
same one-thread hold, so it gives the bits of a one-BLAS-thread run at any
OPENBLAS_NUM_THREADS; above 500 it keeps the process's BLAS threads, whose
count can change the last digits. `fit_single_factor` enters it before its
first BLAS call, `cli.simulate` while it draws an instance,
`detect_changepoint` from its CUSUM tensor on, and `fit_multi` and
`rank_select_bic` once around their fit loop.

At import, before any sstpca module loads numpy, OPENBLAS_THREAD_TIMEOUT
defaults to 16: after a threaded call an OpenBLAS helper thread spins for
2^16 cycles (about 31 us at 2.1 GHz) and then sleeps, instead of the build
default of 2^28 cycles (about 0.13 s), which outlasts the 35-45 ms from one
p=1000 V-step to the next and burned a core through every iteration. It
changes no result bit. On a 2-core Xeon it cut sweep-p1000's CPU time by
18% at no measurable wall cost, and one p=1000 fit iteration at 2 BLAS
threads took 334 ms of CPU instead of 401, in 213 ms of wall time instead
of 202 (BENCH_24.json). A value the caller set wins, and a numpy that
loaded OpenBLAS before sstpca was imported keeps the value it read then.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameter

THREADS_ENV_VAR = "SSTPCA_THREADS"

# Read by OpenBLAS when numpy loads it (see the module docstring). 2^20
# left sweep-p1000 10% more CPU time than 2^16 (BENCH_24.json).
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")


def resolve_threads(explicit: "int | None" = None) -> int:
    """Worker count from ``explicit``, else SSTPCA_THREADS, else the number of
    cores this process may run on."""
    if explicit is not None:
        value, source = explicit, "--threads"
    else:
        value, source = os.environ.get(THREADS_ENV_VAR), THREADS_ENV_VAR
        if not value:
            return len(os.sched_getaffinity(0))
    try:
        n = int(value)
    except ValueError:
        raise InvalidParameter(f"{source}: expected a positive integer, got {value!r}") from None
    if n < 1:
        raise InvalidParameter(f"{source}: expected a positive integer, got {n}")
    return n


def _openblas_function(lib, name: str):
    """`name` as `lib` exports it: plain or with the ``scipy_`` prefix of
    numpy's wheels, with or without the ``64_`` suffix of 64-bit-int builds;
    None where it does not."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


@functools.cache
def _numpy_openblas():
    """numpy's OpenBLAS: numpy's loaded linalg extension as a ctypes library, whose
    symbol lookup also searches the libraries it links, so it finds the OpenBLAS
    that runs np.linalg.eigh and no other. None where that BLAS has no
    openblas_get_num_threads or the extension cannot be opened. Imported on the
    first call, not at module import (see the module docstring)."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    return lib if _openblas_function(lib, "openblas_get_num_threads") is not None else None


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None where it lacks one."""
    lib = _numpy_openblas()
    set_ = None if lib is None else _openblas_function(lib, "openblas_set_num_threads")
    if set_ is None:
        return None
    get = _openblas_function(lib, "openblas_get_num_threads")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _openblas_thread_timeout() -> "int | None":
    """OPENBLAS_THREAD_TIMEOUT as numpy's OpenBLAS read it at load, 0 where it was
    unset; None where it exports no getter."""
    lib = _numpy_openblas()
    get = None if lib is None else _openblas_function(lib, "openblas_thread_timeout")
    return None if get is None else get()


class _SingleThreadedBlas:
    """Hold numpy's OpenBLAS at one thread while any pool runs.

    The thread count is global to the process, so overlapping pools share
    one hold: the first to enter saves the count and sets it to 1, the
    last to leave restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None  # the count before the latest hold

    def __enter__(self):
        with self._lock:
            controls = _openblas_controls()
            if self._holders == 0 and controls is not None:
                get, set_ = controls
                self._saved = get()
                set_(1)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._saved is not None:
                _openblas_controls()[1](self._saved)


_single_threaded_blas = _SingleThreadedBlas()

# Largest p at which a fit holds OpenBLAS at one thread. Median wall / CPU
# time of one eigh on a 2-core Xeon (BENCH_11.json), at 1 and at 2 threads:
# p=300 5.6 / 5.6 ms and 5.3 / 9.3 ms; p=500 18.4 / 18.4 ms and 14.9 / 29.7 ms;
# p=1000 120 / 120 ms and 71 / 143 ms. Up to p=500 a second thread saves at
# most a fifth of the wall time and costs more than half again the CPU.
ONE_BLAS_THREAD_MAX_P = 500


def _blas_hold_for(p: int):
    """The BLAS thread policy of a fit on a p-node network: the one-thread
    hold at p <= ONE_BLAS_THREAD_MAX_P, else a context that does nothing.

    The hold is shared and reference-counted, so entering it inside a pool or
    inside another fit's hold changes nothing. Like the pool's hold, it must
    not be entered while another thread of the process is inside a BLAS call.
    """
    return _single_threaded_blas if p <= ONE_BLAS_THREAD_MAX_P else contextlib.nullcontext()


def ordered_map(fn, items, n_threads: int = 1) -> list:
    """``[fn(it) for it in items]``, on ``n_threads`` workers when n_threads > 1,
    with warnings ignored (see the module docstring).

    The filters are set first, then the BLAS hold is taken and the executor
    started; all are released only after the pool has joined, so no BLAS call
    is in flight while the count changes and no worker warns unfiltered.
    """
    items = list(items)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if n_threads <= 1 or len(items) <= 1:
            return [fn(it) for it in items]
        with _single_threaded_blas, ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(fn, items))
