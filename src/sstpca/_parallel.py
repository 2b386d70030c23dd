"""Deterministic work pool and the BLAS thread policy of a fit.

`ordered_map` is the one worker pool: `simulate._run_reps` sends all reps
of a sweep or of fig3 through one call, `ranksel.rank_select_bic` one call
per step for its candidate ranks. It owns the rules of pooled fits, so its
callers repeat none: results keep submission order; library warnings are
ignored on the calling thread, serial or pooled, because warning filters are
process-wide and workers must not touch them; and while it runs on two or
more workers, every loaded OpenBLAS is held at one thread, so each worker
runs its LAPACK calls on its own core instead of competing with BLAS helper
threads, and the results equal those of a serial run with one BLAS thread,
bit for bit, for any worker count.

Outside a pool, `_blas_hold_for(p)` sets the thread policy of a fit on a
p-node network: at p <= ONE_BLAS_THREAD_MAX_P (500) the fit runs under the
same one-thread hold, so it gives the bits of a one-BLAS-thread run at any
OPENBLAS_NUM_THREADS; above 500 it keeps the process's BLAS threads, whose
count can change the last digits. `fit_single_factor` enters it before its
first BLAS call, `cli.simulate` while it draws an instance,
`detect_changepoint` from its CUSUM tensor on, and `fit_multi` and
`rank_select_bic` once around their fit loop: after each release the next
threaded BLAS call wakes the OpenBLAS helper threads, which then spin for
about 0.1 s of CPU.
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


_OPENBLAS_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Found once per process, by file name in /proc/self/maps: empty where that
    file does not exist or the BLAS is not OpenBLAS, and blind to a library
    loaded after the first call (sstpca loads only numpy's OpenBLAS).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


class _SingleThreadedBlas:
    """Hold every loaded OpenBLAS at one thread while any pool runs.

    The thread count is global to the process, so overlapping pools share
    one hold: the first to enter saves the counts and sets them to 1, the
    last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = []  # (set, previous count) pairs

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._saved = [(set_, get()) for get, set_ in _openblas_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for set_, previous in self._saved:
                    set_(previous)
                self._saved = []


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
