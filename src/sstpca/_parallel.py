"""Deterministic work-pool helpers.

Replicates get independent RNG streams spawned from one master seed and
results are collected in submission order. While the pool runs, every
loaded OpenBLAS is held at one thread, so each worker runs its LAPACK calls
on its own core instead of competing with BLAS helper threads. Pool results
therefore equal those of a serial run with one BLAS thread, bit for bit,
for any worker count; a serial run (``n_threads=1``) keeps the process's
BLAS threading, which can change the last digits once matrices are large
enough for OpenBLAS to use its threads.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameter

THREADS_ENV_VAR = "SSTPCA_THREADS"


def resolve_threads(explicit: "int | None" = None) -> int:
    """Worker count from ``explicit``, else SSTPCA_THREADS, else 1."""
    if explicit is not None:
        value, source = explicit, "--threads"
    else:
        value, source = os.environ.get(THREADS_ENV_VAR), THREADS_ENV_VAR
        if not value:
            return 1
    try:
        n = int(value)
    except ValueError:
        raise InvalidParameter(f"{source}: expected a positive integer, got {value!r}") from None
    if n < 1:
        raise InvalidParameter(f"{source}: expected a positive integer, got {n}")
    return n


def spawn_seeds(master_seed: int, n: int) -> list:
    return np.random.SeedSequence(master_seed).spawn(n)


_OPENBLAS_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]


def _openblas_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Libraries are found by file name in /proc/self/maps, so this is empty
    where that file does not exist or the BLAS is not OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
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
    return controls


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


def ordered_map(fn, items, n_threads: int = 1) -> list:
    """``[fn(it) for it in items]``, on ``n_threads`` workers when n_threads > 1.

    The pool runs with BLAS held at one thread (see the module docstring);
    the hold is taken before the executor starts and released after it has
    joined, so no BLAS call is in flight while the count changes.
    """
    items = list(items)
    if n_threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with _single_threaded_blas, ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, items))
