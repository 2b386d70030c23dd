"""Run one sstpca CLI command in-process with timing wrappers around its layers.

    python perfbench/tracer.py SUMMARY.json decompose --input ... --output ...

Times ``import sstpca.cli`` as the ``cli.import`` span, then replaces the
module-level names that callers look up (``sstpca.decompose.ttv3``,
``sstpca.ranksel.deflate``, ``numpy.linalg.eigh``, ...) with wrappers that
record a span per call, and drives the command through
``sstpca.cli.main.main(args, standalone_mode=False)``. Nothing in the
package changes. The per-span summary is written to SUMMARY.json and the
process exits with the command's exit code.

Each thread keeps its own span stack. A span opened on a worker thread with
an empty stack takes the open ``parallel.ordered_map`` span as its parent, so
self time (duration minus the union of child intervals) never counts the
same interval twice on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, thread, start, end, ok, extra]
        self.unwrapped = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_span = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name, extra=None):
        """Replace module.attr by a timed wrapper.

        `name` is a span name or a function of the call's (args, kwargs);
        `extra(args, kwargs, result)` returns numbers summed per span name.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.unwrapped.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not threading.main_thread():
                parent = self._pool_span
            else:
                parent = None
            with self._lock:
                record = [len(self.spans), label, parent, threading.get_ident(),
                          0.0, 0.0, False, {}]
                self.spans.append(record)
            if label == "parallel.ordered_map":
                self._pool_span = record[0]
                record[7]["workers"] = _n_threads(args, kwargs)
            stack.append(record[0])
            record[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                record[6] = True
                return out
            finally:
                record[5] = time.perf_counter()
                stack.pop()
                if label == "parallel.ordered_map":
                    self._pool_span = None
                if record[6] and extra is not None:
                    record[7].update(extra(args, kwargs, out))

        setattr(module, attr, traced)

    def summary(self) -> dict:
        children = {}
        for s in self.spans:
            if s[2] is not None:
                children.setdefault(s[2], []).append(s)
        out = {}
        main = threading.main_thread().ident
        root_s = 0.0
        for s in self.spans:
            _, name, parent, thread, start, end, ok, extra = s
            dur = end - start
            covered, reach = 0.0, start
            for c in sorted(children.get(s[0], []), key=lambda c: c[4]):
                lo, hi = max(c[4], reach), min(c[5], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "failed": 0, "durations": [], "extra": {}})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered
            agg["failed"] += not ok
            agg["durations"].append(dur)
            for key, val in extra.items():
                agg["extra"][key] = agg["extra"].get(key, 0) + val
            if parent is None and thread == main:
                root_s += dur
            if name == "parallel.ordered_map":
                items = children.get(s[0], [])
                agg["extra"]["wall_x_workers_s"] = (agg["extra"].get("wall_x_workers_s", 0.0)
                                                    + dur * extra.get("workers", 1))
                agg["extra"]["busy_s"] = (agg["extra"].get("busy_s", 0.0)
                                          + sum(c[5] - c[4] for c in items))
                agg["extra"]["queue_wait_s"] = (agg["extra"].get("queue_wait_s", 0.0)
                                                + sum(c[4] - start for c in items))
        return {"spans": out, "root_s": root_s, "unwrapped": self.unwrapped}


def _n_threads(args, kwargs) -> int:
    n = kwargs.get("n_threads", args[2] if len(args) > 2 else 1)
    return max(1, int(n))


def _tensor_bytes(args, kwargs, out) -> dict:
    shape = args[0].shape
    return {"bytes_computed": 8 * shape[0] * shape[1] * shape[2]}


def _fit_counts(args, kwargs, out) -> dict:
    diag = out[1]
    return {"iterations": diag.iterations, "nonconverged": int(not diag.converged)}


def _rows_loaded(args, kwargs, out) -> dict:
    return {"rows": out.T * out.p * (out.p + 1) // 2}


def _rows_written(args, kwargs, out) -> dict:
    X = args[0]
    diagonal = kwargs.get("include_diagonal", args[2] if len(args) > 2 else True)
    return {"rows": X.T * X.p * (X.p + (1 if diagonal else -1)) // 2}


def _deflate_name(args, kwargs) -> str:
    return f"deflate.{kwargs.get('scheme', args[2] if len(args) > 2 else '?')}"


def install(tracer: Tracer) -> None:
    """Wrap every name the layer table times, in the module that calls it."""
    import numpy.linalg

    mod = {name: importlib.import_module(f"sstpca.{name}")
           for name in ("cli", "fileio", "decompose", "deflate", "changepoint",
                        "ranksel", "simulate")}
    tracer.wrap(numpy.linalg, "eigh", "linalg.eigh")
    tracer.wrap(mod["cli"], "load_tensor", "fileio.load_tensor", _rows_loaded)
    tracer.wrap(mod["cli"], "write_long_csv", "fileio.write_long_csv", _rows_written)
    tracer.wrap(mod["cli"], "write_json", "fileio.write_json")
    for caller in ("fileio", "deflate"):
        tracer.wrap(mod[caller], "new_from_slices", "tensor.new_from_slices")
    tracer.wrap(mod["decompose"], "ttv3", "tensor.ttv3", _tensor_bytes)
    tracer.wrap(mod["decompose"], "trace_product", "tensor.trace_product", _tensor_bytes)
    tracer.wrap(mod["decompose"], "sin_theta_frob", "decompose.convergence")
    for caller in ("cli", "deflate", "changepoint", "simulate"):
        tracer.wrap(mod[caller], "fit_single_factor", "decompose.fit_single_factor", _fit_counts)
    tracer.wrap(mod["ranksel"], "fit_single_factor", "ranksel.candidate", _fit_counts)
    tracer.wrap(mod["deflate"], "deflate", _deflate_name)
    tracer.wrap(mod["ranksel"], "deflate", _deflate_name, lambda a, k, o: {"ranksel_chosen": 1})
    tracer.wrap(mod["deflate"], "slices_all_psd", "deflate.slices_all_psd")
    tracer.wrap(mod["changepoint"], "cusum_tensor", "changepoint.cusum_tensor")
    tracer.wrap(mod["ranksel"], "distinct_rss", "ranksel.distinct_rss")
    for caller in ("cli", "simulate"):
        tracer.wrap(mod[caller], "spike_model", "simulate.spike_model")
    tracer.wrap(mod["simulate"], "_run_rep", "simulate.rep")
    tracer.wrap(mod["simulate"], "_stat_iteration", "simulate.stat_iteration")
    tracer.wrap(mod["simulate"], "ordered_map", "parallel.ordered_map")


def main(argv: list) -> int:
    summary_path, args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("sstpca.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        cli.main.main(args, prog_name="sstpca", standalone_mode=False)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
