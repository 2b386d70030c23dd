"""Tests of the benchmark harness itself (not of sstpca).

    python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _changepoint_job(tmp_path):
    rng = np.random.default_rng(0)
    V1, V2 = workloads._haar(workloads.P, 3, rng), workloads._haar(workloads.P, 3, rng)
    jobs = workloads._file_jobs(1, tmp_path / "input.csv", V1, V2, tmp_path)
    return next(j for j in jobs if j.command == "changepoint")


def _changepoint_payload(tau_hat):
    V = workloads._haar(workloads.P, 3, np.random.default_rng(1))
    u = np.full(workloads.T - 1, (workloads.T - 1) ** -0.5)
    factor = {"d": 5.0, "p": workloads.P, "r": 3, "T": workloads.T - 1,
              "u": u.tolist(), "V": V.ravel().tolist()}
    return {"results": {"tau_hat": tau_hat, "score": 0.9, "factor": factor,
                        "diagnostics": {"converged": True}}}


def _ok_process(exit_code=0):
    return {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 1.0, "exit_code": exit_code, "stderr": ""}


def test_wrong_exit_code_counts_as_failed(tmp_path):
    job = _changepoint_job(tmp_path)
    job.output.write_text(json.dumps(_changepoint_payload(workloads.TAU)))
    proc = run.run_process([sys.executable, "-c", "import sys; sys.exit(3)"], {},
                           time.perf_counter() + 30)
    assert proc["exit_code"] == 3
    assert run.failed(run.judge(job, proc, None))
    assert not run.failed(run.judge(job, _ok_process(), None))


def test_corrupted_output_counts_as_failed(tmp_path):
    job = _changepoint_job(tmp_path)
    job.output.write_text(json.dumps(_changepoint_payload(workloads.TAU + 1)))
    record = run.judge(job, _ok_process(), None)
    assert run.failed(record) and "tau_hat" in record["problems"][0]

    job.output.write_text(json.dumps(_changepoint_payload(workloads.TAU))[:-40])
    assert run.failed(run.judge(job, _ok_process(), None))


def test_estimates_are_compared_with_the_reference(tmp_path):
    job = _changepoint_job(tmp_path)
    payload = _changepoint_payload(workloads.TAU)
    job.output.write_text(json.dumps(payload))
    reference = {"changepoint": job.digest(payload)}
    assert not run.failed(run.judge(job, _ok_process(), reference))

    flipped = json.loads(json.dumps(payload))
    flipped["results"]["factor"]["u"] = [-x for x in payload["results"]["factor"]["u"]]
    job.output.write_text(json.dumps(flipped))
    assert not run.failed(run.judge(job, _ok_process(), reference))  # u compared up to sign

    payload["results"]["factor"]["d"] *= 1 + 1e-4
    job.output.write_text(json.dumps(payload))
    record = run.judge(job, _ok_process(), reference)
    assert run.failed(record) and "factor.d" in record["problems"][0]


def test_metric_names_match_benchmark_json():
    measured = {"wall_s", "cpu_s", "fits_per_s", "peak_rss_mb", "setup_s"}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == measured
    summary = {"spans": {}, "root_s": 0.0, "import_s": 0.1, "unwrapped": []}
    layer = run.layer_metrics({}, [summary], [("job", 1.0)], [1.0], [1.0])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer)
    assert {m["unit"] for m in BENCHMARK["per_layer"] if m["name"] in layer} == \
        {unit for _, unit in layer.values()}
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert whys == run.LAYERS["workloads"]
    assert set(whys) == set(workloads.WORKLOADS)


def test_self_time_excludes_children_and_pool_items():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.02)

    def outer():
        mod.inner()
        mod.inner()

    def ordered_map(fn, items, n_threads):
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(fn, items))

    mod.outer, mod.ordered_map = outer, ordered_map
    t = tracer.Tracer()
    t.wrap(mod, "inner", "inner")
    t.wrap(mod, "outer", "outer")
    t.wrap(mod, "ordered_map", "parallel.ordered_map")
    mod.outer()
    mod.ordered_map(lambda _: mod.inner(), range(4), 2)
    spans = t.summary()["spans"]
    assert spans["inner"]["calls"] == 6
    assert spans["outer"]["self_s"] < 0.01
    pool = spans["parallel.ordered_map"]
    assert 0 <= pool["self_s"] < 0.02
    assert pool["extra"]["busy_s"] == pytest.approx(4 * 0.02, rel=0.5)
    worker_parents = {s[2] for s in t.spans if s[3] != threading.main_thread().ident}
    assert worker_parents == {next(s[0] for s in t.spans if s[1] == "parallel.ordered_map")}


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep-small", "--seed", "1"]) == 2
    assert not (tmp_path / ".bench_work").exists()
