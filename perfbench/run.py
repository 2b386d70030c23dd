"""End-to-end benchmark of the sstpca CLI.

    python3 perfbench/run.py --workload files-p300 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: every job is a fresh
``python -m sstpca.cli ...`` process importing the package from ``src/``.
One client drives the jobs in a closed loop (each job starts when the
previous one has exited) with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set
to the number of usable cores and SSTPCA_THREADS unset.

--trace 0 repeats the workload's job list until --seconds have passed and
reports the end-to-end metrics (medians over the lists). --trace 1 runs the
job list once as plain processes and once under perfbench/tracer.py, checks
that both write the same bytes, and reports the per-layer table described in
perfbench/layers.json. Every output is checked against the planted truth and
against the estimates recorded in perfbench/reference.json for the seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with the run environment and the exact
counts, goes to .bench_work/results/. --record-reference stores the estimates
of a correct run as the reference for its seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, compare_digest

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text())
REFERENCE = HERE / "reference.json"
WORK = Path(".bench_work")
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0
COVERAGE_MIN = 0.90


# --- processes --------------------------------------------------------------


def job_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    env.pop("SSTPCA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list, env: dict, deadline: float) -> dict:
    """Run argv to completion; wall time from spawn to exit, rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode,
            "stderr": stderr.decode(errors="replace")[-400:]}


def cli_argv(job, summary: "Path | None" = None) -> list:
    if summary is None:
        return [sys.executable, "-m", "sstpca.cli", *job.argv]
    return [sys.executable, str(HERE / "tracer.py"), str(summary), *job.argv]


# --- judging ----------------------------------------------------------------


def judge(job, proc: dict, reference: "dict | None") -> dict:
    """Exit code and output checks of one finished job."""
    record = dict(proc, command=job.command, problems=[], fits=0, digest=None)
    if proc["exit_code"] != 0:
        record["problems"].append(f"exit code {proc['exit_code']}: {proc['stderr'].strip()}")
        return record
    try:
        payload = json.loads(job.output.read_text())
        record["problems"] += job.check(payload)
        record["digest"] = job.digest(payload)
        record["fits"] = job.fits(payload)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        record["problems"].append(f"unreadable output {job.output.name}: {e!r}")
        return record
    if reference is not None and job.command in reference:
        record["problems"] += [f"{job.command} {p}"
                               for p in compare_digest(record["digest"], reference[job.command])]
    return record


def failed(record: dict) -> bool:
    return bool(record["problems"])


# --- environment and exact counts ------------------------------------------


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(env: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "SSTPCA_THREADS": env.get("SSTPCA_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": source_hash(Path("src")),
        "perfbench_sha256": source_hash(HERE),
        "loadavg_start": loadavg(),
    }


def compare_counts(key: str, counts: dict) -> list:
    """Counts that differ from the last run of the same code, benchmark and seed."""
    store = WORK / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    before = known.get(key)
    known[key] = counts
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    if before is None:
        return []
    return [f"{name}: {before.get(name)} before, {counts.get(name)} now"
            for name in sorted(set(before) | set(counts)) if before.get(name) != counts.get(name)]


# --- untraced run -----------------------------------------------------------


def measure(work, jobs_for, env, seconds, reference, deadline) -> tuple:
    samples = [run_process([sys.executable, "-m", "sstpca.cli", "--version"], env, deadline)
               for _ in range(SETUP_SAMPLES)]
    records, lists = [], []
    start = time.perf_counter()
    while True:
        out_dir = work / f"list{len(lists)}"
        out_dir.mkdir(parents=True)
        done = []
        for job in jobs_for(out_dir):
            done.append(judge(job, run_process(cli_argv(job), env, deadline), reference))
        records += done
        lists.append(done)
        shutil.rmtree(out_dir)
        if time.perf_counter() - start >= seconds or time.perf_counter() > deadline - 1:
            break

    def med(values):
        return float(statistics.median(values))

    walls = [sum(r["wall_s"] for r in lst) for lst in lists]
    metrics = {
        "wall_s": (med(walls), "s"),
        "cpu_s": (med([sum(r["cpu_s"] for r in lst) for lst in lists]), "s"),
        "fits_per_s": (med([sum(r["fits"] for r in lst) / w for lst, w in zip(lists, walls)]),
                       "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "setup_s": (med([s["wall_s"] for s in samples]), "s"),
    }
    by_command = {}
    for r in records:
        by_command.setdefault(r["command"], []).append(r["wall_s"])
    commands = {f"{c.replace('-', '_')}_s": (med(v), "s") for c, v in by_command.items()}
    per_list = [{"fits": sum(r["fits"] for r in lst)} for lst in lists]
    repeat_problems = [f"list {k}: {c} differs from list 0: {per_list[0]}"
                       for k, c in enumerate(per_list) if c != per_list[0]]
    extra = {"commands": commands, "lists": len(lists), "counts": per_list[0],
             "repeat_problems": repeat_problems, "reference_records": lists[0],
             "setup_runs": len(samples),
             "setup_failures": sum(s["exit_code"] != 0 for s in samples)}
    return metrics, records, extra


# --- traced run -------------------------------------------------------------


def merge_summaries(summaries: list) -> dict:
    merged = {}
    for s in summaries:
        for name, agg in s["spans"].items():
            m = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0,
                                         "durations": [], "extra": {}})
            m["calls"] += agg["calls"]
            m["self_s"] += agg["self_s"]
            m["failed"] += agg["failed"]
            m["durations"] += agg["durations"]
            for k, v in agg["extra"].items():
                m["extra"][k] = m["extra"].get(k, 0) + v
    return merged


def tail(durations: list) -> "tuple | None":
    """Highest percentile with at least ten calls beyond it, and its value."""
    n = len(durations)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return q, float(np.percentile(durations, q))
    return None


def expected_spans(workload_name: str) -> dict:
    """Every span of the layer map, mapped to whether it must have calls here."""
    return {span: workload_name in on
            for layer in LAYERS["layers"] for span, on in layer["spans"].items()}


def layer_metrics(merged: dict, summaries: list, coverage: list, traced_walls: list,
                  plain_walls: list) -> dict:
    """Every per-layer metric of BENCHMARK.json, as (value, unit)."""
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "durations": [], "extra": {}}

    def span(name):
        return merged.get(name, empty)

    m = {}
    for name in expected_spans(""):  # all spans, in layer-map order
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.self_s"] = (span(name)["self_s"], "s")
    m["cli.import.calls"] = (len(summaries), "count")
    m["cli.import.self_s"] = (sum(s["import_s"] for s in summaries), "s")
    for name in ("fileio.load_tensor", "fileio.write_long_csv"):
        s = span(name)
        m[f"{name}.rows_per_s"] = (s["extra"].get("rows", 0) / s["self_s"]
                                   if s["self_s"] > 0 else 0.0, "1/s")
    for name in ("tensor.ttv3", "tensor.trace_product"):
        m[f"{name}.bytes_computed"] = (span(name)["extra"].get("bytes_computed", 0), "B")
    for name, unit in (("linalg.eigh", "ms"), ("decompose.fit_single_factor", "s"),
                       ("simulate.rep", "s")):
        scale = 1e3 if unit == "ms" else 1.0
        d = span(name)["durations"]
        t = tail(d)
        m[f"{name}.p50_{unit}"] = (float(np.median(d)) * scale if d else 0.0, unit)
        m[f"{name}.tail_{unit}"] = (t[1] * scale if t else 0.0, unit)
    fits = (span("decompose.fit_single_factor"), span("ranksel.candidate"))
    m["decompose.iterations"] = (sum(s["extra"].get("iterations", 0) for s in fits), "count")
    m["decompose.nonconverged"] = (sum(s["extra"].get("nonconverged", 0) for s in fits), "count")
    cand = span("ranksel.candidate")
    chosen = sum(span(f"deflate.{scheme}")["extra"].get("ranksel_chosen", 0)
                 for scheme in ("hotelling", "projection", "schur"))
    m["ranksel.candidates"] = (cand["calls"], "count")
    m["ranksel.chosen"] = (chosen, "count")
    m["ranksel.candidate_failed"] = (cand["failed"], "count")
    m["ranksel.useful_ratio"] = (chosen / cand["calls"] if cand["calls"] else 0.0, "ratio")
    pool = span("parallel.ordered_map")["extra"]
    m["parallel.busy_frac"] = (pool["busy_s"] / pool["wall_x_workers_s"]
                               if pool.get("wall_x_workers_s") else 0.0, "ratio")
    m["parallel.queue_wait_s"] = (pool.get("queue_wait_s", 0.0), "s")
    m["trace.overhead_frac"] = (sum(traced_walls) / sum(plain_walls) - 1.0, "ratio")
    m["trace.coverage_min"] = (min((c for _, c in coverage), default=0.0), "ratio")
    return m


def same_bytes(plain: Path, traced: Path, plain_dir: Path, traced_dir: Path) -> bool:
    """Traced output equals the plain one once its own directory is renamed."""
    a, b = plain.read_bytes(), traced.read_bytes()
    return a == b.replace(str(traced_dir).encode(), str(plain_dir).encode())


def trace(workload, work, jobs_for, env, reference, deadline) -> tuple:
    plain_dir, traced_dir = work / "plain", work / "traced"
    plain_dir.mkdir(parents=True)
    traced_dir.mkdir(parents=True)
    records, plain, traced, summaries, coverage = [], [], [], [], []
    for pj, tj in zip(jobs_for(plain_dir), jobs_for(traced_dir)):
        p = judge(pj, run_process(cli_argv(pj), env, deadline), reference)
        summary_path = traced_dir / f"{tj.command}.spans.json"
        t = judge(tj, run_process(cli_argv(tj, summary_path), env, deadline), reference)
        if not failed(p) and not failed(t):
            for a, b in [(pj.output, tj.output), *zip(pj.extra_files, tj.extra_files)]:
                if not same_bytes(a, b, plain_dir, traced_dir):
                    t["problems"].append(f"traced {b.name} differs from the untraced output")
        records += [p, t]
        plain.append(p)
        traced.append(t)
        if summary_path.exists():
            s = json.loads(summary_path.read_text())
            summaries.append(s)
            coverage.append((tj.command, (s["root_s"] + s["import_s"]) / t["wall_s"]))
    merged = merge_summaries(summaries)
    metrics = layer_metrics(merged, summaries, coverage, [t["wall_s"] for t in traced],
                            [p["wall_s"] for p in plain])
    expected = expected_spans(workload.name)
    missing = [n for n, exp in expected.items() if exp and metrics[f"{n}.calls"][0] == 0]
    span_fits = metrics["decompose.fit_single_factor.calls"][0] + metrics["ranksel.candidates"][0]
    output_fits = sum(t["fits"] for t in traced)
    checks = {
        "traced outputs byte-identical to untraced": all(not failed(t) for t in traced),
        "every expected span has calls": not missing,
        f"spans + cli.import cover >= {COVERAGE_MIN:.0%} of each job": (
            not workload.single_threaded or all(c >= COVERAGE_MIN for _, c in coverage)),
        "fits counted by spans equal fits in the outputs": span_fits == output_fits,
        "every wrap target exists": not any(s["unwrapped"] for s in summaries),
    }
    counts = {name: span_fits if name == "fits" else metrics[name][0]
              for name in LAYERS["exact_counts"]}
    extra = {"merged": merged, "missing": missing, "coverage": coverage, "checks": checks,
             "counts": counts, "expected": expected, "reference_records": plain,
             "traced_wall_s": sum(t["wall_s"] for t in traced),
             "unwrapped": sorted({u for s in summaries for u in s["unwrapped"]})}
    return metrics, records, extra


# --- reporting --------------------------------------------------------------


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def print_layer_table(workload_name: str, metrics: dict, extra: dict) -> None:
    traced_wall = extra["traced_wall_s"]
    print(f"per-layer table ({workload_name}, traced wall {traced_wall:.3f} s)")
    print(f"  {'layer':<12} {'span':<30} {'calls':>8} {'self_s':>10} {'share':>7}")
    for layer in LAYERS["layers"]:
        for span in layer["spans"]:
            calls = metrics[f"{span}.calls"][0]
            if calls == 0:
                state = "missing" if extra["expected"][span] else "-"
                print(f"  {layer['layer']:<12} {span:<30} {state:>8}")
                continue
            self_s = metrics[f"{span}.self_s"][0]
            print(f"  {layer['layer']:<12} {span:<30} {calls:>8d} {self_s:>10.4f} "
                  f"{self_s / traced_wall:>7.1%}")
        for name in layer["extra"]:
            value, unit = metrics[name]
            note = ""
            if name.endswith((".tail_ms", ".tail_s")):
                durations = extra["merged"].get(name.rsplit(".", 1)[0], {}).get("durations", [])
                t = tail(durations)
                note = (f"  (p{t[0]:g} of {len(durations)} calls)" if t
                        else f"  (n/a: {len(durations)} calls, fewer than 20)")
            print(f"  {layer['layer']:<12} {name:<30} {value:>19.6g} {unit}{note}")
        print(f"  {'':<12} should move: {layer['should_move']}; no change: {layer['no_change']}")
    print("trace self-checks")
    for name, ok in extra["checks"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for command, cov in extra["coverage"]:
        print(f"  coverage {command:<12} {cov:.1%}")
    if extra["missing"]:
        print(f"  missing spans: {', '.join(extra['missing'])}")
    if extra["unwrapped"]:
        print(f"  wrap targets not found: {', '.join(extra['unwrapped'])}")


def record_reference(workload_name: str, seed: int, records: list) -> None:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref.setdefault(workload_name, {})[str(seed)] = {r["command"]: r["digest"] for r in records}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not Path("src/sstpca/cli.py").is_file():
        print("error: run from the root of an sstpca checkout (src/sstpca/cli.py not found)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    env = job_env()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "why": LAYERS["workloads"][workload.name], "env": environment(env)}
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reference = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(
            str(args.seed)) if REFERENCE.exists() else None
        jobs_for = workload.prepare(args.seed, work)
        if args.trace:
            metrics, records, extra = trace(workload, work, jobs_for, env, reference, deadline)
        else:
            metrics, records, extra = measure(work, jobs_for, env, args.seconds,
                                              reference, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The cold starts behind setup_s count as attempted operations too.
    attempted = len(records) + extra.get("setup_runs", 0)
    n_failed = sum(failed(r) for r in records) + extra.get("setup_failures", 0)
    count_key = (f"{workload.name}|seed {args.seed}|trace {args.trace}|"
                 f"{record['env']['src_sha256']}|{record['env']['perfbench_sha256']}")
    extra["count_changes"] = compare_counts(count_key, extra["counts"])
    record["env"]["loadavg_end"] = loadavg()
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  jobs=[{k: v for k, v in r.items() if k != "digest"} for r in records],
                  reference_recorded=reference is not None,
                  **{k: v for k, v in extra.items()
                     if k not in ("merged", "expected", "reference_records")})

    env_ = record["env"]
    print(f"workload {workload.name}, seed {args.seed}: {record['why']}")
    print(f"env: nproc={env_['nproc']} OPENBLAS_NUM_THREADS={env_['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={env_['OMP_NUM_THREADS']} SSTPCA_THREADS={env_['SSTPCA_THREADS']} "
          f"numpy {env_['numpy']} scipy {env_['scipy']} {env_['blas']} "
          f"commit {env_['git_commit'] or 'n/a'} src {env_['src_sha256'][:12]}")
    print(f"loadavg: start {env_['loadavg_start']} | end {env_['loadavg_end']}")
    for r in records:
        print(f"  job {r['command']:<12} {r['wall_s']:8.3f} s wall {r['cpu_s']:8.3f} s cpu "
              f"{r['rss_mb']:7.1f} MB exit {r['exit_code']} fits {r['fits']:4d} "
              f"{'FAILED: ' + '; '.join(r['problems']) if failed(r) else 'ok'}")
    if reference is None:
        print(f"reference: none recorded for seed {args.seed}; planted-truth checks only")
    if args.trace:
        print_layer_table(workload.name, metrics, extra)
    else:
        print_metrics(f"end-to-end metrics ({extra['lists']} job lists)", metrics)
        print_metrics("command metrics", extra["commands"])
    print(f"  {'failed_frac':<40} {n_failed / attempted:>14.6g} ratio")
    print(f"exact counts: {json.dumps(extra['counts'], sort_keys=True)}")
    for problem in extra.get("repeat_problems", []) + extra["count_changes"]:
        print(f"  COUNT DIFFERS: {problem}")

    correct = n_failed == 0
    if correct and args.record_reference:
        record_reference(workload.name, args.seed, extra["reference_records"])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # A terminated run still stops and reaps the job it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
