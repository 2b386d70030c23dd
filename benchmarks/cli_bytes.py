"""Compare the CLI outputs of two source trees byte for byte.

    python benchmarks/cli_bytes.py PARENT_SRC CHANGE_SRC [--work DIR] [--only NAME]

PARENT_SRC and CHANGE_SRC are ``src`` directories holding an ``sstpca``
package, for example ``src`` of this checkout and ``src`` of an older one
unpacked with ``git archive``. Every job runs as ``python -m sstpca.cli``
under each tree with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 (the
bytes of this CLI are fixed only for a fixed BLAS thread count) and
SSTPCA_THREADS unset, except where a matrix job sets its own variables
(``MATRIX_ENV``) on both trees.

The jobs are the seed-0 job lists of every workload in
``perfbench/workloads.py`` (imported, not copied; the inputs are written
once and shared) plus a matrix of smaller commands covering every preset,
every deflation scheme and the side CSVs. The matrix runs in order in one
directory per tree, so later commands read the files earlier ones wrote.

One line per output file: SAME or DIFF, the exit codes of both trees, the
job and the file ("not written" when neither tree wrote it). Paths are
normalized before comparing. Where the stderr of a job differs, both are
printed. The exit status is 0 when every output and every exit code is the
same, else 1. The whole check takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SEED = 0
SPIKE = ["--p", "30", "--t", "10", "--r", "2", "--d", "12", "--sigma", "0.5", "--seed", "4"]
SHIFT = ["--p", "20", "--t", "12", "--r", "1", "--d", "8", "--sigma", "0.5", "--seed", "5"]
SWEEP = ["--p-list", "20,40", "--t", "12", "--d-list", "10,20", "--reps", "4", "--seed", "2"]

FIG3 = ["simulate", "--preset", "fig3", "--p", "20", "--t", "10", "--r-list", "1,3",
        "--seeds", "3"]

# (name, argv, files written besides the JSON); "{dir}" is the tree's matrix
# directory, and each job writes its JSON to "{dir}/<name>.json".
MATRIX = [
    ("spike", ["simulate", "--preset", "spike", *SPIKE, "--data-out", "{dir}/spike.csv"],
     ["spike.csv"]),
    ("shift", ["simulate", "--preset", "shift", *SHIFT, "--data-out", "{dir}/shift.csv"],
     ["shift.csv"]),
    ("fig3", [*FIG3, "--csv", "{dir}/fig3.csv"], ["fig3.csv"]),
    ("fig3-threads-2", [*FIG3, "--csv", "{dir}/fig3-threads-2.csv"], ["fig3-threads-2.csv"]),
    *[(f"decompose-{scheme}",
       ["decompose", "--input", "{dir}/spike.csv", "--ranks", "2,1", "--scheme", scheme,
        "--edge-threshold", "0.05", "--trace-csv", f"{{dir}}/trace-{scheme}.csv"],
       [f"trace-{scheme}.csv"])
      for scheme in ("hotelling", "projection", "schur")],
    ("decompose-eigen-scaled", ["decompose", "--input", "{dir}/spike.csv", "--ranks", "2,1",
                                "--eigen-scaled"], []),
    ("decompose-random", ["decompose", "--input", "{dir}/spike.csv", "--ranks", "2",
                          "--init", "random", "--seed", "7"], []),
    ("decompose-capped", ["decompose", "--input", "{dir}/spike.csv", "--ranks", "2,2",
                          "--max-iter", "2"], []),
    ("changepoint", ["changepoint", "--input", "{dir}/shift.csv", "--edge-threshold", "0.1",
                     "--cusum-csv", "{dir}/cusum.csv"], ["cusum.csv"]),
    ("rank-select", ["rank-select", "--input", "{dir}/spike.csv", "--r-max", "3",
                     "--k-max", "3"], []),
    ("rank-select-schur", ["rank-select", "--input", "{dir}/spike.csv", "--r-max", "3",
                           "--scheme", "schur"], []),
    ("rank-select-max-iter-1", ["rank-select", "--input", "{dir}/spike.csv", "--r-max", "3",
                                "--max-iter", "1"], []),
    ("rank-select-threads-2", ["rank-select", "--input", "{dir}/spike.csv", "--r-max", "3",
                               "--k-max", "3"], []),
    ("benchmark-threads-2", ["benchmark", *SWEEP, "--threads", "2",
                             "--csv", "{dir}/sweep.csv"], ["sweep.csv"]),
    ("benchmark-oracle", ["benchmark", *SWEEP, "--init", "oracle", "--u-mode", "positive"], []),
    # Fit-control and model-parameter errors: exit 2 and no JSON.
    ("error-tol-0", ["decompose", "--input", "{dir}/spike.csv", "--tol", "0"], []),
    ("error-max-iter-0", ["changepoint", "--input", "{dir}/shift.csv", "--max-iter", "0"], []),
    ("error-rank-0", ["decompose", "--input", "{dir}/spike.csv", "--ranks", "2,0"], []),
    ("error-spike-tol-0", ["simulate", "--preset", "spike", "--tol", "0"], []),
    *[(f"error-{preset}-r-0", ["simulate", "--preset", preset, "--r", "0"], [])
      for preset in ("spike", "shift")],
    ("error-shift-t-0", ["simulate", "--preset", "shift", "--t", "0"], []),
    ("error-shift-p-0", ["simulate", "--preset", "shift", "--p", "0"], []),
    ("error-rank-too-large", ["decompose", "--input", "{dir}/spike.csv", "--ranks", "31"], []),
    # d or sigma so large that the instance overflows: exit 2 and no data file.
    ("error-spike-overflow", ["simulate", "--preset", "spike", "--p", "2", "--t", "3", "--r", "2",
                              "--d", "1.5e308", "--sigma", "0",
                              "--data-out", "{dir}/spike-overflow.csv"], ["spike-overflow.csv"]),
    ("error-shift-overflow", ["simulate", "--preset", "shift", "--p", "3", "--t", "4",
                              "--sigma", "1e308", "--data-out", "{dir}/shift-overflow.csv"],
     ["shift-overflow.csv"]),
    # An all-zero input: the fits exit 2, rank-select lists its failed candidates.
    ("zero", ["simulate", "--preset", "spike", "--d", "0", "--sigma", "0",
              "--data-out", "{dir}/zero.csv"], ["zero.csv"]),
    ("error-decompose-zero", ["decompose", "--input", "{dir}/zero.csv"], []),
    ("error-changepoint-zero", ["changepoint", "--input", "{dir}/zero.csv"], []),
    ("rank-select-zero", ["rank-select", "--input", "{dir}/zero.csv"], []),
]

# Environment variables a matrix job sets on both trees, by job name.
MATRIX_ENV = {"fig3-threads-2": {"SSTPCA_THREADS": "2"},
              "rank-select-threads-2": {"SSTPCA_THREADS": "2"}}


def env_for(src: Path, extra: "dict | None" = None) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("SSTPCA_THREADS", None)
    env.update(extra or {})
    return env


def run(argv: list, src: Path, extra_env: "dict | None" = None) -> tuple:
    """(exit code, stderr) of one CLI process under the tree `src`."""
    proc = subprocess.run([sys.executable, "-m", "sstpca.cli", *argv],
                          env=env_for(src, extra_env), capture_output=True)
    return proc.returncode, proc.stderr


def normalized(data: "bytes | None", roots: list) -> "bytes | None":
    """`data` with each (directory, label) pair's directory replaced by its label."""
    for root, label in roots if data is not None else ():
        data = data.replace(str(root).encode(), label.encode())
    return data


def compare(name: str, runs: list, files: list) -> bool:
    """Print one line per output file.

    `runs` holds (exit code, stderr, roots) per tree, `files` the pairs of
    paths one output takes in the two trees. True when everything agrees.
    """
    (code_a, err_a, roots_a), (code_b, err_b, roots_b) = runs
    ok = True
    for path_a, path_b in files:
        a = normalized(path_a.read_bytes() if path_a.exists() else None, roots_a)
        b = normalized(path_b.read_bytes() if path_b.exists() else None, roots_b)
        same = code_a == code_b and a == b
        ok &= same
        note = " (not written)" if a is None and b is None else ""
        print(f"{'SAME' if same else 'DIFF'}  exit {code_a}/{code_b}  {name}: {path_a.name}{note}")
    err_a, err_b = normalized(err_a, roots_a), normalized(err_b, roots_b)
    if err_a != err_b:
        print(f"      stderr parent: {err_a.decode(errors='replace').strip()[-300:]!r}")
        print(f"      stderr change: {err_b.decode(errors='replace').strip()[-300:]!r}")
    return ok


def workload_jobs(work: Path, trees: dict, only: "str | None") -> bool:
    ok = True
    for wname, workload in WORKLOADS.items():
        if only and only != wname:
            continue
        inputs = work / wname / "inputs"
        inputs.mkdir(parents=True)
        jobs_for = workload.prepare(SEED, inputs)
        side_jobs = {}
        for side in trees:
            out = work / wname / side
            out.mkdir()
            side_jobs[side] = (out, jobs_for(out))
        for k in range(len(side_jobs["parent"][1])):
            runs, paths = [], []
            for side, src in trees.items():
                out, jobs = side_jobs[side]
                job = jobs[k]
                code, err = run(job.argv, src)
                runs.append((code, err, [(out, "<out>"), (inputs, "<in>")]))
                paths.append([job.output, *job.extra_files])
            ok &= compare(f"{wname}/{jobs[k].command}", runs, list(zip(*paths)))
    return ok


def matrix_jobs(work: Path, trees: dict) -> bool:
    ok = True
    dirs = {side: work / "matrix" / side for side in trees}
    for d in dirs.values():
        d.mkdir(parents=True)
    for name, argv, extra in MATRIX:
        runs, paths = [], []
        for side, src in trees.items():
            d = dirs[side]
            args = [a.replace("{dir}", str(d)) for a in argv]
            code, err = run([*args, "--output", str(d / f"{name}.json")], src,
                            MATRIX_ENV.get(name))
            runs.append((code, err, [(d, "<dir>")]))
            paths.append([d / f"{name}.json", *(d / f for f in extra)])
        ok &= compare(f"matrix/{name}", runs, list(zip(*paths)))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs (default: a temporary one)")
    parser.add_argument("--only", default=None, choices=["matrix", *WORKLOADS],
                        help="run only the matrix or only this perfbench workload")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for src in trees.values():
        if not (src / "sstpca" / "cli.py").is_file():
            parser.error(f"{src} holds no sstpca package")
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        ok = True
        if args.only in (None, "matrix"):
            ok &= matrix_jobs(work, trees)
        if args.only != "matrix":
            ok &= workload_jobs(work, trees, args.only)
    print("ALL SAME" if ok else "SOME DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
