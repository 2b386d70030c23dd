"""The benchmark's layer table times module-level names from outside the
package; renaming or dropping one of them silently empties its row."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from sstpca import decompose
from sstpca.decompose import FitOptions, fit_single_factor
from sstpca.simulate import spike_model

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_exists(tmp_path):
    summary = tmp_path / "s.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(summary), "--version"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    assert json.loads(summary.read_text())["unwrapped"] == []


def test_fit_calls_each_traced_step_once_per_iteration(monkeypatch):
    """The layer table reads the fit loop's steps through these names: a fit of n
    iterations calls eigh, ttv3 and trace_product n times each and the V-change
    test, sin_theta_frob, once per iteration after the first."""
    X, _ = spike_model(30, 8, 2, 10.0, 1.0, "sphere", np.random.default_rng(0))
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigh")
    for name in ("ttv3", "trace_product", "sin_theta_frob"):
        count(decompose, name)
    _, diag = fit_single_factor(X, FitOptions(rank=2))
    n = diag.iterations
    assert diag.converged and n > 1
    assert calls == {"eigh": n, "ttv3": n, "trace_product": n, "sin_theta_frob": n - 1}
