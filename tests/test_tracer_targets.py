"""The benchmark's layer table times module-level names from outside the
package; renaming or dropping one of them silently empties its row."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from sstpca import decompose, linalg
from sstpca._parallel import ONE_BLAS_THREAD_MAX_P
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


def count_calls(monkeypatch, targets) -> Counter:
    """Counts the calls of each (module, name) by name."""
    calls = Counter()
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


# The fit's named steps: the eigensolver, the V-step, the u-step and the stop test's V distance.
FIT_STEPS = [(linalg, "eigh"), (decompose, "_best_eigen_block"), (decompose, "_loading"),
             (decompose, "_v_change")]


def fit_step_counts(n: int) -> dict:
    """Each step once per iteration; `_v_change`'s first call has no previous basis."""
    return {"eigh": n, "_best_eigen_block": n, "_loading": n, "_v_change": n}


def test_fit_calls_each_traced_step_once_per_iteration(monkeypatch):
    """The layer table reads the fit loop's steps through these names: a fit of n
    iterations calls eigh, ttv3 and trace_product n times each and the V-change
    test, sin_theta_frob, once per iteration after the first. It also calls each
    of the fit's named steps once per iteration."""
    X, _ = spike_model(30, 8, 2, 10.0, 1.0, "sphere", np.random.default_rng(0))
    calls = count_calls(monkeypatch, [(np.linalg, "eigh")] + [
        (decompose, name) for name in ("ttv3", "trace_product", "sin_theta_frob")])
    steps = count_calls(monkeypatch, FIT_STEPS)
    _, diag = fit_single_factor(X, FitOptions(rank=2))
    n = diag.iterations
    assert diag.converged and n > 1
    assert calls == {"eigh": n, "ttv3": n, "trace_product": n, "sin_theta_frob": n - 1}
    assert steps == fit_step_counts(n)


def test_fit_above_p500_calls_its_named_steps(monkeypatch):
    """Above p = 500 the V-step solves in place: `linalg.eigh` counts every
    eigensolve and `numpy.linalg.eigh` none, where a dsyevd is found."""
    X, _ = spike_model(ONE_BLAS_THREAD_MAX_P + 1, 4, 2, 30.0, 1.0, "sphere",
                       np.random.default_rng(7))
    numpy_eigh = count_calls(monkeypatch, [(np.linalg, "eigh")])
    steps = count_calls(monkeypatch, FIT_STEPS)
    _, diag = fit_single_factor(X, FitOptions(rank=2))
    n = diag.iterations
    assert diag.converged and n > 1
    assert steps == fit_step_counts(n)
    assert numpy_eigh["eigh"] == (0 if linalg._dsyevd() is not None else n)
