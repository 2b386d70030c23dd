"""Command-line surface.

Five subcommands: ``decompose``, ``changepoint``, ``simulate``,
``benchmark``, and ``rank-select``. Every command writes one canonical
JSON artifact (sorted keys, no timestamps); tabular side products go to
CSV. For a fixed seed and a fixed BLAS thread count (OPENBLAS_NUM_THREADS
and the like) the bytes are identical across runs; `_parallel` says when
they are the same at every BLAS thread count. ``benchmark`` and
``simulate --preset fig3`` run all their reps on one worker pool, and
``rank-select`` runs each step's candidate ranks on it.

All five commands run through one runner, `_command`, which owns the exit
codes: 0 success, 2 input error, 1 flagged non-convergence. Only
``decompose`` and ``changepoint`` report non-convergence; the other
commands exit 0 even when a fit inside them hits the iteration cap.

The ``config`` block of each artifact echoes exactly the options of the
command that ran, plus ``command``. The worker count comes from
``benchmark --threads``, else the SSTPCA_THREADS environment variable (a
value that is not a positive integer is an input error), else the number
of usable cores, and is not echoed: with a fixed BLAS thread count of 1
it never affects results.
"""

from __future__ import annotations

import sys
import warnings
from types import SimpleNamespace

import click
import numpy as np

from . import __version__
from ._parallel import _blas_hold_for, resolve_threads
from .changepoint import detect_changepoint, detection_snr
# perfbench/tracer.py wraps each calling module's fit_single_factor, this one's included.
from .decompose import FitOptions, fit_single_factor  # noqa: F401
from .deflate import SCHEMES, fit_multi
from .errors import InvalidParameter, ParseError, SSTPCAError
from .fileio import (
    SCHEMA_VERSION,
    factor_to_dict,
    load_tensor,
    write_csv,
    write_json,
    write_long_csv,
)
from .linalg import random_unit
from .ranksel import rank_select_bic
from .simulate import (
    U_MODES,
    SweepCell,
    _run_reps,
    rate_sweep,
    shift_model,
    spike_model,
    sweep_rows,
    write_sweep_csv,
)

# Comma-separated list options and the type of their elements.
_LIST_CASTS = {"ranks": int, "p_list": int, "r_list": int, "d_list": float}


def _payload(cfg: SimpleNamespace, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "command": cfg.command,
        "config": {k: v for k, v in vars(cfg).items() if k != "threads"},
        "seed": cfg.seed,
        "results": results,
    }


def _diag_dict(diag) -> dict:
    return {
        "iterations": diag.iterations,
        "converged": diag.converged,
        "objective": diag.objective,
        "u_change": diag.u_change,
    }


def _finite(x):
    # RSS is exactly zero on noiseless data and snr infinite at T = 1; keep the JSON strict.
    return float(x) if np.isfinite(x) else None


def _thresholded_network(factor, threshold: float) -> np.ndarray:
    W = factor.d * (factor.V @ factor.V.T)
    W[np.abs(W) < threshold] = 0.0
    return W.ravel(order="C")


def _parse_list(text: str, key: str) -> tuple:
    cast = _LIST_CASTS[key]
    try:
        return tuple(cast(x) for x in text.split(",") if x.strip())
    except ValueError as e:
        kind = "integers" if cast is int else "numbers"
        flag = "--" + key.replace("_", "-")
        raise ParseError(f"{flag}: expected comma-separated {kind}, got {text!r}") from e


@click.group()
@click.version_option(__version__)
def main():
    """Network-series tensor PCA toolkit."""


def _command(name: str, *options):
    """Register a subcommand whose config is its own click parameters.

    The decorated body receives ``cfg``, a namespace of the command name
    and its parsed options, and returns ``(results, problem)``. The runner
    silences library warnings, writes the canonical JSON, and owns the exit
    codes: 2 with the message on an SSTPCAError or on a path that cannot be
    written (CSV side products are written before the JSON, so a failed CSV
    write leaves no JSON), 1 after writing the results when ``problem`` is set.
    """

    def register(body):
        def run(**params):
            try:
                for key in _LIST_CASTS:  # dict order: --p-list is reported before --d-list
                    if key in params:
                        params[key] = _parse_list(params[key], key)
                cfg = SimpleNamespace(command=name, **params)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    results, problem = body(cfg)
                write_json(cfg.output, _payload(cfg, results))
            except (SSTPCAError, OSError) as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
            if problem:
                click.echo(f"warning: {problem}", err=True)
                sys.exit(1)

        run.__doc__ = body.__doc__
        for option in reversed(options):
            run = option(run)
        return main.command(name=name)(run)

    return register


_INPUT = click.option("--input", required=True, type=click.Path(exists=True),
                      help="A long-csv file or a slice-dir directory.")
_FIT_OPTIONS = (
    click.option("--seed", default=0, type=int),
    click.option("--tol", default=1e-8, type=float),
    click.option("--max-iter", default=200, type=int),
)
_OUTPUT = click.option("--output", required=True, type=click.Path())
_U_MODE = click.option("--u-mode", default="sphere", type=click.Choice(U_MODES))


@_command(
    "decompose",
    _INPUT,
    click.option("--ranks", default="1", help="Comma-separated factor ranks, e.g. '3' or '3,2'."),
    click.option("--scheme", default="hotelling", type=click.Choice(SCHEMES)),
    *_FIT_OPTIONS,
    click.option("--init", default="stable", type=click.Choice(["stable", "random"])),
    click.option("--eigen-scaled", is_flag=True, default=False),
    click.option("--edge-threshold", default=None, type=float,
                 help="If set, emit principal networks with |edges| below this zeroed."),
    _OUTPUT,
    click.option("--trace-csv", default=None, type=click.Path()),
)
def decompose(cfg: SimpleNamespace):
    """Fit a multi-factor decomposition to a tensor read from disk."""
    X = load_tensor(cfg.input)
    init = "stable" if cfg.init == "stable" else random_unit(X.T, np.random.default_rng(cfg.seed))
    opts = FitOptions(max_iter=cfg.max_iter, tol=cfg.tol, init=init, eigen_scaled=cfg.eigen_scaled)
    dec = fit_multi(X, cfg.ranks, cfg.scheme, opts)
    results = {
        "p": X.p,
        "T": X.T,
        "scheme": cfg.scheme,
        "factors": [factor_to_dict(f) for f in dec.factors],
        "diagnostics": [_diag_dict(d) for d in dec.diagnostics],
        "residual_norms": dec.residual_norms,
        "cpve": dec.cpve,
        "residual_ratios": dec.residual_ratios,
    }
    if cfg.edge_threshold is not None:
        results["principal_networks"] = [
            _thresholded_network(f, cfg.edge_threshold) for f in dec.factors
        ]
    write_csv(cfg.trace_csv, ["factor", "iteration", "objective", "u_change"], (
        [k, i + 1, repr(obj), repr(du)]
        for k, diag in enumerate(dec.diagnostics)
        for i, (obj, du) in enumerate(zip(diag.objective, diag.u_change))
    ))
    converged = all(d.converged for d in dec.diagnostics)
    return results, None if converged else "at least one factor did not converge"


@_command(
    "changepoint",
    _INPUT,
    click.option("--rank", default=1, type=int),
    *_FIT_OPTIONS,
    click.option("--edge-threshold", default=None, type=float),
    _OUTPUT,
    click.option("--cusum-csv", default=None, type=click.Path()),
)
def changepoint(cfg: SimpleNamespace):
    """Locate the most likely mean shift in a network series."""
    X = load_tensor(cfg.input)
    opts = FitOptions(max_iter=cfg.max_iter, tol=cfg.tol)
    res = detect_changepoint(X, cfg.rank, opts)
    results = {
        "p": X.p,
        "T": X.T,
        "rank": cfg.rank,
        "tau_hat": res.tau_hat,
        "score": res.score,
        "u_hat": res.u_hat,
        "factor": factor_to_dict(res.factor),
        "diagnostics": _diag_dict(res.diagnostics),
    }
    if cfg.edge_threshold is not None:
        results["principal_network"] = _thresholded_network(res.factor, cfg.edge_threshold)
    write_csv(cfg.cusum_csv, ["tau", "u_hat"],
              ([t, repr(float(val))] for t, val in enumerate(res.u_hat, start=1)))
    return results, None if res.diagnostics.converged else "fit did not converge"


def _simulate_spike(cfg: SimpleNamespace, rng: np.random.Generator) -> tuple:
    X, truth = spike_model(cfg.p, cfg.T, cfg.r, cfg.d, cfg.sigma, cfg.u_mode, rng)
    return X, {"d": truth.d, "sigma": truth.sigma, "snr": _finite(truth.snr),
               "u_star": truth.u_star, "V_star": truth.V_star.ravel(order="C")}


def _simulate_shift(cfg: SimpleNamespace, rng: np.random.Generator) -> tuple:
    tau = cfg.tau if cfg.tau is not None else cfg.T // 2
    X, V1, V2 = shift_model(cfg.p, cfg.T, cfg.r, cfg.d, cfg.sigma, tau, rng)
    snr = (detection_snr(cfg.d * (V1 @ V1.T), cfg.d * (V2 @ V2.T), tau, cfg.T, cfg.sigma)
           if cfg.sigma > 0 else None)
    return X, {"d": cfg.d, "sigma": cfg.sigma, "tau_star": tau, "detection_snr": snr,
               "V1": V1.ravel(order="C"), "V2": V2.ravel(order="C")}


def _simulate_fig3(cfg: SimpleNamespace) -> dict:
    """Computational-vs-statistical convergence traces at low SNR.

    Constant truth with a random positive-orthant start, informative but not
    an oracle; the reps run on SSTPCA_THREADS workers.
    """
    if cfg.seeds < 1:
        raise InvalidParameter(f"--seeds must be at least 1, got {cfg.seeds}")
    if not cfg.r_list or min(cfg.r_list) < 1:
        raise InvalidParameter(f"--r-list must hold ranks of at least 1, got {list(cfg.r_list)}")
    cells = [SweepCell(cfg.p, cfg.T, r, 15.0 * r ** (-0.25), cfg.sigma, "constant", "positive")
             for r in cfg.r_list]
    master = np.random.SeedSequence(cfg.seed)
    fits = _run_reps([(cell, child) for cell in cells for child in master.spawn(cfg.seeds)],
                     cfg.max_iter, cfg.tol, resolve_threads())
    rows = []
    summary = {}
    for i, cell in enumerate(cells):
        group = fits[i * cfg.seeds:(i + 1) * cfg.seeds]
        for s, fit in enumerate(group):
            for k, (armse_k, u_err_k) in enumerate(zip(fit.armses, fit.u_errs)):
                rows.append([cell.r, s, k + 1, repr(fit.diag.objective[k]), repr(armse_k),
                             repr(u_err_k)])
        summary[str(cell.r)] = {
            "d": cell.d,
            "frac_stat_by_8": sum(f.stat_iteration <= 8 for f in group) / cfg.seeds,
            "frac_comp_ge_15": sum(f.diag.iterations >= 15 for f in group) / cfg.seeds,
            "mean_final_armse": np.mean([f.armses[-1] for f in group]),
        }
    write_csv(cfg.csv_out, ["r", "seed", "iteration", "objective", "armse", "u_err"], rows)
    return {"per_rank": summary, "trace_csv": cfg.csv_out, "seeds": cfg.seeds}


# Presets that draw one instance: (X, results) from the seeded generator.
_INSTANCE_PRESETS = {"spike": _simulate_spike, "shift": _simulate_shift}


@_command(
    "simulate",
    click.option("--preset", required=True, type=click.Choice([*_INSTANCE_PRESETS, "fig3"])),
    click.option("--p", default=40, type=int),
    click.option("--t", "T", default=20, type=int),
    click.option("--r", default=1, type=int),
    click.option("--r-list", default="1,5", help="Ranks for the fig3 preset."),
    click.option("--d", default=3.0, type=float),
    click.option("--sigma", default=1.0, type=float),
    click.option("--tau", default=None, type=int, help="True shift index for the shift preset."),
    _U_MODE,
    click.option("--seeds", default=20, type=int, help="Replicates for the fig3 preset."),
    *_FIT_OPTIONS,
    click.option("--data-out", default=None, type=click.Path(),
                 help="Where to write the long-csv tensor."),
    click.option("--csv", "csv_out", default=None, type=click.Path()),
    _OUTPUT,
)
def simulate(cfg: SimpleNamespace):
    """Generate synthetic instances or convergence-trace experiments."""
    FitOptions(max_iter=cfg.max_iter, tol=cfg.tol)  # checks --max-iter and --tol for every preset
    if cfg.preset == "fig3":
        return _simulate_fig3(cfg), None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    # The fit policy's hold also spares the instance's first threaded LAPACK
    # call, which in a fresh process can stall for about 0.8 s.
    with _blas_hold_for(cfg.p):
        X, results = _INSTANCE_PRESETS[cfg.preset](cfg, rng)
    if cfg.data_out:
        write_long_csv(X, cfg.data_out)
    return {"p": cfg.p, "T": cfg.T, "r": cfg.r, "data_path": cfg.data_out, **results}, None


@_command(
    "benchmark",
    click.option("--p-list", default="20,40", help="Comma-separated node counts."),
    click.option("--t", "T", default=20, type=int),
    click.option("--r", default=1, type=int),
    click.option("--d-list", default="8,16", help="Comma-separated signal strengths."),
    click.option("--sigma", default=1.0, type=float),
    _U_MODE,
    click.option("--init", default="stable", type=click.Choice(["stable", "random", "oracle"])),
    click.option("--reps", default=10, type=int),
    click.option("--seed", default=0, type=int),
    click.option("--threads", default=None, type=int),
    click.option("--csv", "csv_out", default=None, type=click.Path()),
    _OUTPUT,
)
def benchmark(cfg: SimpleNamespace):
    """Recovery-error sweep over a (p, d) grid of spiked instances."""
    cells = [
        SweepCell(p=pp, T=cfg.T, r=cfg.r, d=dd, sigma=cfg.sigma, u_mode=cfg.u_mode, init=cfg.init)
        for pp in cfg.p_list
        for dd in cfg.d_list
    ]
    results = rate_sweep(cells, reps=cfg.reps, seed=cfg.seed,
                         n_threads=resolve_threads(cfg.threads))
    write_sweep_csv(results, cfg.csv_out)
    return {"rows": sweep_rows(results)}, None


@_command(
    "rank-select",
    _INPUT,
    click.option("--r-max", default=5, type=int),
    click.option("--k-max", default=3, type=int),
    click.option("--scheme", default="hotelling", type=click.Choice(SCHEMES)),
    *_FIT_OPTIONS,
    _OUTPUT,
)
def rank_select(cfg: SimpleNamespace):
    """Choose factor ranks greedily by BIC."""
    X = load_tensor(cfg.input)
    opts = FitOptions(max_iter=cfg.max_iter, tol=cfg.tol)
    ranks, steps = rank_select_bic(X, cfg.r_max, cfg.k_max, opts, cfg.scheme)
    results = {
        "p": X.p,
        "T": X.T,
        "ranks": ranks,
        "steps": [
            {
                "null_bic": _finite(step.null_bic),
                "candidates": [[r, _finite(bic)] for r, bic in step.candidates],
                "chosen_r": step.chosen_r,
                "failed": [[r, name] for r, name in step.failed],
                "capped": step.capped,
            }
            for step in steps
        ],
    }
    return results, None


if __name__ == "__main__":
    main()
