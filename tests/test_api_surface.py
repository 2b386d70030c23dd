"""Pins the public API: a new export, FitOptions or FitDiagnostics field, fit parameter or
CLI option has to show up here."""

import dataclasses
import inspect

import sstpca
from sstpca import FitDiagnostics, FitOptions
from sstpca.cli import main
from sstpca.fileio import load_tensor

PUBLIC = {
    "ChangepointResult", "Decomposition", "Factor", "FitDiagnostics", "FitOptions",
    "OrthogonalityReport", "SemiSymTensor", "SpikeTruth", "SweepCell",
    "cusum_tensor", "deflate", "detect_changepoint", "fit_adversarial", "fit_multi",
    "fit_single_factor", "frob_inner", "frob_norm", "hosvd", "init_u", "matricize_upper",
    "matricized_pca", "new_from_slices", "normalize", "orthogonality_report",
    "principal_angles", "procrustes_aligned_rmse", "random_stiefel", "random_unit",
    "rank1_outer", "rank_select_bic", "rate_sweep", "rdpg_dirichlet_series", "sbm_series",
    "ropnorm_sampled_lower", "ropnorm_upper_bound", "sign_aligned_error", "sin_theta_frob",
    "shift_model", "spike_model", "subspace_angle", "sym_eigen_top_r", "trace_product",
    "truncated_matricized_pca", "ttm", "ttv3", "u_update", "unuvec", "uvec", "v_update",
}


def test_public_names():
    names = {n for n, v in vars(sstpca).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC


def test_fit_options_fields():
    assert [f.name for f in dataclasses.fields(FitOptions)] == [
        "rank", "max_iter", "tol", "init", "eigen_scaled", "smoother"]


def test_fit_diagnostics_fields():
    # Numbers only: an array-valued field, such as a list of iterates, shows up here.
    assert [(f.name, f.type) for f in dataclasses.fields(FitDiagnostics)] == [
        ("iterations", "int"), ("objective", "list"), ("u_change", "list"),
        ("converged", "bool")]


def test_fit_signatures():
    # A private keyword option of a fit would show up here.
    params = inspect.signature(sstpca.fit_single_factor).parameters
    assert [(name, p.kind, p.default) for name, p in params.items()] == [
        ("X", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("opts", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("observe", inspect.Parameter.KEYWORD_ONLY, None)]
    assert list(inspect.signature(sstpca.fit_adversarial).parameters) == [
        "X_signal", "opts", "noise_budget", "adversary"]


def test_cli_options():
    fit = ["--seed", "--tol", "--max-iter"]
    assert {name: [o for p in command.params for o in p.opts]
            for name, command in main.commands.items()} == {
        "decompose": ["--input", "--ranks", "--scheme", *fit, "--init", "--eigen-scaled",
                      "--edge-threshold", "--output", "--trace-csv"],
        "changepoint": ["--input", "--rank", *fit, "--edge-threshold", "--output",
                        "--cusum-csv"],
        "simulate": ["--preset", "--p", "--t", "--r", "--r-list", "--d", "--sigma", "--tau",
                     "--u-mode", "--seeds", *fit, "--data-out", "--csv", "--output"],
        "benchmark": ["--p-list", "--t", "--r", "--d-list", "--sigma", "--u-mode", "--init",
                      "--reps", "--seed", "--threads", "--csv", "--output"],
        "rank-select": ["--input", "--r-max", "--k-max", "--scheme", *fit, "--output"],
    }


def test_load_tensor_signature():
    # The path alone picks the reader.
    assert list(inspect.signature(load_tensor).parameters) == ["path"]
