"""Pins the public API: a new export or FitOptions field has to show up here."""

import dataclasses
import inspect

import sstpca
from sstpca import FitOptions

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


def test_fit_signatures():
    # A private keyword option of a fit would show up here.
    assert list(inspect.signature(sstpca.fit_single_factor).parameters) == ["X", "opts"]
    assert list(inspect.signature(sstpca.fit_adversarial).parameters) == [
        "X_signal", "opts", "noise_budget", "adversary"]
