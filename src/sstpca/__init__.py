"""Tensor PCA for collections of undirected networks on a shared node set.

Core objects: SemiSymTensor (a stack of symmetric matrices), Factor (one
fitted component), and Decomposition (greedily deflated multi-factor fit).
Also provided: CUSUM changepoint detection, matrix-PCA/HOSVD baselines,
and a seeded simulation harness.
"""

__version__ = "0.1.0"

# First, so that its OpenBLAS idle policy is in the environment before numpy loads.
from . import _parallel  # noqa: F401

from .baselines import hosvd, matricized_pca, truncated_matricized_pca
from .changepoint import ChangepointResult, cusum_tensor, detect_changepoint
from .decompose import (
    Factor,
    FitDiagnostics,
    FitOptions,
    fit_adversarial,
    fit_single_factor,
    init_u,
    u_update,
    v_update,
)
from .deflate import (
    Decomposition,
    OrthogonalityReport,
    deflate,
    fit_multi,
    orthogonality_report,
)
from .linalg import (
    normalize,
    principal_angles,
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
    sin_theta_frob,
    subspace_angle,
    sym_eigen_top_r,
)
from .ranksel import rank_select_bic
from .simulate import (
    SpikeTruth,
    SweepCell,
    rate_sweep,
    rdpg_dirichlet_series,
    sbm_series,
    shift_model,
    spike_model,
)
from .tensor import (
    SemiSymTensor,
    frob_inner,
    frob_norm,
    matricize_upper,
    new_from_slices,
    rank1_outer,
    ropnorm_sampled_lower,
    ropnorm_upper_bound,
    trace_product,
    ttm,
    ttv3,
    unuvec,
    uvec,
)
