"""CUSUM tensor construction and changepoint localization.

A mean shift in a slice series concentrates in the standardized
cumulative-sum tensor; fitting a single factor to that tensor yields a
loading vector whose largest-magnitude entry marks the shift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._parallel import _blas_hold_for
from .decompose import Factor, FitDiagnostics, FitOptions, fit_single_factor
from .errors import DegenerateSeries, TooFewSlices
from .linalg import _check_rank, sym
from .tensor import SemiSymTensor, frob_norm


@dataclass(frozen=True)
class ChangepointResult:
    u_hat: np.ndarray  # length T-1
    tau_hat: int  # 1-based: change between slices tau_hat and tau_hat + 1
    factor: Factor
    score: float  # |u_hat[tau_hat]|
    diagnostics: FitDiagnostics = None


def cusum_tensor(X: SemiSymTensor) -> SemiSymTensor:
    """Standardized cumulative-sum tensor, shape (p, p, T-1).

    C_t = sqrt(T / (t (T - t))) * (S_t - (t / T) S_T) with S_t the prefix
    sum over slices, which vanishes on constant series.
    """
    if X.T < 2:
        raise TooFewSlices(f"need at least 2 slices, got T={X.T}")
    T = X.T
    t = np.arange(1, T, dtype=np.float64)
    w = np.sqrt(T / (t * (T - t)))
    # Centering on the first slice leaves the value unchanged but makes
    # the cancellation on constant series exact in floating point.
    centered = X.data - X.data[:, :, :1]
    prefix = np.cumsum(centered, axis=2)
    inner = prefix[:, :, :-1] - (t / T)[None, None, :] * prefix[:, :, -1:]
    # Every step is elementwise on exactly symmetric slices.
    return SemiSymTensor._trusted(w[None, None, :] * inner)


def detect_changepoint(
    X: SemiSymTensor, r: int, opts: FitOptions = FitOptions()
) -> ChangepointResult:
    """Locate the most likely single mean shift in a slice series; the options,
    the rank against p included, are checked first, and from the CUSUM tensor
    on, every BLAS call runs under the fit's hold (`_parallel`)."""
    fit_opts = replace(opts, rank=r)
    _check_rank(r, X.p)
    if X.T < 3:
        raise TooFewSlices(f"need at least 3 slices, got T={X.T}")
    with _blas_hold_for(X.p):
        C = cusum_tensor(X)
        if frob_norm(C) < 1e-12 * frob_norm(X):
            raise DegenerateSeries("cumulative-sum tensor is numerically zero")
        factor, diag = fit_single_factor(C, fit_opts)
    scores = np.abs(factor.u)
    tau_hat = int(np.argmax(scores)) + 1  # argmax takes the earliest tie
    return ChangepointResult(
        u_hat=factor.u,
        tau_hat=tau_hat,
        factor=factor,
        score=float(scores[tau_hat - 1]),
        diagnostics=diag,
    )


def detection_snr(
    mean_before: np.ndarray, mean_after: np.ndarray, tau_star: int, T: int, sigma: float
) -> float:
    """Diagnostic effective signal-to-noise of a known mean shift.

    Operator norm of the mean difference times the square root of the
    shorter segment, over the noise scale. Reported alongside simulated
    ground truth; never asserted as a bound.
    """
    diff = sym(np.asarray(mean_before, dtype=np.float64) - np.asarray(mean_after, dtype=np.float64))
    opnorm = float(np.abs(np.linalg.eigvalsh(diff)).max())
    return opnorm * np.sqrt(min(tau_star, T - tau_star)) / sigma
