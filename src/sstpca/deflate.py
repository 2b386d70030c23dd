"""Multi-factor decomposition via successive deflation.

Three deflation schemes with different orthogonality guarantees:

  hotelling   subtract the fitted component; two-way orthogonality only
  projection  project the component out of all three modes; adds one-way
              orthogonality in both u and V
  schur       slicewise Schur complement against V, then project out u;
              additionally keeps later residuals orthogonal to earlier V

Residual norms never increase under hotelling/projection; schur shares the
guarantee only while every residual slice stays positive semi-definite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import _blas_hold_for
from .decompose import Factor, FitOptions, fit_single_factor
from .errors import DimensionMismatch, NonFiniteEntry, SingularSchurBlock, SSTPCAError
from .linalg import _check_rank, sym
from .tensor import SemiSymTensor, _add_rank1, frob_norm, trace_product, ttm, ttv3
from .tensor import new_from_slices  # noqa: F401  (perfbench times deflate.new_from_slices)

SCHEMES = ("hotelling", "projection", "schur")
SCHUR_COND_LIMIT = 1e12
PSD_TOL = 1e-10  # relative to max(1, ||X||), for slices_all_psd


@dataclass
class Decomposition:
    """Ordered factors plus the per-step residual bookkeeping.

    residual_norms[k] is the Frobenius norm of the residual before fitting
    factor k (so it has K+1 entries). residual_ratios[k] is
    ||X^{k+1}||^2 / ||X||^2 and cpve[k] the explained fraction 1 minus that;
    both conventions appear in reports.
    """

    factors: list = field(default_factory=list)
    scheme: str = "hotelling"
    residual_norms: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def residual_ratios(self) -> list:
        total = self.residual_norms[0] ** 2
        if total == 0:
            return [0.0 for _ in self.residual_norms[1:]]
        return [n**2 / total for n in self.residual_norms[1:]]

    @property
    def cpve(self) -> list:
        return [1.0 - x for x in self.residual_ratios]


@dataclass(frozen=True)
class OrthogonalityReport:
    """Residual alignment with a removed factor; all entries nonnegative.

    two_way is |<X_next, V o V o u>|; u_one_way is the Frobenius norm of
    the u-weighted slice sum; v_one_way_* are the norms of the mode-1 and
    mode-2 products with V.
    """

    two_way: float
    u_one_way: float
    v_one_way_mode1: float
    v_one_way_mode2: float


def _check_scheme(scheme: str) -> None:
    """Raise DimensionMismatch unless `scheme` is one of SCHEMES."""
    if scheme not in SCHEMES:
        raise DimensionMismatch(f"unknown deflation scheme {scheme!r}")


def _check_factor_dims(X: SemiSymTensor, f: Factor) -> None:
    if f.V.shape[0] != X.p:
        raise DimensionMismatch(f"factor V has {f.V.shape[0]} rows, tensor has p={X.p}")
    if f.u.shape[0] != X.T:
        raise DimensionMismatch(f"factor u has length {f.u.shape[0]}, tensor has T={X.T}")


def deflate(X: SemiSymTensor, f: Factor, scheme: str) -> SemiSymTensor:
    """Remove a fitted factor from X under the given scheme."""
    _check_factor_dims(X, f)
    if not (np.isfinite(f.d) and np.isfinite(f.u).all() and np.isfinite(f.V).all()):
        raise NonFiniteEntry("factor contains NaN or infinite entries")
    _check_scheme(scheme)
    if scheme == "hotelling":
        out = _add_rank1(X.data.copy(), -f.d, f.V, f.u)
    else:
        V = f.V
        slices = np.moveaxis(X.data, 2, 0)
        XV = slices @ V
        if scheme == "projection":
            # With P = I - VV' and symmetric X_t, P X_t P = X_t - V (X_t V)' - (P X_t V) V',
            # which costs O(p^2 r) per slice instead of the O(p^3) of dense products.
            PXV = XV - V @ (V.T @ XV)
            res = slices - V @ np.swapaxes(XV, 1, 2)
            res -= PXV @ V.T
        else:
            # X_t - X_t V (V' X_t V)^{-1} V' X_t, with all T blocks V' X_t V at once.
            blocks = V.T @ XV
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(blocks)
            bad = np.flatnonzero(~np.isfinite(cond) | (cond >= SCHUR_COND_LIMIT))
            if bad.size:
                raise SingularSchurBlock(int(bad[0]), cond=float(cond[bad[0]]))
            res = slices - XV @ np.linalg.solve(blocks, np.swapaxes(XV, 1, 2))
        # Then (I - uu') along the slice mode, in place on the first subtraction's
        # array (C-ordered (T, p, p), which fixes the bits of the tensordot).
        res -= f.u[:, None, None] * np.tensordot(f.u, res, axes=1)
        # Symmetrize into C order: einsum sums in memory order, so a (T, p, p)-major
        # residual would change later fits in the last bits.
        out = sym(np.moveaxis(res, 0, 2), out=np.empty_like(X.data))
    # For a finite factor every scheme's residual is exactly symmetric.
    return SemiSymTensor._trusted(out)


def orthogonality_report(X_next: SemiSymTensor, f: Factor) -> OrthogonalityReport:
    """Measure how much of a removed factor survives in the residual."""
    _check_factor_dims(X_next, f)
    two_way = abs(float(trace_product(X_next, f.V) @ f.u))
    u_one_way = float(np.linalg.norm(ttv3(X_next, f.u)))
    v1 = float(np.linalg.norm(ttm(X_next, f.V, 1)))
    v2 = float(np.linalg.norm(ttm(X_next, f.V, 2)))
    return OrthogonalityReport(two_way, u_one_way, v1, v2)


def slices_all_psd(X: SemiSymTensor) -> bool:
    stacked = np.moveaxis(X.data, 2, 0)
    return bool(np.linalg.eigvalsh(stacked).min() >= -PSD_TOL * max(1.0, frob_norm(X)))


def fit_multi(
    X: SemiSymTensor, ranks, scheme: str = "hotelling", opts: FitOptions = FitOptions()
) -> Decomposition:
    """Fit K factors greedily, deflating between fits; all options are checked first,
    each rank against p included.

    At p <= 500 the whole loop runs with OpenBLAS held at one thread (see
    `_parallel`), so the decomposition does not depend on OPENBLAS_NUM_THREADS.
    """
    _check_scheme(scheme)
    per_factor = [replace(opts, rank=r) for r in ranks]
    if not per_factor:
        raise DimensionMismatch("need at least one rank")
    for k, factor_opts in enumerate(per_factor):
        _check_rank(factor_opts.rank, X.p, f"factor {k}: rank")

    with _blas_hold_for(X.p):
        dec = Decomposition(scheme=scheme, residual_norms=[frob_norm(X)])
        residual = X
        for k, factor_opts in enumerate(per_factor):
            if scheme == "schur" and not slices_all_psd(residual):
                warnings.warn(
                    f"residual before factor {k} is not slicewise PSD; "
                    "Schur deflation may increase the residual norm",
                    stacklevel=2,
                )
            try:
                factor, diag = fit_single_factor(residual, factor_opts)
                residual = deflate(residual, factor, scheme)
            except SSTPCAError as e:
                e.args = (f"factor {k}: {e}",)
                raise
            dec.factors.append(factor)
            dec.diagnostics.append(diag)
            dec.residual_norms.append(frob_norm(residual))

    scales = [f.d for f in dec.factors]
    if any(b > a for a, b in zip(scales, scales[1:])):
        warnings.warn("fitted scales are not monotone decreasing", stacklevel=2)
    return dec


def reconstruct(dec: Decomposition, p: int, T: int) -> SemiSymTensor:
    """Sum of all fitted components as a tensor."""
    acc = np.zeros((p, p, T))
    for f in dec.factors:
        _add_rank1(acc, f.d, f.V, f.u)
    return SemiSymTensor._trusted(acc)
