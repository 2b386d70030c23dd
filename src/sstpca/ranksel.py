"""Greedy per-factor rank selection by BIC.

The criterion is N ln(RSS / N) + k ln(N) with N the number of distinct
tensor entries (T * p(p+1)/2, counting each symmetric pair once) and
k = p r - r(r+1)/2 + T + 1 free parameters per factor. For each factor the
candidate rank minimizing BIC on the current residual is kept; selection
stops once no candidate beats the no-factor BIC of that residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import _blas_hold_for
from .decompose import Factor, FitOptions, fit_single_factor
from .deflate import SCHEMES, deflate
from .errors import DimensionMismatch, SSTPCAError
from .tensor import SemiSymTensor, factor_inner, trace_product


def distinct_rss(X) -> float:
    """Sum of squares over the T * p(p+1)/2 distinct entries."""
    data = X.data if isinstance(X, SemiSymTensor) else np.asarray(X)
    total = float(np.sum(data**2))
    diag = float(np.sum(np.einsum("iit->it", data) ** 2))
    return (total + diag) / 2.0


def candidate_rss(R: SemiSymTensor, rss_R: float, f: Factor) -> float:
    """distinct_rss(R - f.reconstruct()) given rss_R = distinct_rss(R).

    Expands the distinct-entry sum of squares of the difference, so only the
    trace-product and the slice diagonals of R are read and no p x p x T
    reconstruction is formed.
    """
    d, V, u = f.d, f.V, f.u
    vv = np.einsum("ij,ij->i", V, V)  # diag(V V')
    cross = u @ trace_product(R, V) + vv @ np.einsum("iit->it", R.data) @ u
    fit = factor_inner(d, V, u, d, V, u) + d * d * (vv @ vv) * (u @ u)
    return float(rss_R - d * cross + fit / 2.0)


def n_free_params(p: int, T: int, r: int) -> int:
    return p * r - r * (r + 1) // 2 + T + 1


def bic_value(rss: float, n_obs: int, n_params: int) -> float:
    if rss <= 0.0:
        return float("-inf")
    return n_obs * float(np.log(rss / n_obs)) + n_params * float(np.log(n_obs))


@dataclass
class RankSelectionStep:
    null_bic: float
    candidates: list = field(default_factory=list)  # (r, bic) pairs
    chosen_r: "int | None" = None
    failed: list = field(default_factory=list)  # (r, error class name) pairs
    capped: list = field(default_factory=list)  # candidate ranks whose fit hit max_iter


def rank_select_bic(
    X: SemiSymTensor,
    r_max: int,
    K_max: int,
    opts: FitOptions = FitOptions(),
    scheme: str = "hotelling",
) -> tuple[list, list]:
    """Greedy selection by BIC: (ranks, steps), one RankSelectionStep per step.

    `ranks` may be empty. A candidate rank whose fit raises an SSTPCAError is
    left out of the step's ``candidates`` and listed in its ``failed``; one
    whose fit hit ``opts.max_iter`` stays a candidate and is listed in ``capped``.
    At p <= 500 the whole selection runs with OpenBLAS held at one thread (see
    `_parallel`), so it does not depend on OPENBLAS_NUM_THREADS.
    """
    if r_max < 1 or r_max > X.p:
        raise DimensionMismatch(f"r_max={r_max} must lie in [1, {X.p}]")
    if K_max < 1:
        raise DimensionMismatch("K_max must be at least 1")
    if scheme not in SCHEMES:
        raise DimensionMismatch(f"unknown deflation scheme {scheme!r}")

    n_obs = X.T * X.p * (X.p + 1) // 2
    ranks: list[int] = []
    steps: list[RankSelectionStep] = []
    residual = X
    with _blas_hold_for(X.p):
        for _ in range(K_max):
            rss_residual = distinct_rss(residual)
            step = RankSelectionStep(null_bic=bic_value(rss_residual, n_obs, 0))
            best = None  # (bic, r, factor)
            for r in range(1, r_max + 1):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        factor, diag = fit_single_factor(residual, opts.with_rank(r))
                except SSTPCAError as e:
                    step.failed.append((r, type(e).__name__))
                    continue
                if not diag.converged:
                    step.capped.append(r)
                rss = candidate_rss(residual, rss_residual, factor)
                bic = bic_value(rss, n_obs, n_free_params(X.p, X.T, r))
                step.candidates.append((r, bic))
                if best is None or bic < best[0]:
                    best = (bic, r, factor)
            steps.append(step)
            if best is None or best[0] > step.null_bic:
                break
            step.chosen_r = best[1]
            ranks.append(best[1])
            residual = deflate(residual, best[2], scheme)
    return ranks, steps
