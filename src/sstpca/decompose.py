"""Single-factor alternating fit, its variants, and initialization schemes.

The fit alternates two closed-form block updates: the network basis V is
the r-dimensional eigenblock of the u-weighted slice sum with the largest
absolute trace, and the loading u is the normalized trace-product. With
the plain updates both half-steps globally solve their block problem, so
the objective <X, V o V o u> never decreases across iterations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import _blas_hold_for
from .errors import (
    DegenerateIterate,
    DidNotConvergeWarning,
    DimensionMismatch,
    InvalidGivenInit,
    SingularSmoother,
    ZeroVector,
)
from .linalg import eigen_block, normalize, sin_theta_frob, sym
from .tensor import SemiSymTensor, frob_norm, rank1_outer, trace_product, ttv3

DEGENERATE_OPNORM_TOL = 1e-14


@dataclass
class Factor:
    """One fitted component: unit loading u, network basis V, scale d.

    V has orthonormal columns except in the eigen-scaled relaxed mode, and
    u is unit norm except under a smoother, where u' S u = 1 instead.
    """

    u: np.ndarray
    V: np.ndarray
    d: float

    def reconstruct(self) -> SemiSymTensor:
        return rank1_outer(self.d, self.V, self.u)


@dataclass(frozen=True)
class FitOptions:
    """Settings of one fit, checked when built: rank >= 1, tol > 0, max_iter >= 1
    and a square, symmetric smoother with S >= I, else DimensionMismatch. `init` is
    "stable" or a unit T-vector, such as `random_unit(T, rng)` for a random start;
    other names raise InvalidGivenInit. Each fit checks rank <= p and a T x T smoother."""

    rank: int = 1
    max_iter: int = 200
    tol: float = 1e-8
    init: "str | np.ndarray" = "stable"
    eigen_scaled: bool = False
    smoother: "np.ndarray | None" = None

    def __post_init__(self):
        if self.rank < 1:
            raise DimensionMismatch(f"rank {self.rank} must be at least 1")
        if not self.tol > 0:
            raise DimensionMismatch("tol must be positive")
        if self.max_iter < 1:
            raise DimensionMismatch("max_iter must be at least 1")
        if isinstance(self.init, str):
            init_u(self.init, 1)  # rejects unknown scheme names
        if self.smoother is not None:
            S = np.asarray(self.smoother, dtype=np.float64)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise DimensionMismatch(f"smoother must be square, got {S.shape}")
            if np.abs(S - S.T).max() > 1e-8 * max(1.0, float(np.abs(S).max())):
                raise DimensionMismatch("smoother must be symmetric")
            if np.linalg.eigvalsh(S).min() < 1.0 - 1e-8:
                raise DimensionMismatch("smoother must satisfy S >= I")


@dataclass
class FitDiagnostics:
    iterations: int = 0
    objective: list = field(default_factory=list)
    u_change: list = field(default_factory=list)
    converged: bool = False
    u_trace: list = field(default_factory=list)
    V_trace: list = field(default_factory=list)


def init_u(init, T: int) -> np.ndarray:
    """Initial loading vector: "stable" (constant 1/sqrt(T)) or a given unit T-vector."""
    if isinstance(init, str):
        if init != "stable":
            raise InvalidGivenInit(f"unknown init scheme {init!r}")
        return np.full(T, 1.0 / np.sqrt(T))
    u0 = np.asarray(init, dtype=np.float64).ravel()
    if u0.shape[0] != T:
        raise DimensionMismatch(f"initial u has length {u0.shape[0]}, expected {T}")
    dev = abs(float(np.linalg.norm(u0)) - 1.0)
    if dev > 1e-6:
        raise InvalidGivenInit(f"initial u deviates from unit length by {dev:.3e}")
    if dev > 1e-12:
        warnings.warn("renormalizing slightly off-unit initial u", stacklevel=2)
        return normalize(u0)
    return u0.copy()


def _best_eigen_block(
    M: np.ndarray, r: int, eigen_scaled: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors maximizing |trace(V' M V)| over orthonormal V.

    Takes whichever of the top-r or bottom-r algebraic eigenvalues has the
    larger absolute sum (the loading update absorbs the overall sign). On
    sign-definite targets this coincides with magnitude ordering, but it
    avoids the +/- cancellation that magnitude ordering suffers on
    indefinite targets such as projector differences. Columns come out in
    descending |eigenvalue| order with the usual sign convention. In the
    eigen-scaled mode the columns are multiplied by sqrt(|lam|), dropping
    orthonormality.

    Consumes its target: M is symmetrized in place (the bits of `sym(M)`),
    so the only p x p array held next to the eigensolver is M itself.
    Callers pass a fresh array.
    """
    M = sym(M, out=M)
    if max(M.max(), -M.min()) < DEGENERATE_OPNORM_TOL:
        raise DegenerateIterate("weighted slice sum is numerically zero")

    def top_or_bottom(w):
        top, bot = np.arange(w.shape[0] - r, w.shape[0]), np.arange(r)
        return top if w[top].sum() >= -w[bot].sum() else bot

    V, lam = eigen_block(M, top_or_bottom)
    if eigen_scaled:
        V = V * np.sqrt(np.abs(lam))[None, :]
    return V, lam


def v_update(X, u: np.ndarray, r: int, eigen_scaled: bool = False):
    """Network-basis update from the u-weighted slice sum.

    Returns (V, lam) with lam the selected eigenvalues in descending
    magnitude. In the eigen-scaled mode the columns are multiplied by
    sqrt(|lam|), dropping orthonormality.
    """
    M = ttv3(X, u)
    if M.shape[0] < r:
        raise DimensionMismatch(f"rank {r} exceeds p={M.shape[0]}")
    return _best_eigen_block(M, r, eigen_scaled)


def _loading(x: np.ndarray, S: "np.ndarray | None") -> np.ndarray:
    """x / ||x||, or under a smoother S the solution of S y = x scaled to y' S y = 1."""
    if S is None:
        return normalize(x)
    if float(np.linalg.norm(x)) < 1e-14:
        raise ZeroVector("trace-product is numerically zero")
    try:
        y = np.linalg.solve(S, x)
    except np.linalg.LinAlgError as e:
        raise SingularSmoother("failed to solve against smoothing matrix") from e
    quad = float(x @ y)
    if not np.isfinite(quad) or quad <= 0:
        raise SingularSmoother(f"smoother quadratic form {quad:.3e} is not positive")
    return y / np.sqrt(quad)


def u_update(X, V: np.ndarray, S: "np.ndarray | None" = None) -> np.ndarray:
    """Loading update: the unit trace-product [X; V], or under a smoother S the
    solution of S y = [X; V] scaled to u' S u = 1 (at S = I, the plain update)."""
    return _loading(trace_product(X, V), S)


def _validate_options(X: SemiSymTensor, opts: FitOptions) -> None:
    if opts.rank > X.p:
        raise DimensionMismatch(f"rank {opts.rank} must lie in [1, {X.p}]")
    if opts.smoother is not None and np.shape(opts.smoother) != (X.T, X.T):
        raise DimensionMismatch(f"smoother must be {X.T} x {X.T}, got {np.shape(opts.smoother)}")


def fit_single_factor(
    X: SemiSymTensor, opts: FitOptions, _perturb=None
) -> tuple[Factor, FitDiagnostics]:
    """Alternating fit of one factor.

    Stops when both the u-change and the V change (`sin_theta_frob` of two
    consecutive bases) drop below tol. Below about 1e-7 the V change reads
    either its rounding floor, about sqrt(r eps) (2.6e-8 at r=3), or exactly
    0, so at the default tol 1e-8 rounding decides when a converged fit stops.
    Hitting max_iter is flagged (diagnostics.converged False, plus a
    DidNotConvergeWarning) but still returns the last iterate; partial
    iterates are statistically useful.

    `_perturb`, when given, is called once per iteration and returns a
    symmetric matrix added to the V-update target and a vector added to the
    u-update target; it backs the adversarial-noise harness. So the loop runs
    the steps of v_update and u_update, `_best_eigen_block` and `_loading`,
    rather than calling them; the objective uses the unperturbed trace-product.

    At p <= 500 the iterations run with OpenBLAS held at one thread, so the
    result does not depend on OPENBLAS_NUM_THREADS (see `_parallel`).
    """
    _validate_options(X, opts)
    if frob_norm(X) == 0.0:
        raise DegenerateIterate("input tensor is identically zero")

    u = init_u(opts.init, X.T)

    diag = FitDiagnostics()
    with _blas_hold_for(X.p):
        for k in range(opts.max_iter):
            E_V, e_u = _perturb(k) if _perturb is not None else (None, None)

            M = ttv3(X, u)
            if E_V is not None and np.any(E_V):
                M = M + E_V
            V, _ = _best_eigen_block(M, opts.rank, opts.eigen_scaled)

            x = trace_product(X, V)
            target = x + e_u if (e_u is not None and np.any(e_u)) else x
            try:
                u_new = _loading(target, opts.smoother)
            except ZeroVector as e:
                raise DegenerateIterate("loading update target is numerically zero") from e

            obj = float(x @ u_new)
            u_change = float(np.linalg.norm(u_new - u))
            diag.objective.append(obj)
            diag.u_change.append(u_change)
            diag.u_trace.append(u_new)
            diag.V_trace.append(V)
            diag.iterations = k + 1

            norms = np.linalg.norm(V, axis=0)
            V_unit = V / np.where(norms > 0, norms, 1.0)
            v_change = np.inf if k == 0 else sin_theta_frob(V_unit, V_unit_prev)
            u, V_unit_prev = u_new, V_unit
            if u_change < opts.tol and v_change < opts.tol:
                diag.converged = True
                break

    if not diag.converged:
        warnings.warn(
            f"fit did not converge within {opts.max_iter} iterations",
            DidNotConvergeWarning,
            stacklevel=2,
        )

    d = obj / opts.rank
    if d < 0:
        u = -u
        d = -d
    return Factor(u=u, V=V, d=d), diag
