"""Single-factor alternating fit, its variants, and initialization schemes.

The fit alternates two closed-form block updates: the network basis V is
the r-dimensional eigenblock of the u-weighted slice sum with the largest
absolute trace, and the loading u is the normalized trace-product. With
the plain updates both half-steps globally solve their block problem, so
the objective <X, V o V o u> never decreases across iterations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateIterate,
    DidNotConvergeWarning,
    DimensionMismatch,
    InvalidGivenInit,
    SingularSmoother,
    ZeroVector,
)
from .linalg import eigen_block, normalize, sin_theta_frob, sym
from .tensor import SemiSymTensor, frob_norm, trace_product, ttv3

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

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    def reconstruct(self) -> SemiSymTensor:
        from .tensor import rank1_outer

        return rank1_outer(self.d, self.V, self.u)


@dataclass(frozen=True)
class FitOptions:
    rank: int = 1
    max_iter: int = 200
    tol: float = 1e-8
    init: "str | np.ndarray" = "stable"  # "stable" | "random" | explicit u0
    seed: "int | None" = None  # drives init="random"
    eigen_scaled: bool = False
    smoother: "np.ndarray | None" = None
    track_iterates: bool = False

    def with_rank(self, r: int) -> "FitOptions":
        return replace(self, rank=r)


@dataclass
class FitDiagnostics:
    iterations: int = 0
    objective: list = field(default_factory=list)
    u_change: list = field(default_factory=list)
    converged: bool = False
    u_trace: "list | None" = None
    V_trace: "list | None" = None


def init_u(init, T: int, rng: "np.random.Generator | None" = None) -> np.ndarray:
    """Initial loading vector: stable (constant), random sphere, or given."""
    if isinstance(init, str):
        if init == "stable":
            return np.full(T, 1.0 / np.sqrt(T))
        if init == "random":
            if rng is None:
                rng = np.random.default_rng()
            return normalize(rng.standard_normal(T))
        raise InvalidGivenInit(f"unknown init scheme {init!r}")
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
    """
    M = sym(M)
    if np.abs(M).max() < DEGENERATE_OPNORM_TOL:
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


def _smoothed_direction(x: np.ndarray, S: np.ndarray) -> np.ndarray:
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


def u_update(X, V: np.ndarray) -> np.ndarray:
    """Unit vector in the direction of the trace-product."""
    return normalize(trace_product(X, V))


def u_update_smoothed(X, V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Smoothed loading update satisfying u' S u = 1.

    Solves S y = [X; V] rather than forming the inverse; reduces exactly
    to the plain update at S = I.
    """
    return _smoothed_direction(trace_product(X, V), np.asarray(S, dtype=np.float64))


def _validate_options(X: SemiSymTensor, opts: FitOptions) -> None:
    if opts.rank < 1 or opts.rank > X.p:
        raise DimensionMismatch(f"rank {opts.rank} must lie in [1, {X.p}]")
    if opts.tol <= 0:
        raise DimensionMismatch("tol must be positive")
    if opts.max_iter < 1:
        raise DimensionMismatch("max_iter must be at least 1")
    if opts.smoother is not None:
        S = np.asarray(opts.smoother, dtype=np.float64)
        if S.shape != (X.T, X.T):
            raise DimensionMismatch(f"smoother must be {X.T} x {X.T}, got {S.shape}")
        if np.abs(S - S.T).max() > 1e-8 * max(1.0, float(np.abs(S).max())):
            raise DimensionMismatch("smoother must be symmetric")
        if np.linalg.eigvalsh(S).min() < 1.0 - 1e-8:
            raise DimensionMismatch("smoother must satisfy S >= I")


def _column_normalized(V: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(V, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return V / safe


def fit_single_factor(
    X: SemiSymTensor, opts: FitOptions, _perturb=None
) -> tuple[Factor, FitDiagnostics]:
    """Alternating fit of one factor.

    Stops when both the u-change and the V subspace change drop below tol.
    Hitting max_iter is flagged (diagnostics.converged False, plus a
    DidNotConvergeWarning) but still returns the last iterate; partial
    iterates are statistically useful.

    `_perturb`, when given, is called once per iteration and returns a
    symmetric matrix added to the V-update target and a vector added to the
    u-update target; it backs the adversarial-noise harness.
    """
    _validate_options(X, opts)
    if frob_norm(X) == 0.0:
        raise DegenerateIterate("input tensor is identically zero")

    rng = np.random.default_rng(opts.seed) if opts.seed is not None else None
    u = init_u(opts.init, X.T, rng)
    S = None if opts.smoother is None else np.asarray(opts.smoother, dtype=np.float64)

    diag = FitDiagnostics()
    if opts.track_iterates:
        diag.u_trace, diag.V_trace = [], []

    V = None
    prev_V = None
    obj = 0.0
    for k in range(opts.max_iter):
        E_V, e_u = _perturb(k) if _perturb is not None else (None, None)

        M = ttv3(X, u)
        if E_V is not None and np.any(E_V):
            M = M + E_V
        V, _ = _best_eigen_block(M, opts.rank, opts.eigen_scaled)

        x = trace_product(X, V)
        target = x + e_u if (e_u is not None and np.any(e_u)) else x
        try:
            u_new = _smoothed_direction(target, S) if S is not None else normalize(target)
        except ZeroVector as e:
            raise DegenerateIterate("loading update target is numerically zero") from e

        obj = float(x @ u_new)
        u_change = float(np.linalg.norm(u_new - u))
        diag.objective.append(obj)
        diag.u_change.append(u_change)
        if opts.track_iterates:
            diag.u_trace.append(u_new.copy())
            diag.V_trace.append(V.copy())
        diag.iterations = k + 1

        v_change = np.inf
        if prev_V is not None:
            v_change = sin_theta_frob(_column_normalized(V), _column_normalized(prev_V))
        u = u_new
        prev_V = V
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
