"""Single-factor alternating fit, its adversarial variant, and initialization schemes.

The fit alternates two closed-form block updates: the network basis V is
the r-dimensional eigenblock of the u-weighted slice sum with the largest
absolute trace, and the loading u is the normalized trace-product. With
the plain updates both half-steps globally solve their block problem, so
the objective <X, V o V o u> never decreases across iterations.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import _blas_hold_for
from .errors import (
    BudgetExceeded,
    DegenerateIterate,
    DidNotConvergeWarning,
    DimensionMismatch,
    InvalidGivenInit,
    SingularSmoother,
    ZeroVector,
)
from .linalg import _checked_norm, eigen_block, normalize, sin_theta_frob, sym
from .tensor import SemiSymTensor, rank1_outer, trace_product, ttv3

DEGENERATE_OPNORM_TOL = 1e-14


def _check_integer(name: str, value) -> None:
    """DimensionMismatch unless value is an integer; numpy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}") from None


def _check_rank_fits(r: int, p: int, where: str = "") -> None:
    """DimensionMismatch, its message led by `where`, unless rank r is at most p."""
    if r > p:
        raise DimensionMismatch(f"{where}rank {r} exceeds p={p}")


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
    """Settings of one fit, checked when built: integer rank >= 1 and max_iter >= 1,
    finite tol > 0 and a finite, square, symmetric smoother with S >= I, else DimensionMismatch.
    `init` is "stable" or a unit T-vector, such as `random_unit(T, rng)` for a random
    start; other names raise InvalidGivenInit. Each fit checks rank <= p and a T x T smoother."""

    rank: int = 1
    max_iter: int = 200
    tol: float = 1e-8
    init: "str | np.ndarray" = "stable"
    eigen_scaled: bool = False
    smoother: "np.ndarray | None" = None

    def __post_init__(self):
        for name, value in (("rank", self.rank), ("max_iter", self.max_iter)):
            _check_integer(name, value)
        if self.rank < 1:
            raise DimensionMismatch(f"rank {self.rank} must be at least 1")
        if not self.tol > 0:
            raise DimensionMismatch("tol must be positive")
        if self.tol == np.inf:  # every fit would stop after two iterations
            raise DimensionMismatch("tol must be finite")
        if self.max_iter < 1:
            raise DimensionMismatch("max_iter must be at least 1")
        if isinstance(self.init, str):
            init_u(self.init, 1)  # rejects unknown scheme names
        if self.smoother is not None:
            S = np.asarray(self.smoother, dtype=np.float64)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise DimensionMismatch(f"smoother must be square, got {S.shape}")
            if not np.isfinite(S).all():
                raise DimensionMismatch("smoother has NaN or infinite entries")
            if np.abs(S - S.T).max() > 1e-8 * max(1.0, float(np.abs(S).max())):
                raise DimensionMismatch("smoother must be symmetric")
            if np.linalg.eigvalsh(S).min() < 1.0 - 1e-8:
                raise DimensionMismatch("smoother must satisfy S >= I")


@dataclass
class FitDiagnostics:
    """The numbers of one fit: `objective[k]`, the objective <X, V o V o u> after
    iteration k + 1, and `u_change[k]`, that iteration's ||u_new - u||; then the
    number of `iterations` run and whether the fit `converged` before max_iter.
    Iterates are given to an observer (`fit_single_factor`), never kept here."""

    iterations: int = 0
    objective: list = field(default_factory=list)
    u_change: list = field(default_factory=list)
    converged: bool = False


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
    if not dev <= 1e-6:  # NaN entries give a NaN dev
        raise InvalidGivenInit(f"initial u deviates from unit length by {dev:.3e}")
    if dev > 1e-12:
        warnings.warn("renormalizing slightly off-unit initial u", stacklevel=2)
        return normalize(u0)
    return u0.copy()


def _best_eigen_block(M: np.ndarray, r: int,
                      eigen_scaled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors maximizing |trace(V' M V)| over orthonormal V.

    Takes whichever of the top-r or bottom-r algebraic eigenvalues has the
    larger absolute sum (the loading update absorbs the overall sign). On
    sign-definite targets this coincides with magnitude ordering, but it
    avoids the +/- cancellation that magnitude ordering suffers on
    indefinite targets such as projector differences. Columns come out in
    descending |eigenvalue| order with the usual sign convention. In the
    eigen-scaled mode the columns are multiplied by sqrt(|lam|), dropping
    orthonormality.

    Consumes its target: M is symmetrized in place (the bits of `sym(M)`;
    numpy's copy of the overlapping M' is freed before the solve) and handed to
    `eigh`, which above p = 500 solves it in place. Callers pass a fresh
    C-contiguous array. Raises DimensionMismatch when r > p.
    """
    _check_rank_fits(r, M.shape[0])
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
    return _best_eigen_block(ttv3(X, u), r, eigen_scaled)


def _loading(x: np.ndarray, S: "np.ndarray | None") -> np.ndarray:
    """x / ||x||, or under a smoother S the solution of S y = x scaled to y' S y = 1;
    either way ZeroVector or NonFiniteEntry where ||x|| is zero or not finite."""
    if S is None:
        return normalize(x)
    _checked_norm(x)
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


def _v_change(V: np.ndarray, prev: "np.ndarray | None") -> tuple[float, np.ndarray]:
    """(V distance, V's unit columns): `sin_theta_frob` of V's unit columns and
    the previous iterate's `prev`, or inf where there is none."""
    norms = np.linalg.norm(V, axis=0)
    V_unit = V / np.where(norms > 0, norms, 1.0)
    return (np.inf if prev is None else sin_theta_frob(V_unit, prev)), V_unit


def _alternate(X: SemiSymTensor, opts: FitOptions, v_step, u_step, *, observe=None):
    """The alternating loop of `fit_single_factor` over its two steps:
    `v_step(M, rank, eigen_scaled)` consumes the target ttv3(X, u) and
    returns (V, lam); `u_step(x, smoother)` maps the trace-product x to u.
    `observe(V, u)`, when given, sees each iterate."""
    if opts.smoother is not None and np.shape(opts.smoother) != (X.T, X.T):
        raise DimensionMismatch(f"smoother must be {X.T} x {X.T}, got {np.shape(opts.smoother)}")
    if not np.any(X.data):
        raise DegenerateIterate("input tensor is identically zero")

    diag = FitDiagnostics()
    with _blas_hold_for(X.p):
        u, V_unit = init_u(opts.init, X.T), None
        for k in range(opts.max_iter):
            # The target goes straight in, so it is freed before trace_product allocates VV'.
            V, _ = v_step(ttv3(X, u), opts.rank, opts.eigen_scaled)
            x = trace_product(X, V)
            try:
                u_new = u_step(x, opts.smoother)
            except ZeroVector as e:
                raise DegenerateIterate("loading update target is numerically zero") from e

            obj = float(x @ u_new)
            u_change = float(np.linalg.norm(u_new - u))
            diag.objective.append(obj)
            diag.u_change.append(u_change)
            diag.iterations = k + 1
            if observe is not None:
                observe(V, u_new)

            v_change, V_unit = _v_change(V, V_unit)
            u = u_new
            if u_change < opts.tol and v_change < opts.tol:
                diag.converged = True
                break

    if not diag.converged:  # stacklevel 3: the line that called the public fit
        warnings.warn(f"fit did not converge within {opts.max_iter} iterations",
                      DidNotConvergeWarning, stacklevel=3)

    d = obj / opts.rank
    if d < 0:
        u = -u
        d = -d
    return Factor(u=u, V=V, d=d), diag


def fit_single_factor(X: SemiSymTensor, opts: FitOptions, *,
                      observe=None) -> tuple[Factor, FitDiagnostics]:
    """Alternating fit of one factor.

    Stops when both the u-change and the V change (`_v_change`: `sin_theta_frob`
    of two consecutive bases) drop below tol. Below about 1e-7 the V change reads
    either its rounding floor, about sqrt(r eps) (2.6e-8 at r=3), or exactly
    0, so at the default tol 1e-8 rounding decides when a converged fit stops.
    Hitting max_iter is flagged (diagnostics.converged False, plus a
    DidNotConvergeWarning) but still returns the last iterate; partial
    iterates are statistically useful.

    `observe(V, u)`, when given, is called once per iteration, under the fit's
    BLAS hold, with that iteration's basis and loading, so the last call sees
    the returned V and the returned u or -u (the flip that makes d positive).
    The fit writes neither array afterwards, so the observer may keep them.

    At p <= 500 every BLAS call of the fit runs with OpenBLAS held at one
    thread, so the result does not depend on OPENBLAS_NUM_THREADS (`_parallel`).
    Above 500 each V-step eigensolves its target in place (`linalg.eigh`), with
    the bits of `np.linalg.eigh`.
    """
    return _alternate(X, opts, _best_eigen_block, _loading, observe=observe)


def fit_adversarial(
    X_signal: SemiSymTensor, opts: FitOptions, noise_budget: float, adversary
) -> tuple[Factor, FitDiagnostics]:
    """Run the alternating fit with per-iteration adversarial perturbations.

    `adversary(k)` returns (E_V, e_u): a symmetric matrix added to the
    V-update target and a vector added to the u-update target. Both must be
    finite, and the operator norm of E_V and the 2-norm of e_u must not exceed
    the budget, else BudgetExceeded before any solve. The objective uses the
    unperturbed trace-product.
    """
    if not noise_budget >= 0:
        raise DimensionMismatch("noise budget must be nonnegative")
    p, T = X_signal.p, X_signal.T
    iteration = itertools.count()
    e_u = None

    def v_step(M, r, eigen_scaled):
        nonlocal e_u
        E_V, e_u = adversary(next(iteration))
        E_V = np.asarray(E_V, dtype=np.float64)
        e_u = np.asarray(e_u, dtype=np.float64).ravel()
        if E_V.shape != (p, p):
            raise DimensionMismatch(f"E_V must be {p} x {p}, got {E_V.shape}")
        if e_u.shape[0] != T:
            raise DimensionMismatch(f"e_u must have length {T}, got {e_u.shape[0]}")
        for name, e in (("E_V", E_V), ("e_u", e_u)):
            if not np.isfinite(e).all():
                raise BudgetExceeded(f"{name} has NaN or infinite entries")
        E_V = sym(E_V)
        opnorm = float(np.abs(np.linalg.eigvalsh(E_V)).max()) if np.any(E_V) else 0.0
        for name, size in (("E_V operator norm", opnorm), ("e_u norm", np.linalg.norm(e_u))):
            if size > noise_budget * (1.0 + 1e-12):
                raise BudgetExceeded(f"{name} {size:.3e} exceeds budget {noise_budget:.3e}")
        return _best_eigen_block(M + E_V if np.any(E_V) else M, r, eigen_scaled)

    def u_step(x, S):
        return _loading(x + e_u if np.any(e_u) else x, S)

    return _alternate(X_signal, opts, v_step, u_step)
