"""Symmetric eigensolving, random samplers, and subspace error metrics."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotSymmetric, RankTooLarge, ZeroVector

ZERO_NORM_TOL = 1e-14
STIEFEL_TOL = 1e-8


def _columns(V: np.ndarray) -> np.ndarray:
    """V as a float64 matrix; a 1-D vector becomes one column."""
    V = np.asarray(V, dtype=np.float64)
    return V.reshape(len(V), -1)


def is_orthonormal(V: np.ndarray) -> bool:
    V = _columns(V)
    gram = V.T @ V
    return bool(np.abs(gram - np.eye(V.shape[1])).max() <= STIEFEL_TOL)


def sym(A: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Symmetric part (A + A') / 2 of a float array; of every slice for a (p, p, T)
    stack. Written into `out` when given, which may be A itself: the same bits
    without a new array of A's size."""
    out = np.add(A, np.swapaxes(A, 0, 1), out=out)
    out /= 2.0
    return out


def eigen_block(A: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix selected by `pick`.

    `pick(w)` maps the ascending eigenvalues to the indices to keep; the
    kept pairs come out in descending |lambda| order (stable on ties).
    Sign convention: the largest-magnitude entry of each eigenvector is
    positive (first such entry on exact ties), which makes the output
    deterministic including degenerate spectra. The basis is C-contiguous.
    """
    w, Q = np.linalg.eigh(A)
    idx = pick(w)
    order = idx[np.argsort(-np.abs(w[idx]), kind="stable")]
    V = Q[:, order].copy()
    pivot = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[pivot, np.arange(V.shape[1])])
    V *= signs
    return V, w[order]


def sym_eigen_top_r(A: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of a symmetric matrix, ordered by descending |lambda|.

    Signs follow the convention of `eigen_block`.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {A.shape}")
    p = A.shape[0]
    if not 1 <= r <= p:
        raise RankTooLarge(f"rank r={r} must lie in [1, {p}]")
    scale = max(float(np.abs(A).max()), 1e-300)
    if np.abs(A - A.T).max() > 1e-8 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return eigen_block(sym(A), lambda w: np.argsort(-np.abs(w), kind="stable")[:r])


def normalize(x: np.ndarray) -> np.ndarray:
    """x / ||x||_2, rejecting numerically zero vectors."""
    x = np.asarray(x, dtype=np.float64)
    nrm = float(np.linalg.norm(x))
    if nrm < ZERO_NORM_TOL:
        raise ZeroVector(f"vector norm {nrm:.3e} below {ZERO_NORM_TOL}")
    return x / nrm


def _cross_singular_values(V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    V1, V2 = _columns(V1), _columns(V2)
    if V1.shape != V2.shape:
        raise DimensionMismatch(f"shapes differ: {V1.shape} vs {V2.shape}")
    s = np.linalg.svd(V1.T @ V2, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def principal_angles(V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between the column spans."""
    return np.arccos(_cross_singular_values(V1, V2))


def sin_theta_frob(V1: np.ndarray, V2: np.ndarray) -> float:
    """Frobenius norm of sin(principal angles); zero iff equal spans."""
    s = _cross_singular_values(V1, V2)
    return float(np.sqrt(max(0.0, len(s) - float(s @ s))))


def subspace_angle(V1: np.ndarray, V2: np.ndarray) -> float:
    """Largest principal angle: arccos of the smallest cross singular value."""
    return float(np.arccos(_cross_singular_values(V1, V2).min()))


def procrustes_aligned_rmse(V_hat: np.ndarray, V_star: np.ndarray) -> tuple[np.ndarray, float]:
    """Best rotation O of V_hat onto V_star and the aligned RMSE.

    Returns (O, min_O ||V_star - V_hat O||_F / sqrt(p r)). For single
    columns this reduces to the sign-aligned error.
    """
    V_hat, V_star = _columns(V_hat), _columns(V_star)
    if V_hat.shape != V_star.shape:
        raise DimensionMismatch(f"shapes differ: {V_hat.shape} vs {V_star.shape}")
    p, r = V_hat.shape
    U, _, Wt = np.linalg.svd(V_hat.T @ V_star)
    O = U @ Wt
    armse = float(np.linalg.norm(V_star - V_hat @ O) / np.sqrt(p * r))
    return O, armse


def sign_aligned_error(u_hat: np.ndarray, u_star: np.ndarray) -> float:
    """min over signs of ||u_star -+ u_hat||_2."""
    u_hat = np.asarray(u_hat, dtype=np.float64).ravel()
    u_star = np.asarray(u_star, dtype=np.float64).ravel()
    if u_hat.shape != u_star.shape:
        raise DimensionMismatch(f"lengths differ: {u_hat.shape} vs {u_star.shape}")
    return float(min(np.linalg.norm(u_star - u_hat), np.linalg.norm(u_star + u_hat)))


def random_stiefel(p: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed p x r matrix with orthonormal columns, 1 <= r <= p."""
    if r < 1:
        raise InvalidParameter(f"r={r} must be at least 1")
    if r > p:
        raise RankTooLarge(f"r={r} exceeds p={p}")
    G = rng.standard_normal((p, r))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_unit(T: int, rng: np.random.Generator, positive: bool = False) -> np.ndarray:
    """Uniform unit vector; optionally restricted to the positive orthant."""
    x = rng.standard_normal(T)
    if positive:
        x = np.abs(x)
    return normalize(x)
