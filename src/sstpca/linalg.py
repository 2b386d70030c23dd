"""Symmetric eigensolving, random samplers, and subspace error metrics."""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from ._parallel import _numpy_openblas, _openblas_function
from .errors import (DimensionMismatch, InvalidParameter, NonFiniteEntry, NotSymmetric,
                     RankTooLarge, ZeroVector)

ZERO_NORM_TOL = 1e-14
STIEFEL_TOL = 1e-8
NUMPY_EIGH_MAX_P = 500  # the largest p that `eigh` leaves to np.linalg.eigh


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
    stack. Written into `out` when given, which may be A itself: the same bits in
    A's memory, through one temporary of A's size (numpy's copy of the
    overlapping A'), freed on return."""
    out = np.add(A, np.swapaxes(A, 0, 1), out=out)
    out /= 2.0
    return out


@functools.cache
def _dsyevd():
    """(LAPACK dsyevd of numpy's OpenBLAS, its integer dtype), or None where there is
    none. A ``64_`` symbol suffix means 64-bit integers."""
    lib = _numpy_openblas()
    fn = None if lib is None else _openblas_function(lib, "dsyevd_")
    if fn is None:
        return None
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, and the
    # hidden lengths of the two character arguments (gfortran's convention).
    fn.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2
    fn.restype = None
    return fn, np.int64 if fn.__name__.endswith("64_") else np.int32


def _eigh_in_place(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of `np.linalg.eigh(A)` in A's own memory, by numpy's OpenBLAS's
    dsyevd (jobz='V', uplo='L').

    A is a C-contiguous float64 matrix that is exactly symmetric, so LAPACK reads
    its buffer as A itself and overwrites it with the eigenvectors as its rows:
    the returned eigenvector matrix is the view A.T. The workspace is sized by
    dsyevd's query, as numpy's eigh sizes its own (so both take the same path),
    and freed on return. Raises LinAlgError where the solver does not converge,
    ValueError on any other layout.
    """
    if A.dtype != np.float64 or A.ndim != 2 or A.shape[0] != A.shape[1] \
            or not A.flags.c_contiguous:
        raise ValueError("eigh in place needs a square, C-contiguous float64 matrix")
    fn, itype = _dsyevd()
    n, lwork, liwork, info = (np.array(v, dtype=itype) for v in (A.shape[0], -1, -1, 0))
    w, work, iwork = np.empty(A.shape[0]), np.zeros(1), np.zeros(1, dtype=itype)
    for _ in range(2):  # the workspace query (lwork = liwork = -1 reads no matrix), the solve
        fn(b"V", b"L", n.ctypes, A.ctypes, n.ctypes, w.ctypes, work.ctypes, lwork.ctypes,
           iwork.ctypes, liwork.ctypes, info.ctypes, 1, 1)
        if lwork < 0:
            lwork[...], liwork[...] = work[0], iwork[0]
            work, iwork = np.empty(int(lwork)), np.empty(int(liwork), dtype=itype)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, A.T


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric float64 matrix A, which is consumed:
    `np.linalg.eigh(A)` up to p = NUMPY_EIGH_MAX_P or where numpy's OpenBLAS
    exports no dsyevd, else the same bits in A's own memory (`_eigh_in_place`)."""
    if A.shape[0] <= NUMPY_EIGH_MAX_P or _dsyevd() is None:
        return np.linalg.eigh(A)
    return _eigh_in_place(A)


def eigen_block(A: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix selected by `pick`.

    `pick(w)` maps the ascending eigenvalues to the indices to keep; the
    kept pairs come out in descending |lambda| order (stable on ties).
    Sign convention: the largest-magnitude entry of each eigenvector is
    positive (first such entry on exact ties), which makes the output
    deterministic including degenerate spectra. The basis is C-contiguous.
    A is consumed (`eigh`).
    """
    w, Q = eigh(A)
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
    scale = float(np.abs(A).max())
    if not np.isfinite(scale):
        raise NonFiniteEntry("matrix has NaN or infinite entries")
    if np.abs(A - A.T).max() > 1e-8 * max(scale, 1e-300):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return eigen_block(sym(A), lambda w: np.argsort(-np.abs(w), kind="stable")[:r])


def _checked_norm(x: np.ndarray) -> float:
    """||x||_2 of a float vector: ZeroVector where it is numerically zero,
    NonFiniteEntry where it is not finite (a NaN or infinite entry, or squares
    that overflow, as from finite entries near 1e200)."""
    with np.errstate(over="ignore"):  # an overflow raises below instead of warning
        nrm = float(np.linalg.norm(x))
    if nrm < ZERO_NORM_TOL:
        raise ZeroVector(f"vector norm {nrm:.3e} below {ZERO_NORM_TOL}")
    if not np.isfinite(nrm):
        raise NonFiniteEntry(f"vector norm is {nrm}: largest entry magnitude {np.abs(x).max():.3e}")
    return nrm


def normalize(x: np.ndarray) -> np.ndarray:
    """x / ||x||_2, rejecting vectors whose norm is numerically zero or not finite."""
    x = np.asarray(x, dtype=np.float64)
    return x / _checked_norm(x)


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
