"""Semi-symmetric tensor type and the multilinear algebra built on it.

A semi-symmetric tensor is a stack of T symmetric p x p matrices stored
as a dense (p, p, T) array. All operations treat the last axis as the
"observation" mode and the first two as the symmetric network modes.
"""

from __future__ import annotations

import numpy as np

from .errors import AsymmetricSlice, DimensionMismatch, LengthNotTriangular
from .linalg import _check_rank, _columns, _finite_norm, random_stiefel, sym

SYMMETRY_REL_TOL = 1e-8
SYMMETRY_ABS_FLOOR = 1e-12


class SemiSymTensor:
    """Immutable stack of symmetric matrices, shape (p, p, T), with a finite
    Frobenius norm (so every entry is below about 1.34e154 in magnitude).

    Outside data goes through the constructor, which checks it and symmetrizes
    it into a new array; arrays the package built go through `_trusted`. Both
    raise NonFiniteEntry where the norm is not finite (`linalg._finite_norm`).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != data.shape[1]:
            raise DimensionMismatch(f"expected (p, p, T) array, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[2] < 1:
            raise DimensionMismatch("p and T must both be at least 1")
        _finite_norm(data)  # so neither the difference nor sym below can overflow
        asym = np.abs(data - data.transpose(1, 0, 2)).max()
        scale = np.abs(data).max()
        tol = max(SYMMETRY_REL_TOL * scale, SYMMETRY_ABS_FLOOR)
        if asym > tol:
            raise AsymmetricSlice(
                f"max asymmetry {asym:.3e} exceeds tolerance {tol:.3e}"
            )
        data = sym(data)  # downstream eigensolvers see exactly symmetric slices
        data.setflags(write=False)
        self.data = data

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "SemiSymTensor":
        """Wrap a float64 (p, p, T) array the package built, as is.

        No copy or symmetrization: the caller guarantees slices equal to their
        transposes bit for bit (so sym would return the same bytes) and hands
        the array over; it is made read-only in place. The norm is checked as
        in the constructor: NonFiniteEntry where it is not finite.
        """
        _finite_norm(data)
        data.setflags(write=False)
        X = cls.__new__(cls)
        X.data = data
        return X

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def slice(self, t: int) -> np.ndarray:
        return self.data[:, :, t]

    def __repr__(self):
        return f"SemiSymTensor(p={self.p}, T={self.T})"


def _as_data(X) -> np.ndarray:
    if isinstance(X, SemiSymTensor):
        return X.data
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionMismatch(f"expected a 3-way array, got shape {arr.shape}")
    return arr


def new_from_slices(slices) -> SemiSymTensor:
    """Build a validated SemiSymTensor from an iterable of p x p matrices."""
    mats = [np.asarray(s, dtype=np.float64) for s in slices]
    if not mats:
        raise DimensionMismatch("need at least one slice")
    first = mats[0].shape
    if len(first) != 2 or first[0] != first[1]:
        raise DimensionMismatch(f"slices must be square, got {first}")
    for t, m in enumerate(mats):
        if m.shape != first:
            raise DimensionMismatch(
                f"slice {t} has shape {m.shape}, expected {first}"
            )
    return SemiSymTensor(np.stack(mats, axis=-1))


def ttv3(X, u: np.ndarray) -> np.ndarray:
    """Contract the last mode with a T-vector: sum_t u_t * X_t."""
    data = _as_data(X)
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] != data.shape[2]:
        raise DimensionMismatch(f"u has length {u.shape[0]}, tensor has T={data.shape[2]}")
    return np.tensordot(data, u, axes=([2], [0]))


def trace_product(X, V: np.ndarray) -> np.ndarray:
    """T-vector with entries trace(V' X_t V)."""
    data = _as_data(X)
    # numpy computes V @ V.T of a contiguous V as one mirrored triangle (syrk),
    # exactly symmetric; a strided V can take a path whose triangles differ.
    V = np.ascontiguousarray(_columns(V))
    if V.shape[0] != data.shape[0]:
        raise DimensionMismatch(f"V has {V.shape[0]} rows, tensor has p={data.shape[0]}")
    return np.einsum("ijt,ij->t", data, V @ V.T)


def _add_rank1(data: np.ndarray, d: float, V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Add sym(d VV') o u to `data` in place, row by row so temporaries stay in cache."""
    V = _columns(V)
    u = np.asarray(u, dtype=np.float64).ravel()
    W = sym(d * (V @ V.T))
    for i in range(W.shape[0]):
        data[i] += np.multiply.outer(W[i], u)
    return data


def rank1_outer(d: float, V: np.ndarray, u: np.ndarray) -> SemiSymTensor:
    """Single-factor tensor with slice t equal to d * u_t * V V'."""
    if not 0 <= d < np.inf:
        raise DimensionMismatch("scale d must be finite and nonnegative")
    p, T = len(V), np.size(u)
    # -0.0 + x == x for every float x (signed zeros too): entries are exactly d W_ij u_t.
    # The constructor rejects a non-finite V or u, or an overflowing norm, as NonFiniteEntry.
    return SemiSymTensor(_add_rank1(np.full((p, p, T), -0.0), d, V, u))


def factor_inner(a: float, V: np.ndarray, u: np.ndarray, b: float, W: np.ndarray,
                 w: np.ndarray) -> float:
    """<rank1_outer(a, V, u), rank1_outer(b, W, w)> = a b (u . w) ||V'W||_F^2.

    Costs O(p r r' + T) and forms neither tensor; V and W need not be
    orthonormal.
    """
    V, W = _columns(V), _columns(W)
    if V.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"V has {V.shape[0]} rows, W has {W.shape[0]}")
    cross = V.T @ W
    return float(a * b * np.dot(u, w) * np.vdot(cross, cross))


def uvec(A: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a square matrix, row-major over i < j."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {A.shape}")
    iu = np.triu_indices(A.shape[0], k=1)
    return A[iu]


def unuvec(row: np.ndarray, p: int) -> np.ndarray:
    """Rebuild a zero-diagonal symmetric matrix from its uvec form."""
    row = np.asarray(row, dtype=np.float64).ravel()
    m = p * (p - 1) // 2
    if row.shape[0] != m:
        raise LengthNotTriangular(f"length {row.shape[0]} is not p(p-1)/2 = {m} for p={p}")
    A = np.zeros((p, p))
    iu = np.triu_indices(p, k=1)
    A[iu] = row
    return A + A.T


def matricize_upper(X: SemiSymTensor) -> np.ndarray:
    """Matricize along the last mode: the C-contiguous (T, p(p-1)/2) array whose row t
    is uvec(X_t), columns row-major over i < j: (1,2), ..., (1,p), (2,3), ..., (p-1,p)."""
    data = _as_data(X)
    iu = np.triu_indices(data.shape[0], k=1)
    return np.ascontiguousarray(data[iu[0], iu[1], :].T)


def frob_inner(X, Y) -> float:
    """Frobenius inner product over all tensor entries."""
    xd, yd = _as_data(X), _as_data(Y)
    if xd.shape != yd.shape:
        raise DimensionMismatch(f"shapes differ: {xd.shape} vs {yd.shape}")
    return float(np.vdot(xd, yd))


def frob_norm(X) -> float:
    return float(np.linalg.norm(_as_data(X)))


def ttm(X, A: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k product with a matrix, composing as X x_k A x_k B = X x_k (AB).

    Mode 1 maps slices to A' X_t, mode 2 to X_t A, and mode 3 mixes slices
    with weights A[t, m]. The result is a dense 3-way array; wrap it back
    into a SemiSymTensor only when symmetry is preserved (e.g. the same
    projector applied on modes 1 and 2).
    """
    data = _as_data(X)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch(f"mode matrix must be 2-d, got {A.shape}")
    if mode not in (1, 2, 3):
        raise DimensionMismatch(f"mode must be 1, 2 or 3, got {mode}")
    n = data.shape[mode - 1]
    if A.shape[0] != n:
        raise DimensionMismatch(f"mode-{mode} matrix needs {n} rows, got {A.shape[0]}")
    if mode == 3:
        return np.tensordot(data, A, axes=([2], [0]))
    return np.einsum("ij,ikt->jkt" if mode == 1 else "kj,ikt->ijt", A, data)


def ropnorm_upper_bound(X, r: int) -> float:
    """Deterministic upper bound r * sqrt(T) * max slice operator norm."""
    data = _as_data(X)
    p, T = data.shape[0], data.shape[2]
    _check_rank(r, p)
    opnorm = np.abs(np.linalg.eigvalsh(np.moveaxis(sym(data), 2, 0))).max()
    return float(r * np.sqrt(T) * opnorm)


def ropnorm_sampled_lower(X, r: int, n_samples: int, rng: np.random.Generator) -> float:
    """Sampled lower bound on the rank-r tensor operator norm.

    Draws orthonormal V uniformly; for each draw the maximizing unit-ball u
    is closed-form (the normalized trace-product), so the sampled value is
    the trace-product 2-norm. Always at most the deterministic upper bound.
    """
    data = _as_data(X)
    p = data.shape[0]
    _check_rank(r, p)
    if n_samples < 1:
        raise DimensionMismatch("need at least one sample")
    best = 0.0
    for _ in range(n_samples):
        V = random_stiefel(p, r, rng)
        best = max(best, float(np.linalg.norm(trace_product(data, V))))
    return best
