"""Semi-symmetric tensor type and the multilinear algebra built on it.

A semi-symmetric tensor is a stack of T symmetric p x p matrices stored
as a dense (p, p, T) array. All operations treat the last axis as the
"observation" mode and the first two as the symmetric network modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricSlice,
    DimensionMismatch,
    LengthNotTriangular,
    NonFiniteEntry,
)
from .linalg import _columns, random_stiefel, sym

SYMMETRY_REL_TOL = 1e-8
SYMMETRY_ABS_FLOOR = 1e-12


class SemiSymTensor:
    """Immutable stack of symmetric matrices, shape (p, p, T)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray, check: bool = True):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != data.shape[1]:
            raise DimensionMismatch(f"expected (p, p, T) array, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[2] < 1:
            raise DimensionMismatch("p and T must both be at least 1")
        if check:
            if not np.isfinite(data).all():
                raise NonFiniteEntry("tensor contains NaN or infinite entries")
            asym = np.abs(data - data.transpose(1, 0, 2)).max()
            scale = np.abs(data).max()
            tol = max(SYMMETRY_REL_TOL * scale, SYMMETRY_ABS_FLOOR)
            if asym > tol:
                raise AsymmetricSlice(
                    f"max asymmetry {asym:.3e} exceeds tolerance {tol:.3e}"
                )
        # Symmetrize so downstream eigensolvers see exactly symmetric slices;
        # sym returns a new array, so the caller's array is never aliased.
        data = sym(data)
        data.setflags(write=False)
        self.data = data

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "SemiSymTensor":
        """Wrap an exactly symmetric float64 (p, p, T) array as is.

        No copy, symmetrization or check: the caller guarantees that every
        slice equals its transpose bit for bit (so sym would return the same
        bytes) and hands the array over; it is made read-only in place.
        """
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


@dataclass(frozen=True)
class UpperTriMatrix:
    """T x p(p-1)/2 matrix of vectorized strict upper triangles.

    Column order is row-major over index pairs i < j:
    (1,2), (1,3), ..., (1,p), (2,3), ..., (p-1,p).
    """

    values: np.ndarray
    p: int

    def __post_init__(self):
        m = self.p * (self.p - 1) // 2
        if self.values.ndim != 2 or self.values.shape[1] != m:
            raise LengthNotTriangular(
                f"expected {m} columns for p={self.p}, got shape {self.values.shape}"
            )

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


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
    return SemiSymTensor(np.stack(mats, axis=-1), check=True)


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
    V = _columns(V)
    if V.shape[0] != data.shape[0]:
        raise DimensionMismatch(f"V has {V.shape[0]} rows, tensor has p={data.shape[0]}")
    return np.einsum("ijt,ij->t", data, sym(V @ V.T))


def rank1_outer(d: float, V: np.ndarray, u: np.ndarray) -> SemiSymTensor:
    """Single-factor tensor with slice t equal to d * u_t * V V'."""
    if d < 0:
        raise DimensionMismatch("scale d must be nonnegative")
    V = _columns(V)
    u = np.asarray(u, dtype=np.float64).ravel()
    W = sym(d * (V @ V.T))
    return SemiSymTensor(W[:, :, None] * u[None, None, :], check=False)


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


def matricize_upper(X: SemiSymTensor) -> UpperTriMatrix:
    """Matricize along the last mode, keeping strict upper triangles."""
    data = _as_data(X)
    p = data.shape[0]
    iu = np.triu_indices(p, k=1)
    return UpperTriMatrix(values=np.ascontiguousarray(data[iu[0], iu[1], :].T), p=p)


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
    if mode == 1:
        if A.shape[0] != data.shape[0]:
            raise DimensionMismatch(f"mode-1 matrix needs {data.shape[0]} rows, got {A.shape[0]}")
        return np.einsum("ij,ikt->jkt", A, data)
    if mode == 2:
        if A.shape[0] != data.shape[1]:
            raise DimensionMismatch(f"mode-2 matrix needs {data.shape[1]} rows, got {A.shape[0]}")
        return np.einsum("kj,ikt->ijt", A, data)
    if mode == 3:
        if A.shape[0] != data.shape[2]:
            raise DimensionMismatch(f"mode-3 matrix needs {data.shape[2]} rows, got {A.shape[0]}")
        return np.tensordot(data, A, axes=([2], [0]))
    raise DimensionMismatch(f"mode must be 1, 2 or 3, got {mode}")


def slice_opnorms(X) -> np.ndarray:
    """Largest-magnitude eigenvalue of every slice."""
    data = _as_data(X)
    return np.abs(np.linalg.eigvalsh(np.moveaxis(sym(data), 2, 0))).max(axis=1)


def ropnorm_upper_bound(X, r: int) -> float:
    """Deterministic upper bound r * sqrt(T) * max slice operator norm."""
    data = _as_data(X)
    p, T = data.shape[0], data.shape[2]
    if not 1 <= r <= p:
        raise DimensionMismatch(f"rank r={r} must lie in [1, {p}]")
    return float(r * np.sqrt(T) * slice_opnorms(data).max())


def ropnorm_sampled_lower(X, r: int, n_samples: int, rng: np.random.Generator) -> float:
    """Sampled lower bound on the rank-r tensor operator norm.

    Draws orthonormal V uniformly; for each draw the maximizing unit-ball u
    is closed-form (the normalized trace-product), so the sampled value is
    the trace-product 2-norm. Always at most the deterministic upper bound.
    """
    data = _as_data(X)
    p = data.shape[0]
    if not 1 <= r <= p:
        raise DimensionMismatch(f"rank r={r} must lie in [1, {p}]")
    if n_samples < 1:
        raise DimensionMismatch("need at least one sample")
    best = 0.0
    for _ in range(n_samples):
        V = random_stiefel(p, r, rng)
        best = max(best, float(np.linalg.norm(trace_product(data, V))))
    return best
