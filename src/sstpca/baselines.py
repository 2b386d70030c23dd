"""Comparator methods: matricized PCA, its truncated variant, and HOSVD.

All three consume the same tensor inputs and emit metric-compatible
outputs so sweep comparisons are apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMatrix
from .linalg import normalize, sym_eigen_top_r
from .tensor import SemiSymTensor, matricize_upper, trace_product, unuvec


def network_error(net_hat: np.ndarray, net_star: np.ndarray) -> float:
    """Distance between principal networks on a common scale.

    Both matrices are reduced to their off-diagonal part (the shared
    support of all comparators: matricization never sees the diagonal),
    normalized to unit Frobenius norm, and sign-aligned. Ranges over
    [0, sqrt(2)]; for orthonormal-basis estimates it is a monotone
    function of the subspace sin-theta distance.
    """
    A = np.array(net_hat, dtype=np.float64)
    B = np.array(net_star, dtype=np.float64)
    if A.shape != B.shape:
        raise DegenerateMatrix(f"network shapes differ: {A.shape} vs {B.shape}")
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(B, 0.0)
    na, nb = np.linalg.norm(A), np.linalg.norm(B)
    if na == 0 or nb == 0:
        raise DegenerateMatrix("cannot compare a zero network")
    A /= na
    B /= nb
    if float(np.vdot(A, B)) < 0:
        A = -A
    return float(np.linalg.norm(A - B))


def matricized_pca(X: SemiSymTensor) -> tuple[np.ndarray, np.ndarray, float]:
    """Leading singular triple (u, v, s) of the strict-upper matricization.

    Sign convention: largest-magnitude entry of v positive, with u flipped
    alongside so u s v' still approximates the data matrix.
    """
    M = matricize_upper(X)
    if not np.any(M):
        raise DegenerateMatrix("matricized tensor is identically zero")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    u, v, sval = U[:, 0], Vt[0, :], float(s[0])
    pivot = np.argmax(np.abs(v))
    if v[pivot] < 0:
        v = -v
        u = -u
    return u, v, sval


def truncated_matricized_pca(X: SemiSymTensor, r: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Matricized PCA followed by an eigenvalue truncation of the network.

    The leading right-singular vector is reshaped into a zero-diagonal
    symmetric matrix whose top-r magnitude eigenvectors form the basis.
    Returns (u, V, d) with d the scale of the implied single factor.
    """
    u, v, _ = matricized_pca(X)
    net = unuvec(v, X.p)
    V, _ = sym_eigen_top_r(net, r)
    d = float(trace_product(X, V) @ u) / r
    if d < 0:
        u = -u
        d = -d
    return u, V, d


def hosvd(X: SemiSymTensor, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Order (r, r, 1) higher-order SVD factors (V, u).

    V spans the top-r eigenvectors of the mode-1 Gram matrix
    sum_t X_t X_t'; u is the leading eigenvector of the T x T Gram of
    slice inner products.
    """
    data = X.data
    gram1 = np.einsum("ikt,jkt->ij", data, data)
    if not np.any(gram1):
        raise DegenerateMatrix("tensor is identically zero")
    V, _ = sym_eigen_top_r(gram1, r)
    gram3 = np.einsum("ijs,ijt->st", data, data)
    u_mat, _ = sym_eigen_top_r(gram3, 1)
    return V, normalize(u_mat[:, 0])
