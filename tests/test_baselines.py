import numpy as np
import pytest

from sstpca.baselines import (
    hosvd,
    matricized_pca,
    network_error,
    truncated_matricized_pca,
)
from sstpca.errors import DegenerateMatrix
from sstpca.linalg import random_stiefel, random_unit, sign_aligned_error, sin_theta_frob
from sstpca.tensor import matricize_upper, new_from_slices, rank1_outer, unuvec, uvec


def rank1_instance(seed=0, p=8, T=6, d=4.0):
    rng = np.random.default_rng(seed)
    v = random_unit(p, rng)
    u = random_unit(T, rng)
    return rank1_outer(d, v, u), v, u


class TestMatricizedPca:
    def test_noiseless_rank1(self):
        X, v_star, u_star = rank1_instance()
        u, v, s = matricized_pca(X)
        assert sign_aligned_error(u, u_star) < 1e-10
        net = np.outer(v_star, v_star)
        np.fill_diagonal(net, 0.0)
        direction = uvec(net)
        direction /= np.linalg.norm(direction)
        assert min(np.linalg.norm(v - direction), np.linalg.norm(v + direction)) < 1e-10

    def test_zero_tensor(self):
        with pytest.raises(DegenerateMatrix):
            matricized_pca(new_from_slices([np.zeros((3, 3))]))

    def test_sign_convention(self):
        X, _, _ = rank1_instance(seed=1)
        _, v, _ = matricized_pca(X)
        assert v[np.argmax(np.abs(v))] > 0

    def test_singular_value_matches_covariance_oracle(self):
        # covariance-route oracle: power iteration on M'M reproduces the
        # leading singular value and right-singular direction
        rng = np.random.default_rng(2)
        X, _, _ = rank1_instance(seed=3)
        noisy = new_from_slices(
            [X.slice(t) + 0.05 * _sym(rng, 8) for t in range(X.T)]
        )
        u, v, s = matricized_pca(noisy)
        M = matricize_upper(noisy)
        G = M.T @ M
        w = rng.standard_normal(G.shape[0])
        for _ in range(500):
            w = G @ w
            w /= np.linalg.norm(w)
        s_power = float(np.sqrt(w @ G @ w))
        assert s == pytest.approx(s_power, rel=1e-8)
        assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) < 1e-6

    def test_opnorm_identity(self):
        X, _, _ = rank1_instance(seed=4)
        _, _, s = matricized_pca(X)
        assert s == pytest.approx(np.linalg.norm(matricize_upper(X), 2), rel=1e-10)


def _sym(rng, p):
    A = rng.standard_normal((p, p))
    return A + A.T


class TestTruncatedMatricizedPca:
    def test_exact_rank1_recovery(self):
        # the matricization never sees the diagonal, so recovery is exact
        # only up to the diagonal perturbation: sin theta <= 2 ||diag|| / gap
        X, v_star, u_star = rank1_instance(seed=5, p=30)
        u, V, d = truncated_matricized_pca(X, 1)
        assert sin_theta_frob(V, v_star[:, None]) <= 4 * np.max(v_star**2)
        assert sign_aligned_error(u, u_star) < 1e-10
        assert d >= 0

    def test_truncation_idempotent(self):
        # a network that is already rank-r (off-diagonal) is unchanged
        rng = np.random.default_rng(6)
        V_star = random_stiefel(7, 2, rng)
        u = random_unit(5, rng)
        X = rank1_outer(3.0, V_star, u)
        _, V1, _ = truncated_matricized_pca(X, 2)
        net = unuvec(matricized_pca(X)[1], 7)
        X2 = new_from_slices([net * w for w in u])
        _, V2, _ = truncated_matricized_pca(X2, 2)
        assert sin_theta_frob(V1, V2) < 1e-8


class TestHosvd:
    def test_noiseless_rank_r(self):
        # Gram matrices are scaled projectors, so both factors are exact
        rng = np.random.default_rng(7)
        V_star = random_stiefel(9, 3, rng)
        u_star = random_unit(6, rng)
        X = rank1_outer(2.0, V_star, u_star)
        V, u = hosvd(X, 3)
        assert sin_theta_frob(V, V_star) < 1e-7
        assert sign_aligned_error(u, u_star) < 1e-10

    def test_equal_slices_constant_loading(self):
        rng = np.random.default_rng(8)
        A = _sym(rng, 5)
        X = new_from_slices([A] * 4)
        _, u = hosvd(X, 2)
        assert sign_aligned_error(u, np.full(4, 0.5)) < 1e-10

    def test_zero_tensor(self):
        with pytest.raises(DegenerateMatrix):
            hosvd(new_from_slices([np.zeros((3, 3))]), 1)


class TestNetworkError:
    def test_identical_networks(self):
        rng = np.random.default_rng(9)
        V = random_stiefel(6, 2, rng)
        net = V @ V.T
        assert network_error(net, net) < 1e-12

    def test_sign_aligned(self):
        rng = np.random.default_rng(10)
        V = random_stiefel(6, 2, rng)
        net = V @ V.T
        assert network_error(-net, net) < 1e-12

    def test_scale_free(self):
        rng = np.random.default_rng(11)
        V = random_stiefel(6, 2, rng)
        W = random_stiefel(6, 2, rng)
        assert network_error(3 * (V @ V.T), W @ W.T) == pytest.approx(
            network_error(V @ V.T, W @ W.T)
        )

    def test_zero_rejected(self):
        with pytest.raises(DegenerateMatrix):
            network_error(np.eye(3), np.eye(3))  # only diagonal, off-diag zero
