import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstpca.errors import (
    AsymmetricSlice,
    DimensionMismatch,
    LengthNotTriangular,
    NonFiniteEntry,
)
from sstpca.tensor import (
    SemiSymTensor,
    factor_inner,
    frob_inner,
    frob_norm,
    matricize_upper,
    new_from_slices,
    rank1_outer,
    ropnorm_sampled_lower,
    ropnorm_upper_bound,
    trace_product,
    ttm,
    ttv3,
    unuvec,
    uvec,
)
from sstpca.linalg import random_stiefel, random_unit


def random_tensor(rng, p=5, T=4):
    return SemiSymTensor(rng.standard_normal((p, p, T)), check=False)


class TestConstruction:
    def test_identity_slices(self):
        X = new_from_slices([np.eye(2), np.eye(2)])
        assert X.p == 2 and X.T == 2

    def test_asymmetric_slice_rejected(self):
        A = np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]])
        with pytest.raises(AsymmetricSlice):
            new_from_slices([A])

    def test_mild_asymmetry_symmetrized(self):
        A = np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])
        X = new_from_slices([A])
        assert np.array_equal(X.data[:, :, 0], X.data[:, :, 0].T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_from_slices([np.eye(2), np.eye(3)])

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            new_from_slices([np.zeros((2, 3))])

    def test_empty(self):
        with pytest.raises(DimensionMismatch):
            new_from_slices([])

    def test_nonfinite(self):
        A = np.eye(2)
        A[0, 0] = np.nan
        with pytest.raises(NonFiniteEntry):
            new_from_slices([A])

    def test_data_is_readonly(self):
        X = new_from_slices([np.eye(2)])
        with pytest.raises(ValueError):
            X.data[0, 0, 0] = 5.0

    def test_caller_array_not_aliased(self):
        A = np.stack([np.eye(3), 2 * np.eye(3)], axis=-1)
        X = SemiSymTensor(A)
        A[0, 0, 0] = 7.0
        assert X.data[0, 0, 0] == 1.0 and A.flags.writeable

    def test_trusted_wraps_without_copy_and_is_readonly(self):
        A = np.stack([np.eye(3), 2 * np.eye(3)], axis=-1)
        X = SemiSymTensor._trusted(A)
        assert X.data is A
        with pytest.raises(ValueError):
            X.data[0, 0, 0] = 5.0


class TestTtv3:
    def test_unit_weight(self):
        X = new_from_slices([np.eye(2), 2 * np.eye(2)])
        assert np.allclose(ttv3(X, [1.0, 0.0]), np.eye(2))

    def test_weighted_sum(self):
        # direct summation oracle: 0.6 * I + 0.8 * 2I = 2.2 I
        X = new_from_slices([np.eye(2), 2 * np.eye(2)])
        assert np.allclose(ttv3(X, [0.6, 0.8]), 2.2 * np.eye(2))

    def test_zero_vector(self):
        X = new_from_slices([np.eye(3), np.ones((3, 3))])
        assert np.array_equal(ttv3(X, [0.0, 0.0]), np.zeros((3, 3)))

    def test_length_mismatch(self):
        X = new_from_slices([np.eye(2)])
        with pytest.raises(DimensionMismatch):
            ttv3(X, [1.0, 2.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        X = random_tensor(rng)
        u = rng.standard_normal(X.T)
        expected = sum(u[t] * X.slice(t) for t in range(X.T))
        assert np.allclose(ttv3(X, u), expected, atol=1e-12)


class TestTraceProduct:
    def test_identity_slices(self):
        X = new_from_slices([np.eye(4)] * 3)
        V = np.eye(4)[:, :2]
        assert np.allclose(trace_product(X, V), np.full(3, 2.0))

    def test_rank_one_recovers_weights(self):
        rng = np.random.default_rng(1)
        v = random_unit(5, rng)
        u = rng.standard_normal(3)
        X = new_from_slices([u_t * np.outer(v, v) for u_t in u])
        assert np.allclose(trace_product(X, v), u, atol=1e-12)

    def test_orthogonal_gives_zero(self):
        v = np.array([1.0, 0.0, 0.0])
        X = new_from_slices([np.outer(v, v)] * 2)
        V = np.eye(3)[:, 1:]
        assert np.allclose(trace_product(X, V), 0.0, atol=1e-14)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        X = random_tensor(rng, p=6, T=3)
        V = random_stiefel(6, 2, rng)
        expected = [np.trace(V.T @ X.slice(t) @ V) for t in range(3)]
        assert np.allclose(trace_product(X, V), expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        X, Y = random_tensor(rng), random_tensor(rng)
        V = random_stiefel(5, 2, rng)
        a, b = 0.7, -1.3
        combo = SemiSymTensor(a * X.data + b * Y.data, check=False)
        lhs = trace_product(combo, V)
        rhs = a * trace_product(X, V) + b * trace_product(Y, V)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestRank1Outer:
    def test_basis_vector(self):
        e1 = np.array([1.0, 0.0])
        X = rank1_outer(1.0, e1, np.array([1.0, 0.0]))
        assert np.allclose(X.slice(0), np.outer(e1, e1))
        assert np.allclose(X.slice(1), 0.0)

    def test_adjoint_with_trace_product(self):
        rng = np.random.default_rng(4)
        V = random_stiefel(6, 3, rng)
        u = rng.standard_normal(4)
        X = rank1_outer(2.5, V, u)
        assert np.allclose(trace_product(X, V), 2.5 * 3 * u, atol=1e-10)

    def test_zero_scale(self):
        rng = np.random.default_rng(5)
        X = rank1_outer(0.0, random_stiefel(4, 2, rng), rng.standard_normal(3))
        assert frob_norm(X) == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DimensionMismatch):
            rank1_outer(-1.0, np.eye(2), np.ones(2))


class TestFactorInner:
    @pytest.mark.parametrize("r, r2", [(1, 1), (3, 2), (1, 4)])
    def test_matches_dense_inner_product(self, r, r2):
        rng = np.random.default_rng(10 + r + r2)
        V, W = random_stiefel(9, r, rng), random_stiefel(9, r2, rng)
        u, w = rng.standard_normal(5), random_unit(5, rng)
        dense = frob_inner(rank1_outer(2.5, V, u), rank1_outer(0.7, W, w))
        assert factor_inner(2.5, V, u, 0.7, W, w) == pytest.approx(dense, rel=1e-12)

    def test_non_orthonormal_and_vector_bases(self):
        # eigen-scaled fits return columns scaled by sqrt(|lambda|)
        rng = np.random.default_rng(11)
        V = random_stiefel(8, 3, rng) * np.sqrt([9.0, 4.0, 0.25])
        v = rng.standard_normal(8)
        u, w = random_unit(4, rng), random_unit(4, rng)
        dense = frob_inner(rank1_outer(1.5, V, u), rank1_outer(3.0, v, w))
        assert factor_inner(1.5, V, u, 3.0, v, w) == pytest.approx(dense, rel=1e-12)
        assert factor_inner(1.5, V, u, 1.5, V, u) == pytest.approx(
            frob_norm(rank1_outer(1.5, V, u)) ** 2, rel=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            factor_inner(1.0, np.eye(3), np.ones(2), 1.0, np.eye(4), np.ones(2))


class TestMatricization:
    def test_p3_row_order(self):
        a, b, c = 1.0, 2.0, 3.0
        A = np.array([[0, a, b], [a, 0, c], [b, c, 0]])
        M = matricize_upper(new_from_slices([A]))
        assert np.allclose(M.values[0], [a, b, c])
        assert M.cols == 3

    def test_p2_single_column(self):
        A = np.array([[0.0, 0.7], [0.7, 0.0]])
        M = matricize_upper(new_from_slices([A]))
        assert M.values.shape == (1, 1)
        assert M.values[0, 0] == pytest.approx(0.7)

    def test_uvec_unuvec_roundtrip(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        assert np.allclose(unuvec(uvec(A), 5), A)

    def test_bad_length(self):
        with pytest.raises(LengthNotTriangular):
            unuvec(np.ones(4), 4)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_offdiagonal_isometry(self, p, T, seed):
        # brute force: squared Frobenius norm of the matricization equals
        # the off-diagonal part of the tensor's squared norm, halved
        rng = np.random.default_rng(seed)
        X = SemiSymTensor(rng.standard_normal((p, p, T)), check=False)
        M = matricize_upper(X)
        brute = sum(
            X.data[i, j, t] ** 2
            for t in range(T)
            for i in range(p)
            for j in range(i + 1, p)
        )
        assert np.linalg.norm(M.values) ** 2 == pytest.approx(brute, rel=1e-10)


class TestFrobenius:
    def test_zero_norm(self):
        assert frob_norm(new_from_slices([np.zeros((3, 3))])) == 0.0

    def test_identity_norm(self):
        X = new_from_slices([np.eye(4)] * 5)
        assert frob_norm(X) == pytest.approx(np.sqrt(4 * 5))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(7)
        X = random_tensor(rng, p=6, T=4)
        V = random_stiefel(6, 2, rng)
        u = rng.standard_normal(4)
        lhs = frob_inner(X, rank1_outer(1.0, V, u))
        rhs = float(trace_product(X, V) @ u)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frob_inner(new_from_slices([np.eye(2)]), new_from_slices([np.eye(3)]))


class TestTtm:
    def test_mode3_identity(self):
        rng = np.random.default_rng(8)
        X = random_tensor(rng)
        assert np.allclose(ttm(X, np.eye(X.T), 3), X.data)

    def test_projector_annihilates_range(self):
        rng = np.random.default_rng(9)
        V = random_stiefel(5, 2, rng)
        u = rng.standard_normal(4)
        X = rank1_outer(2.0, V, u)
        P = np.eye(5) - V @ V.T
        out = ttm(ttm(X, P, 1), P, 2)
        assert np.abs(out).max() < 1e-12

    def test_mode3_projector_then_ttv3(self):
        rng = np.random.default_rng(10)
        X = random_tensor(rng)
        u = random_unit(X.T, rng)
        Y = ttm(X, np.eye(X.T) - np.outer(u, u), 3)
        assert np.abs(ttv3(Y, u)).max() < 1e-12

    def test_composition_rule(self):
        # X x_k A x_k B equals X x_k (A B) on every mode
        rng = np.random.default_rng(11)
        X = random_tensor(rng, p=4, T=3)
        for mode, n in ((1, 4), (2, 4), (3, 3)):
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            step = ttm(ttm(X, A, mode), B, mode)
            joint = ttm(X, A @ B, mode)
            assert np.allclose(step, joint, atol=1e-12)

    def test_symmetry_preserved_by_paired_projectors(self):
        rng = np.random.default_rng(12)
        X = random_tensor(rng, p=6, T=3)
        V = random_stiefel(6, 2, rng)
        P = np.eye(6) - V @ V.T
        out = ttm(ttm(X, P, 1), P, 2)
        assert np.abs(out - out.transpose(1, 0, 2)).max() < 1e-10

    def test_bad_mode(self):
        X = new_from_slices([np.eye(2)])
        with pytest.raises(DimensionMismatch):
            ttm(X, np.eye(2), 4)


class TestRopnorm:
    def test_identity_slices_upper(self):
        X = new_from_slices([np.eye(5)] * 3)
        assert ropnorm_upper_bound(X, 2) == pytest.approx(2 * np.sqrt(3))

    def test_zero_tensor(self):
        X = new_from_slices([np.zeros((4, 4))])
        rng = np.random.default_rng(13)
        assert ropnorm_upper_bound(X, 1) == 0.0
        assert ropnorm_sampled_lower(X, 1, 5, rng) == 0.0

    def test_single_slice_magnitude(self):
        X = new_from_slices([np.diag([3.0, -5.0])])
        assert ropnorm_upper_bound(X, 1) == pytest.approx(5.0)

    def test_lower_at_most_upper(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            X = random_tensor(rng, p=6, T=4)
            for r in (1, 2, 4):
                lo = ropnorm_sampled_lower(X, r, 8, rng)
                hi = ropnorm_upper_bound(X, r)
                assert lo <= hi + 1e-12
