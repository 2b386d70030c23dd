import numpy as np
import pytest

from sstpca import linalg
from sstpca._parallel import _openblas_controls
from sstpca.errors import DimensionMismatch, NonFiniteEntry, NotSymmetric, RankTooLarge, ZeroVector
from sstpca.linalg import (
    eigh,
    is_orthonormal,
    normalize,
    principal_angles,
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
    sin_theta_frob,
    subspace_angle,
    sym,
    sym_eigen_top_r,
)
from sstpca.simulate import spike_model
from sstpca.tensor import ttv3


class TestSymEigen:
    def test_diagonal_top_one(self):
        V, lam = sym_eigen_top_r(np.diag([5.0, 2.0, 1.0]), 1)
        assert lam[0] == pytest.approx(5.0)
        assert np.allclose(np.abs(V[:, 0]), [1, 0, 0])

    def test_magnitude_ordering(self):
        V, lam = sym_eigen_top_r(np.diag([1.0, -4.0]), 1)
        assert lam[0] == pytest.approx(-4.0)
        assert np.allclose(np.abs(V[:, 0]), [0, 1])

    def test_degenerate_deterministic(self):
        V1, lam1 = sym_eigen_top_r(np.eye(2), 1)
        V2, lam2 = sym_eigen_top_r(np.eye(2), 1)
        assert np.array_equal(V1, V2)
        assert lam1[0] == pytest.approx(1.0)

    def test_sign_convention(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        V, _ = sym_eigen_top_r(A, 4)
        for j in range(4):
            col = V[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_residual_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            A = rng.standard_normal((8, 8))
            A = A + A.T
            opn = np.abs(np.linalg.eigvalsh(A)).max()
            V, lam = sym_eigen_top_r(A, 3)
            for j in range(3):
                assert np.linalg.norm(A @ V[:, j] - lam[j] * V[:, j]) <= 1e-8 * opn

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigen_top_r(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize("A", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])],
                             ids=["nan", "inf-diagonal"])
    def test_non_finite(self, A):
        # inf - inf is NaN, so an infinite diagonal passes the symmetry test
        with pytest.raises(NonFiniteEntry, match="NaN or infinite"):
            sym_eigen_top_r(A, 1)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            sym_eigen_top_r(np.eye(3), 4)


@pytest.fixture(params=[1, 2], ids=["1blas", "2blas"])
def blas_threads(request):
    """numpy's OpenBLAS at request.param threads for the test."""
    get, set_ = _openblas_controls()
    saved = get()
    set_(request.param)
    yield request.param
    set_(saved)


@pytest.mark.skipif(linalg._dsyevd() is None, reason="numpy's OpenBLAS exports no dsyevd")
class TestEighInPlace:
    @pytest.mark.parametrize("p", [500, 501, 700])
    @pytest.mark.parametrize("kind", ["random", "fit-target"])
    def test_bits_of_numpy_eigh(self, p, kind, blas_threads):
        # p=500 is the largest p that eigh leaves to np.linalg.eigh; above it, in place.
        assert linalg.NUMPY_EIGH_MAX_P == 500
        rng = np.random.default_rng(p)
        if kind == "random":
            A = sym(rng.standard_normal((p, p)))
        else:
            X, truth = spike_model(p, 4, 2, 30.0, 1.0, "sphere", rng)
            A = sym(ttv3(X, truth.u_star))
        w_ref, Q_ref = np.linalg.eigh(A)
        w, Q = eigh(A)
        assert w.tobytes() == w_ref.tobytes()
        assert np.ascontiguousarray(Q).tobytes() == Q_ref.tobytes()
        assert np.shares_memory(Q, A) == (p > 500)

    @pytest.mark.parametrize("p", [1, 2, 7])
    def test_small_p(self, p):
        A = sym(np.random.default_rng(p).standard_normal((p, p)))
        w_ref, Q_ref = np.linalg.eigh(A)
        w, Q = linalg._eigh_in_place(A.copy())
        assert w.tobytes() == w_ref.tobytes() and np.array_equal(Q, Q_ref)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float32", "non-square"])
    def test_rejects_what_lapack_would_misread(self, layout):
        A = sym(np.random.default_rng(0).standard_normal((4, 4)))
        A = {"fortran": np.asfortranarray(A), "strided": A[::2, ::2],
             "float32": A.astype(np.float32), "non-square": A[:2]}[layout]
        with pytest.raises(ValueError, match="square, C-contiguous float64"):
            linalg._eigh_in_place(A)

    def test_nan_entries_raise_lin_alg_error(self):
        A = np.full((5, 5), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(A)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._eigh_in_place(A)


def test_numpy_eigh_where_no_openblas_exports_dsyevd(monkeypatch):
    calls = []
    numpy_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or numpy_eigh(A))
    monkeypatch.setattr(linalg, "_dsyevd", lambda: None)
    A = sym(np.random.default_rng(600).standard_normal((600, 600)))
    w, Q = eigh(A)
    assert calls == [(600, 600)] and not np.shares_memory(Q, A)


class TestNormalize:
    def test_three_four(self):
        assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_unchanged(self):
        u = np.array([0.0, 1.0])
        assert np.allclose(normalize(u), u)

    def test_zero_raises(self):
        with pytest.raises(ZeroVector):
            normalize(np.zeros(3))

    @pytest.mark.parametrize("x", [[1e200, 1e200], [1.0, np.inf], [np.nan, 1.0]],
                             ids=["overflow", "inf", "nan"])
    def test_norm_not_finite_raises(self, x):
        with pytest.raises(NonFiniteEntry, match="vector norm is (inf|nan)"):
            normalize(np.array(x))

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e150])
    def test_finite_norm_keeps_the_bits(self, scale):
        x = scale * np.random.default_rng(4).standard_normal(7)
        assert normalize(x).tobytes() == (x / np.linalg.norm(x)).tobytes()


class TestAngles:
    def test_equal_spans(self):
        rng = np.random.default_rng(2)
        V = random_stiefel(6, 2, rng)
        assert np.allclose(principal_angles(V, V), 0.0, atol=1e-7)
        assert sin_theta_frob(V, V) < 1e-7

    def test_orthogonal_vectors(self):
        e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        assert principal_angles(e1, e2)[0] == pytest.approx(np.pi / 2)
        e1, e2 = np.eye(3)[0], np.eye(3)[1]  # 1-D vectors
        assert principal_angles(e1, e2) == pytest.approx([np.pi / 2])

    def test_45_degrees(self):
        e1 = np.eye(2)[:, :1]
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert principal_angles(e1, diag)[0] == pytest.approx(np.pi / 4)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        V1, V2 = random_stiefel(7, 3, rng), random_stiefel(7, 3, rng)
        assert sin_theta_frob(V1, V2) == pytest.approx(sin_theta_frob(V2, V1), rel=1e-12)

    def test_zero_iff_same_span(self):
        rng = np.random.default_rng(4)
        V = random_stiefel(6, 2, rng)
        Q = random_stiefel(2, 2, rng)
        # sqrt amplifies rounding near zero, so the metric floor is ~1e-8
        assert sin_theta_frob(V, V @ Q) < 1e-6
        proj_diff = np.abs(V @ V.T - (V @ Q) @ (V @ Q).T).max()
        assert proj_diff < 1e-8
        u = random_unit(3, rng)  # a 1-D vector spans one column
        assert sin_theta_frob(u, -u) < 1e-6

    def test_subspace_angle_largest(self):
        V1 = np.eye(3)[:, :2]
        V2 = np.stack([np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0])], axis=1)
        assert subspace_angle(V1, V2) == pytest.approx(np.pi / 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sin_theta_frob(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestProcrustes:
    def test_rotated_copy_zero_error(self):
        rng = np.random.default_rng(5)
        V = random_stiefel(8, 3, rng)
        Q = random_stiefel(3, 3, rng)
        _, armse = procrustes_aligned_rmse(V @ Q, V)
        assert armse < 1e-10

    def test_sign_flip_absorbed(self):
        rng = np.random.default_rng(6)
        v = random_stiefel(5, 1, rng)
        _, armse = procrustes_aligned_rmse(-v, v)
        assert armse < 1e-12

    def test_orthogonal_pair_value(self):
        # by hand: min over signs of ||e2 -+ e1|| / sqrt(2) = sqrt(2)/sqrt(2) = 1
        e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        _, armse = procrustes_aligned_rmse(e1, e2)
        assert armse == pytest.approx(1.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        V_hat = random_stiefel(7, 3, rng)
        V_star = random_stiefel(7, 3, rng)
        Q = random_stiefel(3, 3, rng)
        _, a1 = procrustes_aligned_rmse(V_hat, V_star)
        _, a2 = procrustes_aligned_rmse(V_hat @ Q, V_star)
        assert a1 == pytest.approx(a2, abs=1e-10)

    def test_returned_rotation_is_minimizer(self):
        rng = np.random.default_rng(8)
        V_hat = random_stiefel(6, 2, rng)
        V_star = random_stiefel(6, 2, rng)
        O, armse = procrustes_aligned_rmse(V_hat, V_star)
        assert is_orthonormal(O)
        value = np.linalg.norm(V_star - V_hat @ O) / np.sqrt(6 * 2)
        assert value == pytest.approx(armse, rel=1e-12)
        for _ in range(20):
            Q = random_stiefel(2, 2, rng)
            other = np.linalg.norm(V_star - V_hat @ Q) / np.sqrt(6 * 2)
            assert armse <= other + 1e-12


class TestSignAlignedError:
    def test_exact(self):
        rng = np.random.default_rng(9)
        u = random_unit(6, rng)
        assert sign_aligned_error(u, u) == 0.0
        assert sign_aligned_error(-u, u) == 0.0

    def test_known_value(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert sign_aligned_error(e1, e2) == pytest.approx(np.sqrt(2))


class TestRandomSamplers:
    def test_stiefel_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            V = random_stiefel(7, 3, rng)
            assert is_orthonormal(V)

    def test_square_orthogonal(self):
        rng = np.random.default_rng(11)
        Q = random_stiefel(4, 4, rng)
        assert np.abs(Q @ Q.T - np.eye(4)).max() < 1e-10

    def test_rank_too_large(self):
        rng = np.random.default_rng(12)
        with pytest.raises(RankTooLarge):
            random_stiefel(2, 3, rng)

    def test_positive_unit(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = random_unit(9, rng, positive=True)
            assert np.all(u >= 0)
            assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_haar_mean_projector(self):
        # mean of V V' over many draws approaches (r/p) I
        rng = np.random.default_rng(14)
        p, r, n = 4, 2, 10_000
        acc = np.zeros((p, p))
        sq = np.zeros((p, p))
        for _ in range(n):
            V = random_stiefel(p, r, rng)
            P = V @ V.T
            acc += P
            sq += P**2
        mean = acc / n
        se = np.sqrt(np.maximum(sq / n - mean**2, 0.0) / n)
        dev = np.abs(mean - (r / p) * np.eye(p))
        assert np.all(dev <= 5 * se + 1e-12)
