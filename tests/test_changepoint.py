import warnings

import numpy as np
import pytest

from sstpca import changepoint
from sstpca.changepoint import cusum_tensor, detect_changepoint, detection_snr
from sstpca.decompose import FitOptions
from sstpca.errors import DegenerateSeries, DimensionMismatch, TooFewSlices
from sstpca.linalg import sign_aligned_error, sym
from sstpca.simulate import shift_model
from sstpca.tensor import SemiSymTensor, new_from_slices


def constant_series(T=8, p=5, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    A = A + A.T
    return SemiSymTensor(sym(np.repeat(A[:, :, None], T, axis=2)))


def shift_series(tau, T=12, p=8, d=6.0, seed=1):
    """Noiseless rank-1 shift after slice tau."""
    return shift_model(p, T, 1, d, 0.0, tau, np.random.default_rng(seed))[0]


def cusum_oracle(X, t):
    """Direct evaluation of the standardized partial-sum formula (1-based t)."""
    T = X.T
    S_t = sum(X.slice(i) for i in range(t))
    S_T = sum(X.slice(i) for i in range(T))
    return np.sqrt(T / (t * (T - t))) * (S_t - (t / T) * S_T)


class TestCusumTensor:
    def test_constant_series_is_zero(self):
        C = cusum_tensor(constant_series())
        assert np.abs(C.data).max() < 1e-12

    def test_T2_closed_form(self):
        # plug t=1 into the formula by hand: (X1 - X2) / sqrt(2)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        A = A + A.T
        B = rng.standard_normal((4, 4))
        B = B + B.T
        X = new_from_slices([A, B])
        C = cusum_tensor(X)
        assert C.T == 1
        assert np.allclose(C.slice(0), (A - B) / np.sqrt(2), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        X = SemiSymTensor(sym(rng.standard_normal((5, 5, 7))))
        C = cusum_tensor(X)
        for t in range(1, X.T):
            assert np.allclose(C.slice(t - 1), cusum_oracle(X, t), atol=1e-12)

    def test_mean_shift_peaks_at_change(self):
        # brute force: per-entry magnitude is maximized at the true shift
        tau = 5
        X = shift_series(tau, T=12)
        C = cusum_tensor(X)
        mags = np.abs(C.data)
        diff_support = np.abs(X.slice(0) - X.slice(X.T - 1)) > 1e-9
        argmax_t = np.argmax(mags, axis=2)
        assert np.all(argmax_t[diff_support] == tau - 1)

    def test_too_few_slices(self):
        with pytest.raises(TooFewSlices):
            cusum_tensor(new_from_slices([np.eye(3)]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        X = SemiSymTensor(sym(rng.standard_normal((5, 5, 6))))
        K = rng.standard_normal((5, 5))
        K = K + K.T
        shifted = SemiSymTensor(sym(X.data + K[:, :, None]))
        assert np.allclose(
            cusum_tensor(X).data, cusum_tensor(shifted).data, atol=1e-10
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        X = SemiSymTensor(sym(rng.standard_normal((5, 5, 6))))
        scaled = SemiSymTensor(sym(3.5 * X.data))
        assert np.allclose(cusum_tensor(scaled).data, 3.5 * cusum_tensor(X).data)


class TestDetect:
    def test_noiseless_shift_found(self):
        tau = 6
        X = shift_series(tau, T=12)
        res = detect_changepoint(X, 1)
        assert res.tau_hat == tau
        assert res.score == pytest.approx(np.abs(res.u_hat).max())
        # brute-force scan: the split maximizing the between-segment
        # mean difference (scaled as in the statistic) agrees
        best, best_val = None, -1.0
        for t in range(1, X.T):
            val = float(np.linalg.norm(cusum_oracle(X, t)))
            if val > best_val:
                best, best_val = t, val
        assert res.tau_hat == best

    def test_time_reversal(self):
        tau = 4
        X = shift_series(tau, T=12)
        rev = SemiSymTensor(sym(X.data[:, :, ::-1]))
        res_f = detect_changepoint(X, 1)
        res_b = detect_changepoint(rev, 1)
        assert res_b.tau_hat == X.T - res_f.tau_hat

    def test_scaling_leaves_result(self):
        tau = 5
        X = shift_series(tau, T=10)
        scaled = SemiSymTensor(sym(7.0 * X.data))
        r1, r2 = detect_changepoint(X, 1), detect_changepoint(scaled, 1)
        assert r1.tau_hat == r2.tau_hat
        assert sign_aligned_error(r1.u_hat, r2.u_hat) < 1e-8

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            detect_changepoint(constant_series(), 1)

    def test_too_few_slices(self):
        X = constant_series(T=2)
        with pytest.raises(TooFewSlices):
            detect_changepoint(X, 1)

    @pytest.mark.parametrize("r, message", [(0, "rank 0 must be at least 1"),
                                            (2.5, "rank must be an integer, got 2.5"),
                                            (9, "rank 9 exceeds p=8")])
    def test_bad_rank_raises_before_the_cusum_tensor(self, monkeypatch, r, message):
        calls = []
        monkeypatch.setattr(changepoint, "cusum_tensor", lambda X: calls.append(X))
        with pytest.raises(DimensionMismatch, match=message):
            detect_changepoint(shift_series(5, T=10), r)
        assert calls == []

    def test_rank2_shift(self):
        X, _, _ = shift_model(12, 10, 2, 8.0, 0.0, 5, np.random.default_rng(7))
        assert detect_changepoint(X, 2).tau_hat == 5

    def test_deterministic(self):
        tau = 5
        rng = np.random.default_rng(8)
        X = shift_series(tau, T=10)
        noise = rng.standard_normal((8, 8, 10))
        noisy = SemiSymTensor(sym(X.data + 0.1 * (noise + noise.transpose(1, 0, 2))))
        opts = FitOptions(max_iter=100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = detect_changepoint(noisy, 1, opts)
            r2 = detect_changepoint(noisy, 1, opts)
        assert r1.tau_hat == r2.tau_hat
        assert np.array_equal(r1.u_hat, r2.u_hat)


class TestDetectionSnr:
    def test_known_value(self):
        M1 = np.diag([2.0, 0.0])
        M2 = np.diag([0.0, 1.0])
        # opnorm of diag(2, -1) is 2; min segment 3 of T=10
        assert detection_snr(M1, M2, 3, 10, 0.5) == pytest.approx(2 * np.sqrt(3) / 0.5)
