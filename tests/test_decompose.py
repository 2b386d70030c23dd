import functools
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from sstpca import decompose, fit_adversarial, linalg
from sstpca._parallel import _single_threaded_blas, ordered_map
from sstpca.changepoint import detect_changepoint
from sstpca.decompose import (
    FitOptions,
    _best_eigen_block,
    fit_single_factor,
    init_u,
    u_update,
    v_update,
)
from sstpca.deflate import fit_multi
from sstpca.errors import (
    DegenerateIterate,
    DidNotConvergeWarning,
    DimensionMismatch,
    InvalidGivenInit,
    NonFiniteEntry,
    SingularSmoother,
    ZeroVector,
)
from sstpca.linalg import (
    eigen_block,
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
    sin_theta_frob,
    subspace_angle,
    sym,
    sym_eigen_top_r,
)
from sstpca.simulate import goe_noise, spike_model
from sstpca.tensor import SemiSymTensor, new_from_slices, rank1_outer, trace_product, ttv3


def noiseless_instance(rng, p=12, T=8, r=2, d=4.0):
    V = random_stiefel(p, r, rng)
    u = random_unit(T, rng)
    return rank1_outer(d, V, u), V, u


class TestInitU:
    def test_stable(self):
        assert np.allclose(init_u("stable", 4), [0.5, 0.5, 0.5, 0.5])

    def test_random_scheme_removed(self):
        # a random start is an explicit vector, random_unit(T, rng)
        with pytest.raises(InvalidGivenInit):
            init_u("random", 7)
        with pytest.raises(InvalidGivenInit):
            FitOptions(init="random")

    def test_given_unchanged(self):
        u0 = np.zeros(5)
        u0[0] = 1.0
        assert np.array_equal(init_u(u0, 5), u0)

    def test_given_slightly_off_renormalized(self):
        u0 = np.zeros(5)
        u0[0] = 1.0 + 1e-8
        with pytest.warns(UserWarning):
            u = init_u(u0, 5)
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_given_far_off_rejected(self):
        with pytest.raises(InvalidGivenInit):
            init_u(np.full(4, 1.0), 4)
        with pytest.raises(InvalidGivenInit, match="deviates from unit length by nan"):
            init_u(np.array([np.nan, 1.0, 0.0]), 3)

    def test_unknown_scheme(self):
        with pytest.raises(InvalidGivenInit):
            init_u("bogus", 4)


@pytest.mark.parametrize(
    "kwargs",
    [{"rank": 0}, {"tol": 0.0}, {"max_iter": 0}, {"smoother": np.eye(3)[:, :2]},
     {"smoother": np.array([[2.0, 0.5], [0.0, 2.0]])}, {"smoother": 0.5 * np.eye(3)},
     {"smoother": np.full((3, 3), np.nan)}, {"smoother": np.diag([np.inf, 2.0, 2.0])},
     {"rank": 2.5}, {"max_iter": 2.5}],
    ids=["rank-0", "tol-0", "max-iter-0", "smoother-not-square", "smoother-asymmetric",
         "smoother-below-identity", "smoother-nan", "smoother-inf", "rank-not-integer",
         "max-iter-not-integer"],
)
def test_fit_options_checked_when_built(kwargs):
    with pytest.raises(DimensionMismatch):
        FitOptions(**kwargs)


@pytest.mark.parametrize("tol, message", [
    (np.inf, "tol must be finite"), (0.0, "tol must be positive"), (-1.0, "tol must be positive"),
    (np.nan, "tol must be positive"), (-np.inf, "tol must be positive")],
    ids=["inf", "0", "neg", "nan", "neg-inf"])
def test_fit_options_tol_messages(tol, message):
    # An infinite tol would stop every fit after two iterations, marked converged.
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        FitOptions(tol=tol)


def test_fit_options_accept_numpy_integers():
    opts = FitOptions(rank=np.int64(2), max_iter=np.int32(5))
    assert (opts.rank, opts.max_iter) == (2, 5)


class TestVUpdate:
    def test_noiseless_recovers_span(self):
        rng = np.random.default_rng(1)
        X, V_star, u_star = noiseless_instance(rng)
        V, _ = v_update(X, u_star, 2)
        # sin-theta has a ~1e-8 floor near zero from sqrt rounding
        assert sin_theta_frob(V, V_star) < 1e-7

    def test_degenerate_target(self):
        rng = np.random.default_rng(2)
        X, _, u_star = noiseless_instance(rng)
        perp = np.zeros(X.T)
        perp[np.argmin(np.abs(u_star))] = 1.0
        perp -= (perp @ u_star) * u_star
        perp /= np.linalg.norm(perp)
        with pytest.raises(DegenerateIterate):
            v_update(X, perp, 1)

    def test_eigen_scaled_diagonal(self):
        # eigen of a diagonal matrix by hand: columns e1*2 and e2*1
        X = new_from_slices([np.diag([4.0, 1.0, 0.0])])
        V, lam = v_update(X, np.array([1.0]), 2, eigen_scaled=True)
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(V[:, 0], [2.0, 0.0, 0.0])
        assert np.allclose(V[:, 1], [0.0, 1.0, 0.0])

    def test_indefinite_block_choice(self):
        # eigenvalues 5, 3, -4: the {5, 3} block beats {5, -4} in |trace|
        X = new_from_slices([np.diag([5.0, 3.0, -4.0])])
        V, lam = v_update(X, np.array([1.0]), 2)
        assert sorted(lam) == pytest.approx([3.0, 5.0])


class TestBestEigenBlock:
    @pytest.mark.parametrize("eigen_scaled", [False, True])
    @pytest.mark.parametrize("p, r", [(5, 1), (5, 3), (40, 1), (40, 3)])
    def test_bits_of_selection_from_sym(self, p, r, eigen_scaled):
        # A non-symmetric target: the block is selected from sym(M), and M is consumed.
        M = np.random.default_rng(p + r).standard_normal((p, p))
        S = sym(M)

        def top_or_bottom(w):
            top, bot = np.arange(p - r, p), np.arange(r)
            return top if w[top].sum() >= -w[bot].sum() else bot

        V_ref, lam_ref = eigen_block(S, top_or_bottom)
        if eigen_scaled:
            V_ref = V_ref * np.sqrt(np.abs(lam_ref))[None, :]
        V, lam = _best_eigen_block(M, r, eigen_scaled)
        assert V.tobytes() == V_ref.tobytes()
        assert lam.tobytes() == lam_ref.tobytes()
        assert M.tobytes() == S.tobytes()

    def test_negative_target_is_not_degenerate(self):
        V, lam = _best_eigen_block(np.diag([0.0, -1.0]), 1)
        assert lam.tolist() == [-1.0]
        assert np.abs(V[:, 0]).tolist() == [0.0, 1.0]


@pytest.fixture(scope="module")
def spike501():
    """An instance one node above the largest p that `linalg.eigh` leaves to numpy."""
    X, _ = spike_model(linalg.NUMPY_EIGH_MAX_P + 1, 4, 2, 30.0, 1.0, "sphere",
                       np.random.default_rng(7))
    return X


def fit_bytes(X) -> bytes:
    f, diag = fit_single_factor(X, FitOptions(rank=2))
    return b"".join(np.asarray(a).tobytes()
                    for a in (f.u, f.V, f.d, diag.objective, diag.u_change))


@pytest.mark.skipif(linalg._dsyevd() is None, reason="numpy's OpenBLAS exports no dsyevd")
class TestInPlaceVStep:
    @pytest.mark.parametrize("eigen_scaled", [False, True])
    @pytest.mark.parametrize("r", [1, 3])
    def test_bits_of_the_eigh_step(self, r, eigen_scaled, monkeypatch):
        p = linalg.NUMPY_EIGH_MAX_P + 1
        M = np.random.default_rng(r).standard_normal((p, p))
        with monkeypatch.context() as m:
            m.setattr(linalg, "_dsyevd", lambda: None)
            V_ref, lam_ref = _best_eigen_block(M.copy(), r, eigen_scaled)
        V, lam = _best_eigen_block(M, r, eigen_scaled)
        assert V.tobytes() == V_ref.tobytes() and V.flags.c_contiguous
        assert lam.tobytes() == lam_ref.tobytes()

    def test_fallback_without_dsyevd_gives_the_same_bytes(self, spike501, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(A):
            calls.append(A.shape)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        in_place = fit_bytes(spike501)
        assert calls == []
        monkeypatch.setattr(linalg, "_dsyevd", lambda: None)
        assert fit_bytes(spike501) == in_place
        assert len(calls) > 1

    def test_pooled_fits_give_the_serial_bytes(self, spike501):
        with _single_threaded_blas:
            serial = fit_bytes(spike501)
        assert ordered_map(fit_bytes, [spike501, spike501], 2) == [serial, serial]

    def test_fits_up_to_p500_keep_numpy_eigh(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_in_place", lambda A: pytest.fail("in place"))
        X, _ = spike_model(linalg.NUMPY_EIGH_MAX_P, 6, 1, 100.0, 1.0, "sphere",
                           np.random.default_rng(8))
        assert fit_single_factor(X, FitOptions())[1].converged

    @pytest.mark.parametrize("step", ["v_update", "sym_eigen_top_r"])
    def test_public_steps_above_p500_give_numpy_eigh_bits(self, spike501, step, monkeypatch):
        u = random_unit(spike501.T, np.random.default_rng(3))
        run = {"v_update": lambda: v_update(spike501, u, 2),
               "sym_eigen_top_r": lambda: sym_eigen_top_r(ttv3(spike501, u), 2)}[step]
        calls = []
        numpy_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or numpy_eigh(A))
        V, lam = run()
        assert calls == []
        monkeypatch.setattr(linalg, "_dsyevd", lambda: None)
        V_ref, lam_ref = run()
        assert len(calls) == 1
        assert V.tobytes() == V_ref.tobytes() and lam.tobytes() == lam_ref.tobytes()


class TestUUpdate:
    def test_noiseless_recovers_loading(self):
        rng = np.random.default_rng(3)
        X, V_star, u_star = noiseless_instance(rng)
        u = u_update(X, V_star)
        assert sign_aligned_error(u, u_star) < 1e-10

    def test_zero_target(self):
        v = np.array([1.0, 0.0, 0.0])
        X = new_from_slices([np.outer(v, v)] * 2)
        V = np.eye(3)[:, 1:]
        with pytest.raises(ZeroVector):
            u_update(X, V)
        with pytest.raises(ZeroVector):
            u_update(X, V, 2.0 * np.eye(2))

    @pytest.mark.parametrize("smoother", [None, 2.0 * np.eye(3)], ids=["plain", "smoothed"])
    def test_overflowing_target_norm(self, smoother):
        # Finite trace-products of 1e200 whose norm overflows: neither a zero
        # loading nor a smoother failure.
        X = new_from_slices([np.full((2, 2), 1e200)] * 3)
        with pytest.raises(NonFiniteEntry, match="vector norm is inf"):
            u_update(X, np.eye(2)[:, :1], smoother)

    def test_smoothed_scaled_identity(self):
        # closed form at S = 2I: u = x / (sqrt(2) ||x||), so u' S u = 1
        rng = np.random.default_rng(4)
        X, V_star, _ = noiseless_instance(rng)
        S = 2.0 * np.eye(X.T)
        u = u_update(X, V_star, S)
        x = trace_product(X, V_star)
        assert np.allclose(u, x / (np.sqrt(2) * np.linalg.norm(x)))
        assert float(u @ S @ u) == pytest.approx(1.0, abs=1e-8)

    def test_smoothed_identity_reduces_to_plain(self):
        rng = np.random.default_rng(5)
        X, V_star, _ = noiseless_instance(rng)
        u_plain = u_update(X, V_star)
        u_smooth = u_update(X, V_star, np.eye(X.T))
        assert np.allclose(u_plain, u_smooth, atol=1e-12)

    def test_singular_smoother_fails_the_solve(self):
        rng = np.random.default_rng(6)
        X, V_star, _ = noiseless_instance(rng)
        with pytest.raises(SingularSmoother, match="failed to solve"):
            u_update(X, V_star, np.zeros((X.T, X.T)))

    def test_indefinite_smoother_gives_a_nonpositive_quadratic_form(self):
        # The reflection S = I - 2 x^ x^' is symmetric, indefinite and its own
        # inverse, so x' S^-1 x = -||x||^2.
        rng = np.random.default_rng(7)
        X, V_star, _ = noiseless_instance(rng)
        x = trace_product(X, V_star)
        x_hat = x / np.linalg.norm(x)
        S = np.eye(X.T) - 2.0 * np.outer(x_hat, x_hat)
        with pytest.raises(SingularSmoother, match="quadratic form"):
            u_update(X, V_star, S)


class TestFitSingleFactor:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(6)
        V_star = random_stiefel(40, 3, rng)
        u_star = random_unit(20, rng)
        X = rank1_outer(3.0, V_star, u_star)
        f, diag = fit_single_factor(X, FitOptions(rank=3, init="stable"))
        _, armse = procrustes_aligned_rmse(f.V, V_star)
        assert armse <= 1e-8
        assert sign_aligned_error(f.u, u_star) <= 1e-8
        assert abs(f.d - 3.0) <= 1e-8
        assert diag.converged

    def test_zero_tensor_degenerate(self):
        X = new_from_slices([np.zeros((4, 4))] * 3)
        with pytest.raises(DegenerateIterate):
            fit_single_factor(X, FitOptions(rank=1))

    def test_zero_loading_target_degenerate(self):
        # At rank r = p every trace V' X_t V is tr X_t, here 0.
        X = SemiSymTensor(np.repeat(np.diag([1.0, -1.0])[:, :, None], 3, 2))
        with pytest.raises(DegenerateIterate,
                           match="loading update target is numerically zero") as info:
            fit_single_factor(X, FitOptions(rank=2))
        assert isinstance(info.value.__cause__, ZeroVector)

    def test_negative_objective_flips_the_sign(self, monkeypatch):
        # The adversary pushes the u target to -5 in every slice, so the
        # objective is negative and the fit returns -u with d = -objective.
        X, _ = spike_model(6, 4, 1, 3.0, 0.0, "positive", np.random.default_rng(1))
        # fit_adversarial takes no observer, so one is passed to its loop.
        us = []
        observed = functools.partial(decompose._alternate, observe=lambda V, u: us.append(u))
        monkeypatch.setattr(decompose, "_alternate", observed)
        f, diag = fit_adversarial(X, FitOptions(max_iter=5), 10.0,
                                  lambda k: (np.zeros((6, 6)), np.full(4, -5.0)))
        assert diag.objective[-1] < 0
        assert f.d == -diag.objective[-1]
        assert np.array_equal(f.u, -us[-1])

    def test_fixed_point_in_one_iteration(self):
        rng = np.random.default_rng(7)
        X, V_star, u_star = noiseless_instance(rng, d=2.0)
        # max_iter=1 cannot trip the two-step convergence check, so the
        # non-convergence flag fires even though the iterate is exact
        with pytest.warns(DidNotConvergeWarning):
            f, diag = fit_single_factor(
                X, FitOptions(rank=2, init=u_star, max_iter=1)
            )
        assert sin_theta_frob(f.V, V_star) < 1e-7
        assert sign_aligned_error(f.u, u_star) < 1e-10
        assert f.d == pytest.approx(2.0)

    def test_did_not_converge_warning_names_the_callers_line(self):
        X, _ = spike_model(6, 4, 1, 3.0, 1.0, "sphere", np.random.default_rng(2))
        zero = lambda k: (np.zeros((6, 6)), np.zeros(4))
        for fit, args in ((fit_single_factor, ()), (fit_adversarial, (0.0, zero))):
            with pytest.warns(DidNotConvergeWarning) as record:
                line = inspect.currentframe().f_lineno + 1
                fit(X, FitOptions(max_iter=1), *args)
            assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_monotone_objective_random_fuzz(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            p, T, r = 7, 5, 1 + trial % 3
            X = SemiSymTensor(sym(rng.standard_normal((p, p, T))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, diag = fit_single_factor(X, FitOptions(rank=r, max_iter=40))
            obj = np.asarray(diag.objective)
            assert np.all(np.diff(obj) >= -1e-10)

    def test_monotone_objective_spiked(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            p, T, r = 10, 6, 1 + trial % 3
            V = random_stiefel(p, r, rng)
            u = random_unit(T, rng)
            data = rank1_outer(3.0, V, u).data + goe_noise(p, T, 1.0, rng)
            X = SemiSymTensor(sym(data))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, diag = fit_single_factor(X, FitOptions(rank=r, max_iter=40))
            obj = np.asarray(diag.objective)
            assert np.all(np.diff(obj) >= -1e-10)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(10)
        p, T, r = 9, 6, 2
        data = rank1_outer(3.0, random_stiefel(p, r, rng), random_unit(T, rng)).data
        X = SemiSymTensor(sym(data + goe_noise(p, T, 0.3, rng)))
        Q = random_stiefel(p, p, rng)
        rotated = np.einsum("ij,jkt,lk->ilt", Q, X.data, Q)
        X_rot = SemiSymTensor(sym(rotated))
        opts = FitOptions(rank=r, init="stable")
        f1, _ = fit_single_factor(X, opts)
        f2, _ = fit_single_factor(X_rot, opts)
        assert sign_aligned_error(f2.u, f1.u) < 1e-8
        assert f2.d == pytest.approx(f1.d, rel=1e-8)
        assert sin_theta_frob(f2.V, Q @ f1.V) < 1e-6

    def test_did_not_converge_flagged(self):
        rng = np.random.default_rng(11)
        data = goe_noise(10, 8, 1.0, rng)
        X = SemiSymTensor(sym(data))
        with pytest.warns(DidNotConvergeWarning):
            f, diag = fit_single_factor(X, FitOptions(rank=1, max_iter=2))
        assert not diag.converged
        assert diag.iterations == 2
        assert f.d >= 0

    def test_smoothed_constraint_holds(self):
        rng = np.random.default_rng(12)
        p, T, r = 8, 6, 1
        data = rank1_outer(4.0, random_stiefel(p, r, rng), random_unit(T, rng)).data
        X = SemiSymTensor(sym(data + goe_noise(p, T, 0.2, rng)))
        # second-difference roughness penalty, shifted to satisfy S >= I
        D = np.diff(np.eye(T), n=2, axis=0)
        S = np.eye(T) + 2.0 * (D.T @ D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f, _ = fit_single_factor(X, FitOptions(rank=r, smoother=S, max_iter=100))
        assert float(f.u @ S @ f.u) == pytest.approx(1.0, abs=1e-8)

    def test_sign_convention_nonnegative_scale(self):
        rng = np.random.default_rng(13)
        X, _, _ = noiseless_instance(rng)
        f, _ = fit_single_factor(X, FitOptions(rank=2))
        assert f.d >= 0
        assert float(trace_product(X, f.V) @ f.u) >= 0

    @pytest.mark.parametrize("fit", [
        lambda X: v_update(X, init_u("stable", X.T), 4),
        lambda X: fit_single_factor(X, FitOptions(rank=4)),
        lambda X: fit_multi(X, [4]),
        lambda X: detect_changepoint(X, 4),
    ], ids=["v_update", "fit_single_factor", "fit_multi", "detect_changepoint"])
    def test_rank_too_large(self, fit):
        """The V-step owns the rank rule, so every entry point reports it alike."""
        X = new_from_slices([np.eye(3), np.eye(3), np.diag([1.0, 2.0, 4.0])])
        with pytest.raises(DimensionMismatch, match="rank 4 exceeds p=3"):
            fit(X)

    def test_track_iterates(self):
        rng = np.random.default_rng(14)
        X, _, _ = noiseless_instance(rng)
        seen = []
        _, diag = fit_single_factor(X, FitOptions(rank=2), observe=lambda V, u: seen.append(u))
        assert len(seen) == diag.iterations

    def test_factor_reconstruct(self):
        rng = np.random.default_rng(15)
        X, V_star, u_star = noiseless_instance(rng, d=5.0)
        f, _ = fit_single_factor(X, FitOptions(rank=2))
        assert np.allclose(f.reconstruct().data, X.data, atol=1e-8)

    def test_moderate_snr_recovery_angle(self):
        # recovery stays within ~25 degrees even at moderate signal levels
        # (sharp threshold: halving the signal roughly triples the angle)
        p, T = 40, 40
        d = 1.5 * np.sqrt(p * np.log(T))
        angles_v, angles_u = [], []
        for child in np.random.SeedSequence(99).spawn(20):
            rng = np.random.default_rng(child)
            X, truth = spike_model(p, T, 1, d, 1.0, "positive", rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f, _ = fit_single_factor(X, FitOptions(rank=1, init="stable"))
            angles_v.append(np.degrees(subspace_angle(f.V, truth.V_star)))
            cos_u = min(1.0, abs(float(f.u @ truth.u_star)))
            angles_u.append(np.degrees(np.arccos(cos_u)))
        assert np.median(angles_v) <= 25.0
        assert np.median(angles_u) <= 30.0


class TestObserver:
    @pytest.mark.parametrize("max_iter", [3, 200], ids=["capped", "converged"])
    def test_sees_each_iterate_and_ends_at_the_fit(self, max_iter):
        X, _ = spike_model(20, 8, 2, 15.0, 1.0, "sphere", np.random.default_rng(21))
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DidNotConvergeWarning)
            f, diag = fit_single_factor(X, FitOptions(rank=2, max_iter=max_iter),
                                        observe=lambda V, u: seen.append((V, u)))
        assert diag.converged == (max_iter == 200)
        assert len(seen) == diag.iterations
        # In order: iteration k's objective is <[X; V_k], u_k>.
        assert diag.objective == [float(trace_product(X, V) @ u) for V, u in seen]
        V, u = seen[-1]
        assert V.tobytes() == f.V.tobytes()
        assert np.array_equal(u, f.u) or np.array_equal(u, -f.u)

    def test_a_fit_keeps_no_iterate(self):
        """A capped p=300, rank-4 fit (200 iterations) holds its factor, not its iterates."""
        X, _ = spike_model(300, 20, 4, 1.0, 1.0, "sphere", np.random.default_rng(0))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DidNotConvergeWarning)
                result = fit_single_factor(X, FitOptions(rank=4))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result[1].iterations == 200
        assert held < 0.1e6
