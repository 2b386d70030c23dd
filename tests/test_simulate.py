import tracemalloc
import warnings

import numpy as np
import pytest

from sstpca import simulate
from sstpca.decompose import Factor, FitOptions, fit_single_factor
from sstpca.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidParameter,
    InvalidProbability,
    NonFiniteEntry,
)
from sstpca.linalg import (
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
)
from sstpca.simulate import (
    SpikeTruth,
    SweepCell,
    _recon_error,
    dirichlet_latents,
    fit_adversarial,
    goe_noise,
    rate_sweep,
    rdpg_dirichlet_series,
    rdpg_series_from_latents,
    sbm_expected_adjacency,
    sbm_series,
    spike_model,
    sweep_rows,
    write_sweep_csv,
)
from sstpca.tensor import SemiSymTensor, frob_norm, rank1_outer


class TestSpikeModel:
    def test_sigma_zero_exact(self):
        rng = np.random.default_rng(0)
        X, truth = spike_model(8, 5, 2, 3.0, 0.0, "sphere", rng)
        expected = rank1_outer(3.0, truth.V_star, truth.u_star)
        assert np.allclose(X.data, expected.data, atol=1e-14)

    def test_snr_definition(self):
        rng = np.random.default_rng(1)
        _, truth = spike_model(9, 7, 1, 4.0, 1.0, "sphere", rng)
        assert truth.snr == pytest.approx(4.0 / np.sqrt(9 * np.log(7)), rel=1e-12)

    def test_constant_mode(self):
        rng = np.random.default_rng(2)
        _, truth = spike_model(5, 6, 1, 1.0, 0.5, "constant", rng)
        assert np.allclose(truth.u_star, 1 / np.sqrt(6))

    def test_positive_mode(self):
        rng = np.random.default_rng(3)
        _, truth = spike_model(5, 6, 1, 1.0, 0.5, "positive", rng)
        assert np.all(truth.u_star >= 0)

    def test_output_passes_invariant(self):
        rng = np.random.default_rng(4)
        X, _ = spike_model(6, 4, 2, 2.0, 1.0, "sphere", rng)
        # constructing with validation enabled must not raise
        SemiSymTensor(X.data)

    def test_bad_mode(self):
        with pytest.raises(InvalidParameter):
            spike_model(4, 3, 1, 1.0, 1.0, "diagonal", np.random.default_rng(0))

    @pytest.mark.parametrize("p", [7, 50])
    @pytest.mark.parametrize("u_mode", ["sphere", "positive", "constant"])
    def test_bytes_equal_dense_signal_plus_noise(self, p, u_mode):
        # the in-place sum must give the bytes of the dense signal + noise
        T, r, d, sigma, seed = 6, 3, 4.0, 0.7, 100 + p
        X, _ = spike_model(p, T, r, d, sigma, u_mode, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        V = random_stiefel(p, r, rng)
        u = (np.full(T, 1 / np.sqrt(T)) if u_mode == "constant"
             else random_unit(T, rng, positive=(u_mode == "positive")))
        expected = rank1_outer(d, V, u).data + goe_noise(p, T, sigma, rng)
        assert X.data.tobytes() == expected.tobytes()

    def test_output_is_readonly(self):
        X, _ = spike_model(5, 3, 1, 2.0, 1.0, "sphere", np.random.default_rng(6))
        with pytest.raises(ValueError):
            X.data[0, 1, 0] = 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DimensionMismatch):
            spike_model(5, 3, 1, -1.0, 1.0, "sphere", np.random.default_rng(0))

    def test_rejected_call_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DimensionMismatch):
            spike_model(5, 3, 1, -1.0, 1.0, "sphere", rng)
        assert rng.bit_generator.state == state


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, error", [
    (lambda rng: FitOptions(tol=NAN), DimensionMismatch),
    (lambda rng: spike_model(5, 3, 1, NAN, 1.0, "sphere", rng), DimensionMismatch),
    (lambda rng: spike_model(5, 3, 1, 2.0, NAN, "sphere", rng), InvalidParameter),
    (lambda rng: goe_noise(5, 3, -1.0, rng), InvalidParameter),
    (lambda rng: rank1_outer(NAN, np.eye(3, 1), np.ones(2)), DimensionMismatch),
    (lambda rng: fit_adversarial(spike_model(6, 4, 1, 5.0, 0.0, "sphere", rng)[0], FitOptions(),
                                 NAN, lambda k: (10.0 * np.eye(6), np.zeros(4))),
     DimensionMismatch),
    (lambda rng: dirichlet_latents(5, 2, NAN, rng), InvalidParameter),
    (lambda rng: spike_model(5, 3, 1, INF, 1.0, "sphere", rng), DimensionMismatch),
    (lambda rng: spike_model(5, 3, 1, 2.0, INF, "sphere", rng), InvalidParameter),
    (lambda rng: goe_noise(5, 3, INF, rng), InvalidParameter),
    (lambda rng: rank1_outer(INF, np.eye(3, 1), np.ones(2)), DimensionMismatch),
    (lambda rng: rank1_outer(1.0, np.full((3, 1), NAN), np.ones(2)), NonFiniteEntry),
    (lambda rng: rank1_outer(1e308, np.eye(3, 1), np.ones(2)), NonFiniteEntry),
    (lambda rng: spike_model(0, 3, 1, 2.0, 1.0, "sphere", rng), InvalidParameter),
    (lambda rng: spike_model(5, 0, 1, 2.0, 1.0, "sphere", rng), InvalidParameter),
    (lambda rng: spike_model(5, -1, 1, 2.0, 1.0, "sphere", rng), InvalidParameter),
    (lambda rng: rate_sweep([SweepCell(6, 4, 1, 0.0, 1.0)], reps=1, seed=0), InvalidParameter),
    (lambda rng: spike_model(2, 3, 2, 1.5e308, 0.0, "sphere", rng), NonFiniteEntry),
    (lambda rng: spike_model(3, 4, 1, 3.0, 1e308, "sphere", rng), NonFiniteEntry),
], ids=["tol", "spike-d", "spike-sigma", "goe-sigma-neg", "rank1-d", "adversarial-budget",
        "dirichlet-alpha", "spike-d-inf", "spike-sigma-inf", "goe-sigma-inf", "rank1-d-inf",
        "rank1-V-nan", "rank1-overflow", "spike-p-0", "spike-T-0", "spike-T-neg",
        "sweep-d-0", "spike-overflow-d", "spike-overflow-sigma"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nan_and_negative_model_values_rejected(call, error):
    with pytest.raises(error):
        call(np.random.default_rng(0))


class TestReconError:
    @pytest.mark.parametrize("r_fit, eigen_scaled", [(2, False), (3, False), (1, True)])
    def test_matches_dense_error(self, r_fit, eigen_scaled):
        rng = np.random.default_rng(20 + r_fit)
        p, T = 12, 7
        truth = SpikeTruth(random_unit(T, rng), random_stiefel(p, 2, rng), 3.0, 1.0, 0.0)
        V = random_stiefel(p, r_fit, rng)
        if eigen_scaled:
            V = V * np.sqrt(np.linspace(4.0, 0.5, r_fit))
        factor = Factor(u=random_unit(T, rng), V=V, d=2.2)
        signal = rank1_outer(truth.d, truth.V_star, truth.u_star)
        dense = frob_norm(factor.reconstruct().data - signal.data) / frob_norm(signal)
        assert _recon_error(factor, truth) == pytest.approx(dense, rel=1e-12)

    def test_sweep_recon_matches_dense_error(self):
        # a near-truth fit, where the expansion cancels most
        rng = np.random.default_rng(30)
        X, truth = spike_model(15, 8, 2, 20.0, 0.5, "sphere", rng)
        factor, _ = fit_single_factor(X, FitOptions(rank=2))
        signal = rank1_outer(truth.d, truth.V_star, truth.u_star)
        dense = frob_norm(factor.reconstruct().data - signal.data) / frob_norm(signal)
        assert 0.0 < dense < 0.2
        assert _recon_error(factor, truth) == pytest.approx(dense, rel=1e-12)


class TestGoeNoise:
    def test_variances_within_5_se(self):
        rng = np.random.default_rng(5)
        p, T = 40, 150  # ~117k off-diagonal draws
        E = goe_noise(p, T, 1.0, rng)
        iu = np.triu_indices(p, k=1)
        off = E[iu[0], iu[1], :].ravel()
        diag = E[np.arange(p), np.arange(p), :].ravel()
        se_off = np.sqrt(2.0 / (off.size - 1))  # SE of the sample variance
        se_diag = 2.0 * np.sqrt(2.0 / (diag.size - 1))
        assert abs(off.var(ddof=1) - 1.0) <= 5 * se_off
        assert abs(diag.var(ddof=1) - 2.0) <= 5 * se_diag

    def test_symmetry_and_zero_mean(self):
        rng = np.random.default_rng(6)
        E = goe_noise(3, 10_000, 1.0, rng)
        assert np.abs(E - E.transpose(1, 0, 2)).max() == 0.0
        mean = E.mean(axis=2)
        se = E.std(axis=2, ddof=1) / np.sqrt(E.shape[2])
        assert np.all(np.abs(mean) <= 5 * se)


def _one_shot_goe(p, T, sigma, rng):
    """The draw `goe_noise` replaced: all off-diagonal pairs in one (T, n) array."""
    iu = np.triu_indices(p, k=1)
    out = np.zeros((p, p, T))
    off = rng.normal(0.0, sigma, size=(T, iu[0].size))
    diag = rng.normal(0.0, sigma * np.sqrt(2.0), size=(T, p))
    out[iu[0], iu[1], :] = off.T
    out[iu[1], iu[0], :] = off.T
    out[np.arange(p), np.arange(p), :] = diag.T
    return out


class TestGoeNoiseBlocks:
    """The block draw gives the bytes of the one-shot draw and leaves the
    generator where the one-shot draw left it."""

    @staticmethod
    def assert_same_as_one_shot(p, T, sigma, seed=11):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert goe_noise(p, T, sigma, rng).tobytes() == _one_shot_goe(p, T, sigma, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 1.0])  # 0 gives signed zeros
    @pytest.mark.parametrize("T", [1, 3, 20])
    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_equals_one_shot_draw(self, p, T, sigma):
        self.assert_same_as_one_shot(p, T, sigma)

    # p=60 has 1770 pairs, 14160 bytes a slice: blocks of 1 and of 3 slices (last one 2).
    @pytest.mark.parametrize("budget", [1, 3 * 14160 + 5], ids=["1-slice", "3-slices"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_small_blocks_equal_one_shot_draw(self, monkeypatch, budget, sigma):
        monkeypatch.setattr(simulate, "_GOE_BLOCK_BYTES", budget)
        self.assert_same_as_one_shot(60, 20, sigma)

    @pytest.mark.parametrize("budget", [None, 2 * 2**20], ids=["default", "2MB"])
    def test_peak_memory_is_output_plus_one_block(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(simulate, "_GOE_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            out = goe_noise(400, 20, 1.0, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + simulate._GOE_BLOCK_BYTES + 2**20


def _one_shot_bernoulli(probs, T, rng):
    """The draw `_bernoulli_slices` replaced: all T x n uniforms in one array,
    compared into a second float array and scattered by fancy indexing."""
    p = probs.shape[0]
    iu = np.triu_indices(p, k=1)
    edge_probs = np.clip(probs[iu], 0.0, 1.0)
    out = np.zeros((p, p, T))
    draws = (rng.random(size=(T, iu[0].size)) < edge_probs[None, :]).astype(np.float64)
    out[iu[0], iu[1], :] = draws.T
    out[iu[1], iu[0], :] = draws.T
    return out


class TestBernoulliBlocks:
    """The block draw gives the bytes of the one-shot draw and leaves the
    generator where the one-shot draw left it."""

    @staticmethod
    def assert_same_as_one_shot(p, T, seed=21):
        # Probabilities outside [0, 1] check the clipping; 0 and 1 the edges of `<`.
        probs = np.random.default_rng(p).uniform(-0.2, 1.2, size=(p, p))
        probs[0, -1] = 0.0
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simulate._bernoulli_slices(probs, T, rng).data
        assert got.tobytes() == _one_shot_bernoulli(probs, T, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("T", [1, 3, 20])
    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_equals_one_shot_draw(self, p, T):
        self.assert_same_as_one_shot(p, T)

    # p=60 has 1770 pairs, 14160 bytes a slice: blocks of 1 and of 3 slices (last one 2).
    @pytest.mark.parametrize("budget", [1, 3 * 14160 + 5], ids=["1-slice", "3-slices"])
    def test_small_blocks_equal_one_shot_draw(self, monkeypatch, budget):
        monkeypatch.setattr(simulate, "_GOE_BLOCK_BYTES", budget)
        self.assert_same_as_one_shot(60, 20)

    def test_series_equal_one_shot_draw(self):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = sbm_series(30, 5, 3, 0.6, 0.1, rng).data
        ref = _one_shot_bernoulli(sbm_expected_adjacency(30, 3, 0.6, 0.1), 5, ref_rng)
        assert got.tobytes() == ref.tobytes()
        lat = dirichlet_latents(30, 3, 0.5, np.random.default_rng(5))
        got = rdpg_series_from_latents(lat, 5, rng).data
        assert got.tobytes() == _one_shot_bernoulli(lat @ lat.T, 5, ref_rng).tobytes()

    @pytest.mark.parametrize("budget", [None, 2 * 2**20], ids=["default", "2MB"])
    def test_peak_memory_is_output_plus_one_block(self, monkeypatch, budget):
        """Besides the output and one block, the draw holds only the clipped
        edge probabilities (8 bytes a pair). The one-shot draw needs the output
        plus two (T, n) float arrays: 41.9 MB against the 2 MB case's bound of
        29.4 MB. At the default budget one block holds all 20 slices."""
        if budget is not None:
            monkeypatch.setattr(simulate, "_GOE_BLOCK_BYTES", budget)
        p, T = 400, 20
        probs = sbm_expected_adjacency(p, 4, 0.3, 0.05)
        tracemalloc.start()
        try:
            out = simulate._bernoulli_slices(probs, T, np.random.default_rng(0)).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edge_bytes = 8 * p * (p - 1) // 2
        assert peak <= out.nbytes + simulate._GOE_BLOCK_BYTES + edge_bytes + 2**20


class TestSbm:
    def test_probability_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvalidProbability):
            sbm_series(10, 3, 2, 0.2, 0.8, rng)  # q_out > p_in
        with pytest.raises(InvalidProbability):
            sbm_series(10, 3, 2, 1.2, 0.1, rng)

    def test_erdos_renyi_density(self):
        rng = np.random.default_rng(8)
        p, T, prob = 30, 40, 0.35
        X = sbm_series(p, T, 3, prob, prob, rng)
        iu = np.triu_indices(p, k=1)
        draws = X.data[iu[0], iu[1], :].ravel()
        se = np.sqrt(prob * (1 - prob) / draws.size)
        assert abs(draws.mean() - prob) <= 5 * se

    def test_exact_cliques(self):
        rng = np.random.default_rng(9)
        X = sbm_series(12, 2, 3, 1.0, 0.0, rng)
        expected = sbm_expected_adjacency(12, 3, 1.0, 0.0)
        assert np.array_equal(X.slice(0), expected)
        assert np.linalg.matrix_rank(X.slice(0) + np.eye(12)) == 3

    def test_expected_adjacency_spectrum(self):
        # eigendecompose the analytic expectation: 5 dominant eigenvalues
        EA = sbm_expected_adjacency(105, 5, 0.8, 0.2)
        w = np.sort(np.abs(np.linalg.eigvalsh(EA)))[::-1]
        assert w[4] > 10.0
        assert w[5] < 1.0

    def test_uneven_blocks_pad_last(self):
        EA = sbm_expected_adjacency(7, 3, 0.9, 0.1)
        # blocks of size 2, 2, 3: nodes 4..6 share the last block
        assert EA[4, 5] == 0.9 and EA[5, 6] == 0.9 and EA[0, 6] == 0.1

    def test_zero_diagonal(self):
        rng = np.random.default_rng(10)
        X = sbm_series(8, 3, 2, 0.7, 0.3, rng)
        assert np.abs(np.einsum("iit->it", X.data)).max() == 0.0


class TestRdpg:
    def test_parameter_validation(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InvalidParameter):
            rdpg_dirichlet_series(5, 3, 0, 0.3, rng)
        with pytest.raises(InvalidParameter):
            rdpg_dirichlet_series(5, 3, 2, -1.0, rng)

    def test_rank_one_complete_graph(self):
        rng = np.random.default_rng(12)
        X = rdpg_dirichlet_series(6, 3, 1, 0.3, rng)
        off = X.data.copy()
        for t in range(3):
            np.fill_diagonal(off[:, :, t], 1.0)
        assert np.all(off == 1.0)

    def test_latents_on_simplex(self):
        rng = np.random.default_rng(13)
        lat = dirichlet_latents(20, 4, 0.3, rng)
        assert np.all(lat >= 0)
        assert np.allclose(lat.sum(axis=1), 1.0)
        probs = lat @ lat.T
        assert probs.min() >= 0.0 and probs.max() <= 1.0 + 1e-12

    def test_empirical_mean_matches_gram(self):
        rng = np.random.default_rng(14)
        lat = dirichlet_latents(10, 3, 0.5, rng)
        T = 500
        X = rdpg_series_from_latents(lat, T, rng)
        gram = lat @ lat.T
        iu = np.triu_indices(10, k=1)
        emp = X.data[iu[0], iu[1], :].mean(axis=1)
        se = np.sqrt(gram[iu] * (1 - gram[iu]) / T) + 1e-9
        assert np.all(np.abs(emp - gram[iu]) <= 5 * se)


class TestAdversarial:
    def test_zero_budget_bit_identical(self):
        rng = np.random.default_rng(15)
        X, _ = spike_model(8, 6, 1, 5.0, 0.5, "sphere", rng)
        zero = lambda k: (np.zeros((8, 8)), np.zeros(6))
        opts = FitOptions(rank=1, max_iter=50)
        f_ref, d_ref = fit_single_factor(X, opts)
        f_adv, d_adv = fit_adversarial(X, opts, 0.0, zero)
        assert np.array_equal(f_ref.u, f_adv.u)
        assert np.array_equal(f_ref.V, f_adv.V)
        assert f_ref.d == f_adv.d
        assert d_ref.objective == d_adv.objective

    def test_over_budget_raises(self):
        rng = np.random.default_rng(16)
        X, _ = spike_model(6, 4, 1, 5.0, 0.0, "sphere", rng)
        bad = lambda k: (2.0 * np.eye(6), np.zeros(4))
        with pytest.raises(BudgetExceeded):
            fit_adversarial(X, FitOptions(rank=1), 1.0, bad)
        bad_u = lambda k: (np.zeros((6, 6)), np.full(4, 1.0))
        with pytest.raises(BudgetExceeded):
            fit_adversarial(X, FitOptions(rank=1), 1.0, bad_u)

    def test_bounded_error_under_small_budget(self):
        # worst of 10 random adversaries at a tenth of the signal strength
        rng = np.random.default_rng(17)
        p, T, d = 10, 8, 6.0
        X, truth = spike_model(p, T, 1, d, 0.0, "sphere", rng)
        budget = 0.1 * d
        worst = 0.0
        for trial in range(10):
            adv_rng = np.random.default_rng(100 + trial)

            def adversary(k):
                A = adv_rng.standard_normal((p, p))
                A = (A + A.T) / 2
                A *= budget / (np.abs(np.linalg.eigvalsh(A)).max() + 1e-12)
                e = adv_rng.standard_normal(T)
                e *= budget / np.linalg.norm(e)
                return A, e

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f, _ = fit_adversarial(X, FitOptions(rank=1, max_iter=60), budget, adversary)
            worst = max(worst, sign_aligned_error(f.u, truth.u_star))
        # bounded well away from a random vector, not a specific value
        assert worst < 0.5


def test_rep_record_scores_every_iterate():
    """One record serves the sweep and fig3: every iterate's errors, the last
    of them the fitted factor's, bit for bit a fit redone from the rep's seed."""
    cell = SweepCell(p=8, T=6, r=2, d=8.0, sigma=0.5, u_mode="positive", init="positive")
    seeds = np.random.SeedSequence(19).spawn(3)
    fits = simulate._run_reps([(cell, seed_seq) for seed_seq in seeds])
    for fit, seed_seq in zip(fits, seeds):
        assert len(fit.armses) == len(fit.u_errs) == fit.diag.iterations
        assert fit.stat_iteration == simulate._stat_iteration(fit.armses, fit.armses[-1])
        rng = np.random.default_rng(seed_seq)
        X, truth = spike_model(cell.p, cell.T, cell.r, cell.d, cell.sigma, cell.u_mode, rng)
        init = random_unit(cell.T, rng, positive=True)
        factor, diag = fit_single_factor(X, FitOptions(rank=cell.r, init=init))
        assert fit.armses == [procrustes_aligned_rmse(V, truth.V_star)[1] for V in diag.V_trace]
        assert fit.armses[-1] == procrustes_aligned_rmse(factor.V, truth.V_star)[1]
        assert fit.u_errs[-1] == sign_aligned_error(factor.u, truth.u_star) / np.sqrt(cell.T)


class TestRateSweep:
    def test_bitwise_reproducible_and_thread_invariant(self):
        cells = [SweepCell(p=6, T=5, r=1, d=5.0, sigma=0.5)]
        a = rate_sweep(cells, reps=5, seed=3, n_threads=1)
        b = rate_sweep(cells, reps=5, seed=3, n_threads=1)
        c = rate_sweep(cells, reps=5, seed=3, n_threads=4)
        assert sweep_rows(a) == sweep_rows(b) == sweep_rows(c)

    def test_oracle_and_stable_inits_run(self):
        cells = [
            SweepCell(p=6, T=5, r=1, d=5.0, sigma=0.5, u_mode="positive", init=i)
            for i in ("oracle", "stable", "random")
        ]
        res = rate_sweep(cells, reps=3, seed=4)
        assert len(res) == 3
        assert all(r.u_err_mean >= 0 for r in res)

    def test_csv_schema(self, tmp_path):
        cells = [SweepCell(p=5, T=4, r=1, d=4.0, sigma=0.5)]
        res = rate_sweep(cells, reps=2, seed=5)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(res, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,T,r,d,sigma,u_mode,init,reps,metric,mean,sd"
        metrics = {line.split(",")[8] for line in lines[1:]}
        assert {"u_err", "armse", "recon_err", "iters_to_stat"} <= metrics

    def test_threaded_sweeps_leave_warning_state_alone(self):
        # Every rep hits the iteration cap and warns. Entering catch_warnings
        # on pool threads restores the process-wide filters out of order, so
        # a warning can leak to the caller and the filters can stay changed.
        cells = [SweepCell(p=6, T=5, r=1, d=2.0, sigma=1.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            for seed in range(40):
                rate_sweep(cells, reps=16, seed=seed, max_iter=2, n_threads=2)
                assert warnings.filters == before, f"filters changed by sweep {seed}"
        assert [str(w.message) for w in caught] == []
