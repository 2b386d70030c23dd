import importlib
import warnings

import numpy as np
import pytest

from sstpca import ranksel
from sstpca.decompose import Factor, FitOptions, fit_single_factor
from sstpca.deflate import (
    SCHEMES,
    SCHUR_COND_LIMIT,
    deflate,
    fit_multi,
    orthogonality_report,
    reconstruct,
    slices_all_psd,
)
from sstpca.errors import DimensionMismatch, NonFiniteEntry, SingularSchurBlock
from sstpca.linalg import (
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
    sym,
)
from sstpca.tensor import SemiSymTensor, frob_norm, new_from_slices, rank1_outer, ttm, ttv3


def fitted_factor(X, r=2, max_iter=60):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f, _ = fit_single_factor(X, FitOptions(rank=r, max_iter=max_iter))
    return f


def random_instance(seed, p=9, T=6):
    rng = np.random.default_rng(seed)
    return SemiSymTensor(sym(rng.standard_normal((p, p, T))))


def psd_instance(seed, p=9, T=6):
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(T):
        B = rng.standard_normal((p, p))
        slices.append(B @ B.T / p + 0.05 * np.eye(p))
    return new_from_slices(slices)


def two_factor_instance(T=6, p=10, r1=2, r2=2, d1=10.0, d2=5.0):
    """Exact two-factor model: orthogonal components, loadings with all
    entries nonzero and both visible from the constant initialization."""
    rng = np.random.default_rng(42)
    Q = random_stiefel(p, r1 + r2, rng)
    V1, V2 = Q[:, :r1], Q[:, r1:]
    u1 = np.full(T, 1.0)
    u1[0] = 2.0
    u1 /= np.linalg.norm(u1)
    w = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(T)]) + 0.4
    u2 = w - (w @ u1) * u1
    u2 /= np.linalg.norm(u2)
    assert np.all(np.abs(u1) > 1e-3) and np.all(np.abs(u2) > 1e-3)
    assert abs(u2.sum()) > 1e-3  # visible from the constant start
    X = SemiSymTensor(
        sym(rank1_outer(d1, V1, u1).data + rank1_outer(d2, V2, u2).data)
    )
    return X, (V1, u1, d1), (V2, u2, d2)


class TestDeflate:
    def test_hotelling_exact_factor_zeroes(self):
        rng = np.random.default_rng(0)
        V = random_stiefel(7, 2, rng)
        u = random_unit(5, rng)
        X = rank1_outer(3.0, V, u)
        Y = deflate(X, Factor(u=u, V=V, d=3.0), "hotelling")
        assert frob_norm(Y) < 1e-12

    def test_projection_one_way_orthogonality(self):
        X = random_instance(1)
        f = fitted_factor(X)
        Y = deflate(X, f, "projection")
        assert np.abs(ttv3(Y, f.u)).max() < 1e-10 * frob_norm(X)
        assert np.abs(ttm(Y, f.V, 1)).max() < 1e-10 * frob_norm(X)

    def test_schur_singular_block(self):
        # V'XV vanishes on the slice where the loading is zero
        rng = np.random.default_rng(2)
        V = random_stiefel(6, 2, rng)
        u = np.array([1.0, 0.0, 0.0])
        X = rank1_outer(2.0, V, u)
        with pytest.raises(SingularSchurBlock) as err:
            deflate(X, Factor(u=u, V=V, d=2.0), "schur")
        assert err.value.slice_index in (1, 2)

    def test_unknown_scheme(self):
        X = random_instance(3)
        f = fitted_factor(X)
        with pytest.raises(DimensionMismatch):
            deflate(X, f, "powell")

    @pytest.mark.parametrize("entry", ["fit_multi", "rank_select_bic"])
    def test_unknown_scheme_is_rejected_before_any_fit(self, entry, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted before the scheme check")

        for module in (importlib.import_module("sstpca.deflate"), ranksel):
            monkeypatch.setattr(module, "fit_single_factor", no_fit)
        call = {"fit_multi": lambda X: fit_multi(X, [1], "powell"),
                "rank_select_bic": lambda X: ranksel.rank_select_bic(X, 2, 1, scheme="powell")}
        with pytest.raises(DimensionMismatch, match="^unknown deflation scheme 'powell'$"):
            call[entry](random_instance(3))

    def test_dims_checked(self):
        X = random_instance(4)
        f = fitted_factor(X)
        other = random_instance(5, p=6, T=3)
        with pytest.raises(DimensionMismatch):
            deflate(other, f, "hotelling")

    def test_output_revalidated_symmetric(self):
        X = random_instance(6)
        f = fitted_factor(X)
        for scheme in SCHEMES:
            try:
                Y = deflate(X, f, scheme)
            except SingularSchurBlock:
                continue
            assert np.abs(Y.data - Y.data.transpose(1, 0, 2)).max() == 0.0


class TestOrthogonalityPatterns:
    def test_scheme_dependent_zero_pattern(self):
        for seed in range(15):
            X = psd_instance(seed)
            f = fitted_factor(X)
            scale = frob_norm(X)
            hd = orthogonality_report(deflate(X, f, "hotelling"), f)
            assert hd.two_way <= 1e-10 * scale
            for scheme in ("projection", "schur"):
                rep = orthogonality_report(deflate(X, f, scheme), f)
                assert rep.two_way <= 1e-10 * scale
                assert rep.u_one_way <= 1e-10 * scale
                assert rep.v_one_way_mode1 <= 1e-10 * scale
                assert rep.v_one_way_mode2 <= 1e-10 * scale

    def test_schur_subsequent_orthogonality(self):
        X = psd_instance(99, p=10, T=6)
        scale = frob_norm(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit_multi(X, [2, 2, 2], "schur", FitOptions(max_iter=60))
        residuals = [X]
        for f in dec.factors:
            residuals.append(deflate(residuals[-1], f, "schur"))
        for k in range(3):
            for later in residuals[k + 1 :]:
                assert np.abs(ttm(later, dec.factors[k].V, 1)).max() <= 1e-10 * scale
                assert np.abs(ttm(later, dec.factors[k].V, 2)).max() <= 1e-10 * scale


class TestFitMulti:
    def test_single_factor_matches(self):
        X = random_instance(7)
        opts = FitOptions(rank=2, max_iter=60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f_single, _ = fit_single_factor(X, opts)
            dec = fit_multi(X, [2], "hotelling", opts)
        assert np.array_equal(dec.factors[0].u, f_single.u)
        assert np.array_equal(dec.factors[0].V, f_single.V)
        assert dec.factors[0].d == f_single.d

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_two_factor_exact_recovery(self, scheme):
        X, (V1, u1, d1), (V2, u2, d2) = two_factor_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit_multi(X, [2, 2], scheme, FitOptions(max_iter=80))
        _, a1 = procrustes_aligned_rmse(dec.factors[0].V, V1)
        _, a2 = procrustes_aligned_rmse(dec.factors[1].V, V2)
        assert a1 <= 1e-6 and a2 <= 1e-6
        assert sign_aligned_error(dec.factors[0].u, u1) <= 1e-6
        assert sign_aligned_error(dec.factors[1].u, u2) <= 1e-6
        assert dec.factors[0].d > dec.factors[1].d
        assert dec.factors[0].d == pytest.approx(d1, rel=1e-8)
        # residual norms strictly decreasing on the exact instance
        norms = dec.residual_norms
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_hotelling_reconstruction_telescopes(self):
        X = random_instance(8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit_multi(X, [2, 1], "hotelling", FitOptions(max_iter=60))
        residual = X
        for f in dec.factors:
            residual = deflate(residual, f, "hotelling")
        total = reconstruct(dec, X.p, X.T).data + residual.data
        assert np.abs(total - X.data).max() <= 1e-10 * frob_norm(X)

    @pytest.mark.parametrize("scheme", ("hotelling", "projection"))
    def test_norm_monotone(self, scheme):
        for seed in range(10):
            X = random_instance(20 + seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dec = fit_multi(X, [2, 2], scheme, FitOptions(max_iter=50))
            norms = dec.residual_norms
            assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_schur_norm_monotone_on_psd_step(self):
        # guaranteed only while the input to the step is slicewise PSD
        for seed in range(10):
            X = psd_instance(40 + seed)
            f = fitted_factor(X)
            assert slices_all_psd(X)
            Y = deflate(X, f, "schur")
            assert frob_norm(Y) <= frob_norm(X) + 1e-10

    def test_schur_warns_on_non_psd(self):
        X = random_instance(9)
        if slices_all_psd(X):
            pytest.skip("instance happens to be PSD")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_multi(X, [1], "schur", FitOptions(max_iter=30))
        assert any("PSD" in str(w.message) for w in caught)

    def test_cpve_explained_fraction(self):
        X, _, _ = two_factor_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit_multi(X, [2, 2], "hotelling", FitOptions(max_iter=80))
        assert dec.cpve[0] == pytest.approx(1 - dec.residual_norms[1] ** 2 / dec.residual_norms[0] ** 2)
        assert dec.cpve[-1] == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 <= c <= 1.0 + 1e-12 for c in dec.cpve)
        assert dec.residual_ratios[0] == pytest.approx(1 - dec.cpve[0])

    def test_error_annotated_with_factor_index(self):
        X = new_from_slices([np.zeros((4, 4))] * 3)
        with pytest.raises(Exception, match="factor 0"):
            fit_multi(X, [1], "hotelling", FitOptions(max_iter=5))

    def test_bad_rank_raises_before_any_fit(self, monkeypatch):
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return fit_single_factor(*args, **kwargs)

        # `sstpca.deflate` as an attribute path names the function the package exports.
        module = importlib.import_module("sstpca.deflate")
        monkeypatch.setattr(module, "fit_single_factor", counting_fit)
        monkeypatch.setattr(module, "deflate", lambda *args: calls.append(args))
        X = random_instance(3)
        with pytest.raises(DimensionMismatch, match="rank 0 must be at least 1"):
            fit_multi(X, [3, 0])
        for rank in (2.5, 2.0):  # not truncated to a rank-2 fit
            with pytest.raises(DimensionMismatch, match=f"rank must be an integer, got {rank}"):
                fit_multi(X, [rank])
        with pytest.raises(DimensionMismatch, match="^factor 1: rank 10 exceeds p=9$"):
            fit_multi(X, [2, 10])
        assert calls == []

    def test_numpy_integer_ranks_fit_as_ints(self):
        X = random_instance(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ints, numpy_ints = fit_multi(X, [2, 1]), fit_multi(X, np.array([2, 1]))
        for f, g in zip(ints.factors, numpy_ints.factors, strict=True):
            assert np.array_equal(f.V, g.V) and np.array_equal(f.u, g.u) and f.d == g.d

    def test_nonmonotone_scale_warns(self):
        # second factor is stronger than the first in this construction
        X, _, _ = two_factor_instance(d1=2.0, d2=8.0)
        # stable init picks the constant-loading factor (d=2) first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dec = fit_multi(X, [2, 2], "hotelling", FitOptions(max_iter=80))
        if dec.factors[0].d < dec.factors[1].d:
            assert any("monotone" in str(w.message) for w in caught)


class TestProjectionAlgebra:
    @pytest.mark.parametrize("p", (5, 40))
    @pytest.mark.parametrize("r", (1, 3))
    def test_low_rank_form_matches_dense_products(self, p, r):
        T = 6
        rng = np.random.default_rng(10 * p + r)
        X = SemiSymTensor(sym(rng.standard_normal((p, p, T))))
        f = Factor(u=random_unit(T, rng), V=random_stiefel(p, r, rng), d=1.0)
        P = np.eye(p) - f.V @ f.V.T
        Pu = np.eye(T) - np.outer(f.u, f.u)
        dense = ttm(ttm(ttm(X, P, 1), P, 2), Pu, 3)
        got = deflate(X, f, "projection").data
        assert np.abs(got - dense).max() <= 1e-12 * frob_norm(X)


class TestSchurAlgebra:
    @pytest.mark.parametrize("p", (5, 40))
    @pytest.mark.parametrize("r", (1, 3))
    def test_batched_form_matches_per_slice_complements(self, p, r):
        T = 6
        X = psd_instance(10 * p + r, p=p, T=T)
        rng = np.random.default_rng(10 * p + r)
        f = Factor(u=random_unit(T, rng), V=random_stiefel(p, r, rng), d=1.0)
        V = f.V
        tilde = np.stack(
            [A - A @ V @ np.linalg.solve(V.T @ A @ V, V.T @ A) for A in np.moveaxis(X.data, 2, 0)],
            axis=-1,
        )
        dense = ttm(tilde, np.eye(T) - np.outer(f.u, f.u), 3)
        got = deflate(X, f, "schur").data
        assert np.abs(got - dense).max() <= 1e-12 * frob_norm(X)

    def test_names_the_singular_slice(self):
        # slice 2 is P A P + v v' with P = I - VV' and v the first column of V,
        # so its block V' X_2 V is diag(1, 0) up to rounding
        rng = np.random.default_rng(3)
        V = random_stiefel(8, 2, rng)
        P = np.eye(8) - V @ V.T
        slices = [B @ B.T + np.eye(8) for B in rng.standard_normal((4, 8, 8))]
        slices[2] = P @ slices[2] @ P + np.outer(V[:, 0], V[:, 0])
        with pytest.raises(SingularSchurBlock) as err:
            deflate(new_from_slices(slices), Factor(u=random_unit(4, rng), V=V, d=1.0), "schur")
        assert err.value.slice_index == 2
        assert err.value.cond >= SCHUR_COND_LIMIT
        assert str(err.value).startswith("slice 2: ")
        assert f"(condition number {err.value.cond:.3e})" in str(err.value)


class TestInPlaceRankOneAdd:
    def test_hotelling_bytes_equal_dense_subtraction(self):
        X = random_instance(11)
        f = fitted_factor(X)
        got = deflate(X, f, "hotelling").data
        want = SemiSymTensor(X.data - rank1_outer(f.d, f.V, f.u).data).data
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_reconstruct_bytes_equal_sum_of_factors(self):
        X = random_instance(12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit_multi(X, [2, 1, 1], "projection", FitOptions(max_iter=40))
        want = np.zeros(X.shape)
        for f in dec.factors:
            want = want + f.reconstruct().data
        got = reconstruct(dec, X.p, X.T).data
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestInPlaceResidual:
    """Projection and Schur deflation work in place on one array; the bytes
    are those of the expression-per-step form, kept here as the reference."""

    @staticmethod
    def reference(X, f, scheme):
        V = f.V
        slices = np.moveaxis(X.data, 2, 0)
        XV = slices @ V
        if scheme == "projection":
            PXV = XV - V @ (V.T @ XV)
            slices = slices - V @ np.swapaxes(XV, 1, 2) - PXV @ V.T
        else:
            slices = slices - XV @ np.linalg.solve(V.T @ XV, np.swapaxes(XV, 1, 2))
        slices = slices - f.u[:, None, None] * np.tensordot(f.u, slices, axes=1)
        return sym(np.ascontiguousarray(np.moveaxis(slices, 0, 2)))

    @pytest.mark.parametrize("scheme", ["projection", "schur"])
    @pytest.mark.parametrize("p, r", [(5, 1), (40, 3)])
    def test_bytes_equal_reference(self, scheme, p, r):
        T = 7
        X = psd_instance(p + r, p=p, T=T)
        rng = np.random.default_rng(p + r)
        f = Factor(u=random_unit(T, rng), V=random_stiefel(p, r, rng), d=1.0)
        got = deflate(X, f, scheme).data
        assert got.flags.c_contiguous
        assert got.tobytes() == self.reference(X, f, scheme).tobytes()


class TestNonFiniteFactor:
    """deflate wraps its residual unchecked, so it rejects a non-finite factor up front."""

    @pytest.mark.parametrize("part", ["d", "u", "V"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nan_is_rejected(self, scheme, part):
        rng = np.random.default_rng(21)
        X = psd_instance(21)
        f = Factor(u=random_unit(X.T, rng), V=random_stiefel(X.p, 2, rng), d=1.0)
        if part == "d":
            f.d = np.nan
        else:
            getattr(f, part)[1] = np.nan
        with pytest.raises(NonFiniteEntry):
            deflate(X, f, scheme)
