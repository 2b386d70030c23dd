import warnings

import numpy as np
import pytest

from sstpca.decompose import FitOptions, fit_single_factor
from sstpca.linalg import random_stiefel, random_unit
from sstpca.ranksel import (
    bic_value,
    candidate_rss,
    distinct_rss,
    n_free_params,
    rank_select_bic,
    rank_select_bic_trace,
)
from sstpca.simulate import goe_noise
from sstpca.tensor import SemiSymTensor, rank1_outer


class TestPieces:
    def test_distinct_rss_counts_each_pair_once(self):
        A = np.array([[2.0, 3.0], [3.0, 1.0]])
        X = SemiSymTensor(A[:, :, None], check=False)
        # distinct entries: 2^2 + 3^2 + 1^2 = 14
        assert distinct_rss(X) == pytest.approx(14.0)

    def test_free_params(self):
        # p r - r(r+1)/2 + T + 1
        assert n_free_params(10, 5, 2) == 10 * 2 - 3 + 5 + 1

    def test_bic_hand_value(self):
        # N ln(RSS/N) + k ln N with N=6, RSS=3, k=2
        expected = 6 * np.log(0.5) + 2 * np.log(6)
        assert bic_value(3.0, 6, 2) == pytest.approx(expected)

    def test_zero_rss(self):
        assert bic_value(0.0, 10, 3) == float("-inf")

    @pytest.mark.parametrize("r, eigen_scaled", [(1, False), (3, False), (2, True)])
    def test_candidate_rss_matches_dense(self, r, eigen_scaled):
        rng = np.random.default_rng(40 + r)
        data = rank1_outer(4.0, random_stiefel(11, 2, rng), random_unit(6, rng)).data
        X = SemiSymTensor(data + goe_noise(11, 6, 0.3, rng), check=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f, _ = fit_single_factor(X, FitOptions(rank=r, eigen_scaled=eigen_scaled))
        dense = distinct_rss(X.data - f.reconstruct().data)
        assert candidate_rss(X, distinct_rss(X), f) == pytest.approx(dense, rel=1e-12)


class TestSelection:
    def test_noiseless_rank3_selects_3(self):
        rng = np.random.default_rng(5)
        V = random_stiefel(20, 3, rng)
        u = random_unit(10, rng, positive=True)
        data = rank1_outer(5.0, V, u).data + goe_noise(20, 10, 1e-6, rng)
        X = SemiSymTensor(data, check=False)
        assert rank_select_bic(X, r_max=5, K_max=3) == [3]

    def test_pure_noise_selects_nothing(self):
        nulls = 0
        for s in range(50):
            rng = np.random.default_rng(100 + s)
            E = SemiSymTensor(goe_noise(15, 10, 1.0, rng), check=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nulls += rank_select_bic(E, r_max=3, K_max=2) == []
        assert nulls >= 45  # >= 90% of 50 seeds

    def test_rss_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        data = rank1_outer(3.0, random_stiefel(12, 2, rng), random_unit(8, rng)).data
        X = SemiSymTensor(data + goe_noise(12, 8, 0.5, rng), check=False)
        rss = []
        for r in range(1, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f, _ = fit_single_factor(X, FitOptions(rank=r, max_iter=80))
            rss.append(distinct_rss(X.data - f.reconstruct().data))
        assert all(b <= a + 1e-8 for a, b in zip(rss, rss[1:]))

    def test_two_factor_selection(self):
        rng = np.random.default_rng(8)
        Q = random_stiefel(16, 4, rng)
        u1 = random_unit(9, rng, positive=True)
        w = rng.standard_normal(9)
        u2 = w - (w @ u1) * u1
        u2 /= np.linalg.norm(u2)
        data = (
            rank1_outer(12.0, Q[:, :2], u1).data
            + rank1_outer(6.0, Q[:, 2:], u2).data
            + goe_noise(16, 9, 0.05, rng)
        )
        X = SemiSymTensor(data, check=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranks = rank_select_bic(X, r_max=3, K_max=4)
        assert ranks[:2] == [2, 2]

    def test_trace_structure(self):
        rng = np.random.default_rng(9)
        data = rank1_outer(6.0, random_stiefel(10, 1, rng), random_unit(6, rng, True)).data
        X = SemiSymTensor(data + goe_noise(10, 6, 0.1, rng), check=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranks, steps = rank_select_bic_trace(X, r_max=3, K_max=2)
        assert ranks == [s.chosen_r for s in steps if s.chosen_r is not None]
        assert all(len(s.candidates) <= 3 for s in steps)
        chosen = steps[0]
        best_bic = min(b for _, b in chosen.candidates)
        assert best_bic <= chosen.null_bic

    def test_failed_candidates_are_listed(self):
        X = SemiSymTensor(np.zeros((5, 5, 3)))
        ranks, steps = rank_select_bic_trace(X, r_max=3, K_max=2)
        assert ranks == []
        (step,) = steps
        assert step.failed == [(1, "DegenerateIterate"), (2, "DegenerateIterate"),
                               (3, "DegenerateIterate")]
        assert step.candidates == []
