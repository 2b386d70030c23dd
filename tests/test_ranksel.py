import threading
import warnings

import numpy as np
import pytest

from sstpca import ranksel
from sstpca.decompose import FitOptions, fit_single_factor
from sstpca.errors import DegenerateIterate, DimensionMismatch
from sstpca.linalg import random_stiefel, random_unit, sym
from sstpca.ranksel import (
    bic_value,
    candidate_rss,
    distinct_rss,
    n_free_params,
    rank_select_bic,
)
from sstpca.simulate import goe_noise
from sstpca.tensor import SemiSymTensor, rank1_outer


class TestPieces:
    def test_distinct_rss_counts_each_pair_once(self):
        A = np.array([[2.0, 3.0], [3.0, 1.0]])
        X = SemiSymTensor(sym(A[:, :, None]))
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
        X = SemiSymTensor(sym(data + goe_noise(11, 6, 0.3, rng)))
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
        X = SemiSymTensor(sym(data))
        ranks, _ = rank_select_bic(X, r_max=5, K_max=3)
        assert ranks == [3]

    def test_pure_noise_selects_nothing(self):
        nulls = 0
        for s in range(50):
            rng = np.random.default_rng(100 + s)
            E = SemiSymTensor(sym(goe_noise(15, 10, 1.0, rng)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ranks, _ = rank_select_bic(E, r_max=3, K_max=2)
                nulls += ranks == []
        assert nulls >= 45  # >= 90% of 50 seeds

    def test_rss_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        data = rank1_outer(3.0, random_stiefel(12, 2, rng), random_unit(8, rng)).data
        X = SemiSymTensor(sym(data + goe_noise(12, 8, 0.5, rng)))
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
        X = SemiSymTensor(sym(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranks, _ = rank_select_bic(X, r_max=3, K_max=4)
        assert ranks[:2] == [2, 2]

    def test_trace_structure(self):
        rng = np.random.default_rng(9)
        data = rank1_outer(6.0, random_stiefel(10, 1, rng), random_unit(6, rng, True)).data
        X = SemiSymTensor(sym(data + goe_noise(10, 6, 0.1, rng)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranks, steps = rank_select_bic(X, r_max=3, K_max=2)
        assert ranks == [s.chosen_r for s in steps if s.chosen_r is not None]
        assert all(len(s.candidates) <= 3 for s in steps)
        chosen = steps[0]
        best_bic = min(b for _, b in chosen.candidates)
        assert best_bic <= chosen.null_bic

    @pytest.mark.parametrize("r_max, K_max, name", [(2.5, 1, "r_max"), (2, 2.5, "K_max")])
    def test_non_integer_bound_raises_before_any_work(self, monkeypatch, r_max, K_max, name):
        calls = []
        monkeypatch.setattr(ranksel, "distinct_rss", lambda X: calls.append(X))
        with pytest.raises(DimensionMismatch, match=f"{name} must be an integer, got 2.5"):
            rank_select_bic(SemiSymTensor(np.zeros((5, 5, 3))), r_max, K_max)
        assert calls == []

    def test_numpy_integer_bounds_pass(self):
        X = SemiSymTensor(np.zeros((5, 5, 3)))
        assert rank_select_bic(X, np.int64(3), np.int64(2))[0] == []

    def test_failed_candidates_are_listed(self):
        X = SemiSymTensor(np.zeros((5, 5, 3)))
        ranks, steps = rank_select_bic(X, r_max=3, K_max=2)
        assert ranks == []
        (step,) = steps
        assert step.failed == [(1, "DegenerateIterate"), (2, "DegenerateIterate"),
                               (3, "DegenerateIterate")]
        assert step.candidates == []


class TestPooledCandidates:
    """Each step's candidate ranks run on the worker pool; the result is
    walked in rank order on the calling thread."""

    @staticmethod
    def select(monkeypatch, workers):
        """rank_select_bic on `workers` SSTPCA_THREADS workers, with the rank-2
        candidate failing and every candidate capped at two iterations.
        Returns the result and the names of the threads that ran each fit."""
        monkeypatch.setenv("SSTPCA_THREADS", workers)
        threads = []

        def fit(X, opts):
            threads.append(threading.current_thread().name)
            if opts.rank == 2:
                raise DegenerateIterate("rank-2 candidate made to fail")
            return fit_single_factor(X, opts)

        monkeypatch.setattr(ranksel, "fit_single_factor", fit)
        rng = np.random.default_rng(31)
        data = rank1_outer(30.0, random_stiefel(14, 3, rng), random_unit(9, rng, True)).data
        X = SemiSymTensor(sym(data + goe_noise(14, 9, 0.5, rng)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            ranks, steps = rank_select_bic(X, r_max=4, K_max=2, opts=FitOptions(max_iter=2))
            assert warnings.filters == filters
        assert caught == []  # the capped fits' warnings stay inside the selection
        rows = [(s.null_bic.hex(), [(r, bic.hex()) for r, bic in s.candidates], s.chosen_r,
                 s.failed, s.capped) for s in steps]
        return (ranks, rows), threads

    def test_same_result_on_one_and_two_workers(self, monkeypatch):
        serial, serial_threads = self.select(monkeypatch, "1")
        pooled, pooled_threads = self.select(monkeypatch, "2")
        assert pooled == serial
        ranks, rows = serial
        assert ranks == [3] and [row[2] for row in rows] == [3, None]  # two pooled steps
        for _, candidates, _, failed, capped in rows:
            assert [r for r, _ in candidates] == [1, 3, 4]
            assert failed == [(2, "DegenerateIterate")]
            assert capped == [1, 3, 4]
        assert set(serial_threads) == {"MainThread"}
        assert "MainThread" not in pooled_threads
