"""The one rank rule, at every entry point that takes a rank.

A rank is an integer r with 1 <= r <= p: V is p x r with orthonormal columns.
Every entry point checks it with `linalg._check_rank` and reports a breach
with one of three messages: DimensionMismatch "rank must be an integer, got
2.5" or "rank 0 must be at least 1", or RankTooLarge (a DimensionMismatch)
"rank 9 exceeds p=8". `fit_multi` leads the last with the factor's index
and `rank_select_bic` names its bound `r_max`; `FitOptions` knows no p.
"""

import warnings

import numpy as np
import pytest

from sstpca.baselines import hosvd, truncated_matricized_pca
from sstpca.changepoint import detect_changepoint
from sstpca.decompose import FitOptions, fit_single_factor, init_u, v_update
from sstpca.deflate import fit_multi
from sstpca.errors import DimensionMismatch, RankTooLarge
from sstpca.linalg import random_stiefel, sym_eigen_top_r
from sstpca.ranksel import rank_select_bic
from sstpca.simulate import shift_model, spike_model
from sstpca.tensor import ropnorm_sampled_lower, ropnorm_upper_bound

P, T = 8, 6


def rng():
    return np.random.default_rng(0)


# (id, call on (X, r)) of each of the 13 entry points.
ENTRY_POINTS = [
    ("FitOptions", lambda X, r: FitOptions(rank=r)),
    ("fit_single_factor", lambda X, r: fit_single_factor(X, FitOptions(rank=r))),
    ("v_update", lambda X, r: v_update(X, init_u("stable", X.T), r)),
    ("fit_multi", lambda X, r: fit_multi(X, [r])),
    ("detect_changepoint", lambda X, r: detect_changepoint(X, r)),
    ("rank_select_bic", lambda X, r: rank_select_bic(X, r, 1)),
    ("sym_eigen_top_r", lambda X, r: sym_eigen_top_r(X.data[:, :, 0], r)),
    ("random_stiefel", lambda X, r: random_stiefel(X.p, r, rng())),
    ("ropnorm_upper_bound", lambda X, r: ropnorm_upper_bound(X, r)),
    ("ropnorm_sampled_lower", lambda X, r: ropnorm_sampled_lower(X, r, 2, rng())),
    ("hosvd", lambda X, r: hosvd(X, r)),
    ("truncated_matricized_pca", lambda X, r: truncated_matricized_pca(X, r)),
    ("spike_model", lambda X, r: spike_model(X.p, X.T, r, 5.0, 1.0, "sphere", rng())),
    ("shift_model", lambda X, r: shift_model(X.p, X.T, r, 5.0, 1.0, 3, rng())),
]
ENTRY_IDS = [name for name, _ in ENTRY_POINTS]

# The expected (class, message) of each breach; None where the entry point passes.
RANK = {0: (DimensionMismatch, "rank 0 must be at least 1"),
        2.5: (DimensionMismatch, "rank must be an integer, got 2.5"),
        P + 1: (RankTooLarge, f"rank {P + 1} exceeds p={P}")}
EXPECTED = {name: RANK for name, _ in ENTRY_POINTS}
EXPECTED["FitOptions"] = {**RANK, P + 1: None}
EXPECTED["fit_multi"] = {**RANK, P + 1: (RankTooLarge, f"factor 0: rank {P + 1} exceeds p={P}")}
EXPECTED["rank_select_bic"] = {0: (DimensionMismatch, "r_max 0 must be at least 1"),
                               2.5: (DimensionMismatch, "r_max must be an integer, got 2.5"),
                               P + 1: (RankTooLarge, f"r_max {P + 1} exceeds p={P}")}


@pytest.fixture(scope="module")
def X():
    return spike_model(P, T, 2, 6.0, 0.3, "sphere", rng())[0]


@pytest.mark.parametrize("r", list(RANK), ids=["0", "2.5", "p+1"])
@pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=ENTRY_IDS)
def test_rank_rule(X, name, call, r):
    expected = EXPECTED[name][r]
    if expected is None:
        call(X, r)
        return
    cls, message = expected
    with pytest.raises(DimensionMismatch) as info:
        call(X, r)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=ENTRY_IDS)
def test_numpy_integer_ranks_pass(X, name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fit may hit its cap; that is not the rule
        call(X, np.int64(2))
