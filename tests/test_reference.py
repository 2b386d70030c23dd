"""Plain reference versions of the fit, the deflations, the BIC residual and
the CUSUM tensor, written the way the paper states them, checked against the
library on hypothesis-drawn instances.

The library computes each of these by a faster route (one contraction for the
slice sum, low-rank deflation, an expanded residual, prefix sums); here each
is a Python loop or a dense product. A change that moves rounding must still
agree with these within the tolerances below.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sstpca.changepoint import cusum_tensor
from sstpca.decompose import Factor, FitOptions, fit_single_factor
from sstpca.deflate import SCHEMES, deflate
from sstpca.errors import DidNotConvergeWarning
from sstpca.linalg import random_stiefel, random_unit
from sstpca.ranksel import candidate_rss, distinct_rss
from sstpca.simulate import spike_model
from sstpca.tensor import SemiSymTensor

# Per iterate, the fit's u and projector VV' agree with the reference within
# FIT_TOL (max abs entry) wherever the kept eigenblock is separated from the
# rest of the spectrum by at least GAP_FLOOR times the largest |eigenvalue|.
FIT_TOL = 1e-12
GAP_FLOOR = 1e-2
# Dense-product references agree entrywise within DENSE_TOL times the largest
# |entry| of the input, and sums of squares within DENSE_TOL relatively.
DENSE_TOL = 1e-12

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_fit(X: np.ndarray, r: int, n_iter: int) -> tuple:
    """n_iter plain alternating steps from the stable start: the iterates
    (u, V) and the relative eigengap of each V-step's kept block.

    It has no stop test: it runs as many steps as the fit it is checked
    against, whose iteration count depends on rounding (see `fit_single_factor`).
    """
    p, _, T = X.shape
    u = np.full(T, 1.0 / np.sqrt(T))
    us, Vs, gaps = [], [], []
    for _ in range(n_iter):
        M = np.zeros((p, p))
        for t in range(T):
            M += u[t] * X[:, :, t]
        w, Q = np.linalg.eigh((M + M.T) / 2)
        top, bottom = list(range(p - r, p)), list(range(r))
        kept = top if w[top].sum() >= -w[bottom].sum() else bottom
        rest = [j for j in range(p) if j not in kept]
        V = Q[:, kept]
        x = np.array([np.trace(V.T @ X[:, :, t] @ V) for t in range(T)])
        u = x / np.linalg.norm(x)
        us.append(u)
        Vs.append(V)
        gap = min((abs(w[i] - w[j]) for i in kept for j in rest), default=np.inf)
        gaps.append(gap / np.abs(w).max())
    return us, Vs, gaps


def reference_deflate(X: np.ndarray, f: Factor, scheme: str) -> np.ndarray:
    """The three deflations as dense products, slice by slice."""
    p, _, T = X.shape
    d, V, u = f.d, f.V, f.u
    if scheme == "hotelling":
        return np.stack([X[:, :, t] - d * u[t] * (V @ V.T) for t in range(T)], axis=2)
    if scheme == "projection":
        P = np.eye(p) - V @ V.T
        Y = [P @ X[:, :, t] @ P for t in range(T)]
    else:
        Y = [X[:, :, t] - X[:, :, t] @ V @ np.linalg.inv(V.T @ X[:, :, t] @ V) @ V.T @ X[:, :, t]
             for t in range(T)]
    Pu = np.eye(T) - np.outer(u, u)  # then (I - uu') along the slice mode
    return np.stack([sum(Pu[t, s] * Y[s] for s in range(T)) for t in range(T)], axis=2)


def reference_distinct_rss(X: np.ndarray) -> float:
    p = X.shape[0]
    return float(sum(np.sum(X[i, j, :] ** 2) for i in range(p) for j in range(i, p)))


def reference_cusum(X: np.ndarray) -> np.ndarray:
    """C_t = sqrt(T / (t (T - t))) (S_t - (t / T) S_T), t = 1..T-1, S_t the sum of the first t slices."""
    T = X.shape[2]
    S_T = X.sum(axis=2)
    return np.stack([np.sqrt(T / (t * (T - t))) * (X[:, :, :t].sum(axis=2) - t / T * S_T)
                     for t in range(1, T)], axis=2)


def random_slices(p: int, T: int, seed: int) -> np.ndarray:
    """Symmetric positive definite slices A A' / p + I, so every Schur block is well conditioned."""
    A = np.random.default_rng(seed).standard_normal((T, p, p))
    S = A @ np.swapaxes(A, 1, 2) / p + np.eye(p)
    return np.ascontiguousarray(np.moveaxis((S + np.swapaxes(S, 1, 2)) / 2, 0, 2))


def random_factor(p: int, T: int, r: int, seed: int) -> Factor:
    rng = np.random.default_rng(seed)
    return Factor(u=random_unit(T, rng), V=random_stiefel(p, r, rng), d=float(rng.uniform(0.5, 3)))


@given(p=st.integers(5, 40), T=st.integers(3, 16), r=st.integers(1, 3),
       strength=st.floats(5, 40), sign=st.sampled_from([1.0, -1.0]),
       u_mode=st.sampled_from(["positive", "sphere"]), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_fit_iterates_match_the_reference(p, T, r, strength, sign, u_mode, seed):
    """On a spiked instance, or its negative (whose fit keeps the bottom block),
    every iterate of `fit_single_factor` matches the plain alternating step."""
    X, _ = spike_model(p, T, r, strength * np.sqrt(p), 1.0, u_mode, np.random.default_rng(seed))
    data = sign * X.data
    iterates = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConvergeWarning)
        _, diag = fit_single_factor(SemiSymTensor(data), FitOptions(rank=r, max_iter=30),
                                    observe=lambda V, u: iterates.append((u, V)))
    us, Vs, gaps = reference_fit(data, r, diag.iterations)
    assume(min(gaps) >= GAP_FLOOR)
    assert len(iterates) == diag.iterations
    for k, ((u, V), u_ref, V_ref) in enumerate(zip(iterates, us, Vs)):
        assert np.abs(u - u_ref).max() <= FIT_TOL, k
        assert np.abs(V @ V.T - V_ref @ V_ref.T).max() <= FIT_TOL, k


@given(p=st.integers(3, 20), T=st.integers(2, 8), r=st.integers(1, 3), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_deflations_match_the_dense_products(p, T, r, seed):
    X = random_slices(p, T, seed)
    f = random_factor(p, T, r, seed + 1)
    for scheme in SCHEMES:
        out = deflate(SemiSymTensor(X), f, scheme).data
        err = np.abs(out - reference_deflate(X, f, scheme)).max()
        assert err <= DENSE_TOL * np.abs(X).max(), scheme


@given(p=st.integers(3, 20), T=st.integers(1, 8), r=st.integers(1, 3), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_bic_residuals_match_the_sum_over_distinct_entries(p, T, r, seed):
    """`distinct_rss` sums each symmetric pair once; `candidate_rss` is the
    distinct RSS of the Hotelling residual, computed without forming it."""
    R = random_slices(p, T, seed)
    f = random_factor(p, T, r, seed + 1)
    rss = reference_distinct_rss(R)
    assert abs(distinct_rss(SemiSymTensor(R)) - rss) <= DENSE_TOL * rss
    expected = reference_distinct_rss(reference_deflate(R, f, "hotelling"))
    assert abs(candidate_rss(SemiSymTensor(R), distinct_rss(R), f) - expected) <= DENSE_TOL * rss


@given(p=st.integers(2, 12), T=st.integers(2, 20), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_cusum_tensor_matches_its_formula(p, T, seed):
    X = random_slices(p, T, seed)
    C = cusum_tensor(SemiSymTensor(X)).data
    assert np.abs(C - reference_cusum(X)).max() <= DENSE_TOL * np.abs(X).max()
