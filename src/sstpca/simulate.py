"""Generative models and Monte Carlo experiment drivers.

Covers the spiked low-rank model and the mean-shift model, both with
symmetric Gaussian noise, two random graph generators (block model and
dot-product graphs with simplex latent positions), and a seeded sweep
harness reporting aligned recovery errors across a parameter grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._parallel import ordered_map
from .decompose import Factor, FitDiagnostics, FitOptions, fit_single_factor
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidProbability,
    NonFiniteEntry,
)
from .fileio import write_csv
from .linalg import (
    procrustes_aligned_rmse,
    random_stiefel,
    random_unit,
    sign_aligned_error,
)
from .tensor import SemiSymTensor, _add_rank1, factor_inner

U_MODES = ("sphere", "positive", "constant")


@dataclass(frozen=True)
class SpikeTruth:
    """Ground truth behind one simulated instance."""

    u_star: np.ndarray
    V_star: np.ndarray
    d: float
    sigma: float
    snr: float  # d / sqrt(p * log T)


# Bytes of off-diagonal draws taken at once by `goe_noise` and
# `_bernoulli_slices`: 6 slices at p=1000.
_GOE_BLOCK_BYTES = 24 * 2**20


def _draw_off_diagonal(out: np.ndarray, draw) -> None:
    """Fill the off-diagonal entries of out, shape (p, p, T), from draw.

    ``draw(n, n_off)`` returns n slices' pairs as an (n, n_off) float array,
    each row in row-major upper-triangle order. It is called on a block of
    whole slices (at most _GOE_BLOCK_BYTES) at a time, so out holds the
    stream of one draw of all T slices, at a peak of out plus one block.
    """
    p, _, T = out.shape
    n_off = p * (p - 1) // 2
    step = max(1, _GOE_BLOCK_BYTES // max(8 * n_off, 1))
    for t0 in range(0, T, step):
        t1 = min(t0 + step, T)
        block = draw(t1 - t0, n_off)
        start = 0
        for i in range(p - 1):  # row i holds the next p - 1 - i pairs
            out[i, i + 1:, t0:t1] = block[:, start:start + p - 1 - i].T
            start += p - 1 - i
        del block  # before the next draw, so only one block is ever held
    for i in range(p - 1):  # mirror whole rows: T contiguous values per entry
        out[i + 1:, i, :] = out[i, i + 1:, :]


def goe_noise(p: int, T: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian noise slices, shape (p, p, T).

    One draw per unordered off-diagonal pair with variance sigma^2;
    diagonal entries have variance 2 sigma^2. The pairs are drawn slice by
    slice in row-major upper-triangle order, in blocks (`_draw_off_diagonal`),
    then the diagonals as one (T, p) draw: the stream of a single draw of
    them all, at a peak of the output plus one block.
    """
    if not 0 <= sigma < np.inf:
        raise InvalidParameter("sigma must be finite and nonnegative")
    out = np.empty((p, p, T))
    _draw_off_diagonal(out, lambda n, n_off: rng.normal(0.0, sigma, size=(n, n_off)))
    diag = rng.normal(0.0, sigma * np.sqrt(2.0), size=(T, p))
    out[np.arange(p), np.arange(p), :] = diag.T
    return out


def _finite_instance(data: np.ndarray) -> SemiSymTensor:
    """`SemiSymTensor._trusted(data)` for a drawn, exactly symmetric instance.

    A huge d or sigma can overflow a draw or the signal; that raises
    NonFiniteEntry. max and min see NaN and inf without the p x p x T
    temporary of np.isfinite(data).all().
    """
    if not (math.isfinite(data.max()) and math.isfinite(data.min())):
        raise NonFiniteEntry("simulated instance contains NaN or infinite entries: "
                             "d or sigma is too large")
    return SemiSymTensor._trusted(data)


def spike_model(
    p: int, T: int, r: int, d: float, sigma: float, u_mode: str, rng: np.random.Generator
) -> tuple[SemiSymTensor, SpikeTruth]:
    """Low-rank signal d * V o V o u plus symmetric Gaussian noise."""
    if u_mode not in U_MODES:
        raise InvalidParameter(f"u_mode must be one of {U_MODES}, got {u_mode!r}")
    if not 0 <= d < np.inf:
        raise DimensionMismatch("scale d must be finite and nonnegative")
    if p < 1 or T < 1:
        raise InvalidParameter(f"need p >= 1 and T >= 1, got p={p}, T={T}")
    V_star = random_stiefel(p, r, rng)
    if u_mode == "constant":
        u_star = np.full(T, 1.0 / np.sqrt(T))
    else:
        u_star = random_unit(T, rng, positive=(u_mode == "positive"))
    # The noise is exactly symmetric, hence so is noise + signal.
    data = _add_rank1(goe_noise(p, T, sigma, rng), d, V_star, u_star)
    snr = float(d / np.sqrt(p * np.log(T))) if T > 1 else float("inf")
    truth = SpikeTruth(u_star, V_star, float(d), float(sigma), snr)
    return _finite_instance(data), truth


def shift_model(
    p: int, T: int, r: int, d: float, sigma: float, tau: int, rng: np.random.Generator
) -> tuple[SemiSymTensor, np.ndarray, np.ndarray]:
    """Symmetric Gaussian noise plus the mean d V1V1' on slices 1..tau and d V2V2' after.

    Returns the instance and the two Haar bases V1, V2 (p x r), drawn in that
    order before the noise. numpy's A @ A.T is bit-symmetric, so the instance
    is exactly symmetric.
    """
    if p < 1 or T < 1:
        raise InvalidParameter(f"need p >= 1 and T >= 1, got p={p}, T={T}")
    if not 1 <= tau <= T - 1:
        raise InvalidParameter(f"tau must lie in 1..T-1 = 1..{T - 1}, got {tau}")
    if not math.isfinite(d):
        raise NonFiniteEntry(f"d must be finite, got {d}")
    V1 = random_stiefel(p, r, rng)
    V2 = random_stiefel(p, r, rng)
    data = goe_noise(p, T, sigma, rng)
    data[:, :, :tau] += (d * (V1 @ V1.T))[:, :, None]
    data[:, :, tau:] += (d * (V2 @ V2.T))[:, :, None]
    return _finite_instance(data), V1, V2


def _block_membership(p: int, n_blocks: int) -> np.ndarray:
    # Equal blocks when n_blocks divides p; the remainder pads the last block.
    size = p // n_blocks
    labels = np.repeat(np.arange(n_blocks), size)
    if labels.size < p:
        labels = np.concatenate([labels, np.full(p - labels.size, n_blocks - 1)])
    return labels


def sbm_expected_adjacency(p: int, n_blocks: int, p_in: float, q_out: float) -> np.ndarray:
    """Mean adjacency matrix of the block model, zero diagonal."""
    labels = _block_membership(p, n_blocks)
    same = labels[:, None] == labels[None, :]
    W = np.where(same, p_in, q_out).astype(np.float64)
    np.fill_diagonal(W, 0.0)
    return W


def _bernoulli_slices(probs: np.ndarray, T: int, rng: np.random.Generator) -> SemiSymTensor:
    """T independent undirected graphs; edge (i, j) appears with probs[i, j] clipped to [0, 1].

    Slice by slice, one uniform per pair in row-major upper-triangle order,
    drawn in blocks (`_draw_off_diagonal`); each block is compared with the
    edge probabilities in place, so the peak is the output plus one block.
    """
    p = probs.shape[0]
    edge_probs = np.clip(probs[np.triu_indices(p, k=1)], 0.0, 1.0)

    def draw(n, n_off):
        u = rng.random(size=(n, n_off))
        return np.less(u, edge_probs, out=u)  # 1.0 where the edge appears, else 0.0

    out = np.zeros((p, p, T))
    _draw_off_diagonal(out, draw)
    return SemiSymTensor._trusted(out)


def sbm_series(
    p: int, T: int, n_blocks: int, p_in: float, q_out: float, rng: np.random.Generator
) -> SemiSymTensor:
    """T independent block-model adjacency slices."""
    if not (0.0 <= q_out <= p_in <= 1.0):
        raise InvalidProbability(f"need 0 <= q_out <= p_in <= 1, got p_in={p_in}, q_out={q_out}")
    return _bernoulli_slices(sbm_expected_adjacency(p, n_blocks, p_in, q_out), T, rng)


def dirichlet_latents(p: int, r: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """p latent positions on the (r-1)-simplex."""
    if r < 1:
        raise InvalidParameter(f"latent dimension r={r} must be at least 1")
    if not alpha > 0:
        raise InvalidParameter(f"alpha={alpha} must be positive")
    return rng.dirichlet(np.full(r, alpha), size=p)


def rdpg_series_from_latents(latents: np.ndarray, T: int, rng: np.random.Generator) -> SemiSymTensor:
    """Dot-product graph slices with fixed latent positions."""
    return _bernoulli_slices(latents @ latents.T, T, rng)


def rdpg_dirichlet_series(
    p: int, T: int, r: int, alpha: float, rng: np.random.Generator
) -> SemiSymTensor:
    """Dot-product graphs with Dirichlet latent positions fixed across slices."""
    return rdpg_series_from_latents(dirichlet_latents(p, r, alpha, rng), T, rng)


@dataclass(frozen=True)
class SweepCell:
    p: int
    T: int
    r: int
    d: float
    sigma: float
    u_mode: str = "sphere"  # sphere | positive | constant
    init: str = "stable"  # stable | random | positive (random positive-orthant) | oracle


@dataclass
class SweepResult:
    cell: SweepCell
    reps: int
    u_err_mean: float
    u_err_sd: float
    armse_mean: float
    armse_sd: float
    recon_err_mean: float
    recon_err_sd: float
    iters_to_stat_mean: float
    iterations_mean: float
    converged_frac: float


def _stat_iteration(armses, armse_final: float) -> int:
    """First iterate (1-based) whose aligned error reaches within 5% of the final one.

    `armses` are the iterates' aligned errors in order, ending with the fitted
    basis's, so one qualifies. One-sided: an early iterate temporarily better
    than the converged error already has final-level statistical accuracy.
    """
    for k, a in enumerate(armses):
        if a <= 1.05 * armse_final + 1e-15:
            return k + 1


def _recon_error(factor: Factor, truth: SpikeTruth) -> float:
    """||d^ V^V^' o u^ - d V*V*' o u*||_F / ||d V*V*' o u*||_F without forming either tensor.

    Expands the squared distance into three factor inner products; the
    cancellation costs about eps / recon^2 relative, against eps / recon for
    the dense difference.
    """
    fit = (factor.d, factor.V, factor.u)
    star = (truth.d, truth.V_star, truth.u_star)
    signal2 = factor_inner(*star, *star)
    diff2 = factor_inner(*fit, *fit) + signal2 - 2.0 * factor_inner(*fit, *star)
    return math.sqrt(max(diff2, 0.0)) / math.sqrt(signal2)


@dataclass(frozen=True)
class _RepFit:
    """One rep's fit scored against its truth on the worker that fitted it.

    Python numbers only: holding each rep's arrays until a 240-rep sweep ends
    raised its peak RSS by a tenth.
    """

    diag: FitDiagnostics
    armses: list  # aligned error of each iterate; the last is the fitted basis's
    u_errs: list  # sign-aligned u error of each iterate over sqrt(T); the last is the fit's
    stat_iteration: int
    recon_err: float


def _run_rep(cell: SweepCell, seed_seq, max_iter: int, tol: float) -> _RepFit:
    rng = np.random.default_rng(seed_seq)
    X, truth = spike_model(cell.p, cell.T, cell.r, cell.d, cell.sigma, cell.u_mode, rng)
    if cell.init == "oracle":
        init = truth.u_star
    elif cell.init in ("random", "positive"):
        init = random_unit(cell.T, rng, positive=(cell.init == "positive"))
    elif cell.init == "stable":
        init = "stable"
    else:
        raise InvalidParameter(f"unknown init scheme {cell.init!r}")
    opts = FitOptions(rank=cell.r, max_iter=max_iter, tol=tol, init=init)
    armses, u_errs = [], []

    def score(V, u):
        armses.append(procrustes_aligned_rmse(V, truth.V_star)[1])
        u_errs.append(float(sign_aligned_error(u, truth.u_star) / np.sqrt(cell.T)))

    factor, diag = fit_single_factor(X, opts, observe=score)
    return _RepFit(diag, armses, u_errs, _stat_iteration(armses, armses[-1]),
                   _recon_error(factor, truth))


def _run_reps(reps, max_iter: int = 200, tol: float = 1e-8, n_threads: int = 1) -> list:
    """`_RepFit` of each seeded rep, a (SweepCell, SeedSequence) pair, in order.

    A rep draws its instance from `spike_model`, then any random start, from
    its own generator. All reps go through one `ordered_map` call, which
    silences fit warnings and sets the BLAS threads (see `_parallel`).
    """
    return ordered_map(lambda rep: _run_rep(*rep, max_iter, tol), reps, n_threads)


# (metric, mean field, SD field or None) in rate_sweep's column order.
_SWEEP_METRICS = (
    ("u_err", "u_err_mean", "u_err_sd"),
    ("armse", "armse_mean", "armse_sd"),
    ("recon_err", "recon_err_mean", "recon_err_sd"),
    ("iters_to_stat", "iters_to_stat_mean", None),
    ("iterations", "iterations_mean", None),
    ("converged_frac", "converged_frac", None),
)


def rate_sweep(
    cells,
    reps: int,
    seed: int,
    max_iter: int = 200,
    n_threads: int = 1,
) -> list:
    """Mean and SD of recovery errors for every grid cell.

    Deterministic for a fixed seed: each (cell, rep) pair gets its own
    spawned RNG stream and aggregation runs in fixed replicate order. The
    whole grid is one `_run_reps` call, so one pool serves every cell.
    """
    cells = list(cells)
    if not cells or reps < 1:
        raise DimensionMismatch("need a nonempty grid and reps >= 1")
    for cell in cells:  # recon_err is relative to the signal's norm
        if not cell.d > 0:
            raise InvalidParameter(f"signal strength d must be positive, got d={cell.d}")
    cell_seeds = np.random.SeedSequence(seed).spawn(len(cells))
    fits = _run_reps([(cell, rep_seed) for cell, cell_seed in zip(cells, cell_seeds)
                      for rep_seed in cell_seed.spawn(reps)], max_iter, n_threads=n_threads)
    results = []
    for i, cell in enumerate(cells):
        arr = np.asarray([(f.u_errs[-1], f.armses[-1], f.recon_err, f.stat_iteration,
                           f.diag.iterations, float(f.diag.converged))
                          for f in fits[i * reps:(i + 1) * reps]])
        stats = {}
        for k, (_, mean_attr, sd_attr) in enumerate(_SWEEP_METRICS):
            stats[mean_attr] = float(arr[:, k].mean())
            if sd_attr:
                stats[sd_attr] = float(arr[:, k].std(ddof=1)) if reps > 1 else 0.0
        results.append(SweepResult(cell=cell, reps=reps, **stats))
    return results


def sweep_rows(results) -> list:
    """Long-format rows, one per cell per metric."""
    rows = []
    for res in results:
        base = asdict(res.cell)
        base["reps"] = res.reps
        for name, mean_attr, sd_attr in _SWEEP_METRICS:
            row = dict(base)
            row["metric"] = name
            row["mean"] = getattr(res, mean_attr)
            row["sd"] = getattr(res, sd_attr) if sd_attr else ""
            rows.append(row)
    return rows


def write_sweep_csv(results, path) -> None:
    fields = ["p", "T", "r", "d", "sigma", "u_mode", "init", "reps", "metric", "mean", "sd"]
    write_csv(path, fields, ([row[f] for f in fields] for row in sweep_rows(results)))
