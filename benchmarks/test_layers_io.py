"""Layer micro-benchmarks: long-csv reading and writing.

Each case reports min and median over its rounds. The input is p=300, T=20:
every pair i <= j once per slice (903,000 rows), shuffled, with off-diagonal
pairs written as i,j or j,i at random. The long-csv read also records its
tracemalloc peak, from one separate untimed call, in extra_info.
"""

import numpy as np
import pytest

from sstpca.fileio import load_tensor, write_long_csv
from sstpca.linalg import sym
from sstpca.tensor import SemiSymTensor

from conftest import SEED, T, traced_peak

P = 300


@pytest.fixture(scope="module")
def tensor():
    rng = np.random.default_rng(SEED)
    return SemiSymTensor(sym(rng.standard_normal((P, P, T))))


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory, tensor):
    rng = np.random.default_rng(SEED + 1)
    iu, ju = np.triu_indices(P)
    tt = np.repeat(np.arange(T), iu.size)
    ii, jj = np.tile(iu, T), np.tile(ju, T)
    w = tensor.data[ii, jj, tt]
    swap = rng.random(tt.size) < 0.5
    a, b = np.where(swap, jj, ii), np.where(swap, ii, jj)
    order = rng.permutation(tt.size)
    path = tmp_path_factory.mktemp("io") / "input.csv"
    with open(path, "w") as fh:
        fh.write("t,i,j,w\n")
        fh.writelines(
            f"{t},{x},{y},{v!r}\n"
            for t, x, y, v in zip((tt[order] + 1).tolist(), (a[order] + 1).tolist(),
                                  (b[order] + 1).tolist(), w[order].tolist())
        )
    return path


def test_load_tensor_long_csv(benchmark, long_csv, tensor):
    X = benchmark.pedantic(load_tensor, args=(long_csv,), rounds=5)
    assert np.array_equal(X.data, tensor.data)
    benchmark.extra_info["tracemalloc_peak_bytes"] = traced_peak(load_tensor, long_csv)


def test_write_long_csv(benchmark, tensor, tmp_path):
    path = tmp_path / "out.csv"
    benchmark.pedantic(write_long_csv, args=(tensor, path), rounds=5)
    assert path.stat().st_size > 0
