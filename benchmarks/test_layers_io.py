"""Layer micro-benchmarks: long-csv reading and writing, projection deflation.

They sit outside the test suite's ``testpaths``; run them with a pinned BLAS
thread count, for example

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks \
        --benchmark-json bench.json

Each case reports min and median over its rounds. The input is p=300, T=20:
every pair i <= j once per slice (903,000 rows), shuffled, with off-diagonal
pairs written as i,j or j,i at random.
"""

import numpy as np
import pytest

from sstpca.decompose import Factor
from sstpca.deflate import deflate
from sstpca.fileio import load_tensor, write_long_csv
from sstpca.linalg import random_stiefel, random_unit, sym
from sstpca.tensor import SemiSymTensor

P, T, R = 300, 20, 3
SEED = 20220209


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
    X = benchmark.pedantic(load_tensor, args=(long_csv, "long-csv"), rounds=5)
    assert np.array_equal(X.data, tensor.data)


def test_write_long_csv(benchmark, tensor, tmp_path):
    path = tmp_path / "out.csv"
    benchmark.pedantic(write_long_csv, args=(tensor, path), rounds=5)
    assert path.stat().st_size > 0


def test_deflate_projection(benchmark, tensor):
    rng = np.random.default_rng(SEED + 2)
    f = Factor(u=random_unit(T, rng), V=random_stiefel(P, R, rng), d=1.0)
    Y = benchmark.pedantic(deflate, args=(tensor, f, "projection"), rounds=10)
    assert Y.shape == tensor.shape
