import json

import numpy as np
import pytest

from sstpca.decompose import Factor
from sstpca.errors import AsymmetricInput, InconsistentDimensions, ParseError
from sstpca.fileio import (
    canonical_json,
    factor_from_dict,
    factor_to_dict,
    load_tensor,
    write_long_csv,
)
from sstpca.linalg import random_stiefel, random_unit
from sstpca.simulate import spike_model


class TestLongCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_symmetric_pair(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,0.5\n1,2,1,0.5\n")
        X = load_tensor(path, "long-csv")
        assert X.p == 2 and X.T == 1
        assert np.allclose(X.slice(0), [[0.0, 0.5], [0.5, 0.0]])

    def test_conflicting_pair(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,0.5\n1,2,1,0.6\n")
        with pytest.raises(AsymmetricInput):
            load_tensor(path, "long-csv")

    def test_missing_pairs_are_zero(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,3,2.0\n2,1,1,7.0\n")
        X = load_tensor(path, "long-csv")
        assert X.p == 3 and X.T == 2
        assert X.slice(0)[0, 2] == 2.0
        assert X.slice(0)[1, 2] == 0.0
        assert X.slice(1)[0, 0] == 7.0

    def test_slice_order_sorted_by_t(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n5,1,2,5.0\n2,1,2,2.0\n")
        X = load_tensor(path, "long-csv")
        assert X.slice(0)[0, 1] == 2.0
        assert X.slice(1)[0, 1] == 5.0

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c,d\n1,1,2,0.5\n")
        with pytest.raises(ParseError):
            load_tensor(path, "long-csv")

    def test_zero_based_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,0,2,0.5\n")
        with pytest.raises(ParseError):
            load_tensor(path, "long-csv")

    def test_malformed_number(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,abc\n")
        with pytest.raises(ParseError, match="row 2"):
            load_tensor(path, "long-csv")

    def test_roundtrip_through_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        X, _ = spike_model(6, 4, 2, 3.0, 0.5, "sphere", rng)
        path = tmp_path / "x.csv"
        write_long_csv(X, path)
        back = load_tensor(path, "long-csv")
        assert np.array_equal(back.data, X.data)


class TestSliceDir:
    def test_reads_sorted(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "b.csv").write_text("0,2\n2,0\n")
        (d / "a.csv").write_text("0,1\n1,0\n")
        X = load_tensor(d, "slice-dir")
        assert X.slice(0)[0, 1] == 1.0
        assert X.slice(1)[0, 1] == 2.0

    def test_inconsistent_dims(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n1,0\n")
        (d / "b.csv").write_text("0,1,2\n1,0,3\n2,3,0\n")
        with pytest.raises(InconsistentDimensions):
            load_tensor(d, "slice-dir")

    def test_asymmetric_input(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n1.01,0\n")
        with pytest.raises(AsymmetricInput):
            load_tensor(d, "slice-dir")

    def test_ragged_rows(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n1\n")
        with pytest.raises(ParseError):
            load_tensor(d, "slice-dir")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ParseError):
            load_tensor(tmp_path, "parquet")


class TestSerialization:
    def test_factor_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        f = Factor(u=random_unit(5, rng), V=random_stiefel(7, 2, rng), d=3.25)
        back = factor_from_dict(json.loads(canonical_json(factor_to_dict(f, 5))))
        assert np.array_equal(back.u, f.u)
        assert np.array_equal(back.V, f.V)
        assert back.d == f.d

    def test_canonical_json_handles_numpy(self):
        payload = {"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3)}
        out = json.loads(canonical_json(payload))
        assert out == {"a": 1.5, "b": 3, "c": [0, 1, 2]}

    def test_canonical_json_stable_bytes(self):
        payload = {"z": 1, "a": [1.0, 2.0], "m": {"y": 2, "x": 1}}
        assert canonical_json(payload) == canonical_json(
            json.loads(canonical_json(payload))
        )
