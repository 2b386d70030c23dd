import json
import tracemalloc
import warnings

import numpy as np
import pytest

from sstpca.decompose import Factor
from sstpca.errors import AsymmetricInput, InconsistentDimensions, NonFiniteEntry, ParseError
from sstpca.fileio import (
    canonical_json,
    factor_from_dict,
    factor_to_dict,
    load_factors,
    load_tensor,
    write_long_csv,
)
from sstpca.linalg import random_stiefel, random_unit
from sstpca.simulate import spike_model
from sstpca.tensor import SemiSymTensor


class TestLongCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_symmetric_pair(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,0.5\n1,2,1,0.5\n")
        X = load_tensor(path)
        assert X.p == 2 and X.T == 1
        assert np.allclose(X.slice(0), [[0.0, 0.5], [0.5, 0.0]])

    def test_conflicting_pair(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,0.5\n1,2,1,0.6\n")
        with pytest.raises(AsymmetricInput):
            load_tensor(path)

    def test_missing_pairs_are_zero(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,3,2.0\n2,1,1,7.0\n")
        X = load_tensor(path)
        assert X.p == 3 and X.T == 2
        assert X.slice(0)[0, 2] == 2.0
        assert X.slice(0)[1, 2] == 0.0
        assert X.slice(1)[0, 0] == 7.0

    def test_slice_order_sorted_by_t(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n5,1,2,5.0\n2,1,2,2.0\n")
        X = load_tensor(path)
        assert X.slice(0)[0, 1] == 2.0
        assert X.slice(1)[0, 1] == 5.0

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c,d\n1,1,2,0.5\n")
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_zero_based_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,0,2,0.5\n")
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_malformed_number(self, tmp_path):
        path = self.write(tmp_path, "t,i,j,w\n1,1,2,abc\n")
        with pytest.raises(ParseError, match="row 2"):
            load_tensor(path)

    def test_roundtrip_through_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        X, _ = spike_model(6, 4, 2, 3.0, 0.5, "sphere", rng)
        path = tmp_path / "x.csv"
        write_long_csv(X, path)
        back = load_tensor(path)
        assert np.array_equal(back.data, X.data)



def reference_load(rows):
    """Long-csv rules as a dict: the first of agreeing duplicates is kept,
    distinct t values are sorted and numbered, p is the largest index seen."""
    entries = {}
    for t, i, j, w in rows:
        entries.setdefault((t, min(i, j), max(i, j)), w)
    times = sorted({key[0] for key in entries})
    p = max(max(i, j) for _, i, j, _ in rows)
    data = np.zeros((p, p, len(times)))
    for (t, a, b), w in entries.items():
        data[a - 1, b - 1, times.index(t)] = data[b - 1, a - 1, times.index(t)] = w
    return data


class TestLongCsvContract:
    def load(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        return load_tensor(path)

    @pytest.mark.parametrize("line", ["# x", "1,1,2,0.5#x", "#1,1,2,0.5"])
    def test_hash_is_data_not_a_comment(self, tmp_path, line):
        with pytest.raises(ParseError, match="row 3"):
            self.load(tmp_path, f"t,i,j,w\n1,1,2,0.5\n{line}\n")

    @pytest.mark.parametrize("blank", ["", "   ", ",,,", " , ,\t,", '"","","",""'])
    def test_blank_lines_are_skipped_but_counted(self, tmp_path, blank):
        plain = self.load(tmp_path, "t,i,j,w\n1,1,2,0.5\n2,1,1,3.0\n")
        X = self.load(tmp_path, f"t,i,j,w\n{blank}\n1,1,2,0.5\n{blank}\n2,1,1,3.0\n{blank}\n")
        assert np.array_equal(X.data, plain.data)
        with pytest.raises(ParseError, match="row 4: node indices are 1-based"):
            self.load(tmp_path, f"t,i,j,w\n1,1,2,0.5\n{blank}\n1,0,2,0.5\n")

    def test_crlf_and_quoted_numbers(self, tmp_path):
        X = self.load(tmp_path, 't,i,j,w\r\n"1","1","2","0.5"\r\n1,2,2,"1.5"\r\n')
        assert np.array_equal(X.slice(0), [[0.0, 0.5], [0.5, 1.5]])

    def test_float_in_integer_column(self, tmp_path):
        with pytest.raises(ParseError, match="row 3:"):
            self.load(tmp_path, "t,i,j,w\n1,1,2,0.5\n1.0,1,2,0.5\n1,1,1,0.5\n")

    @pytest.mark.parametrize("line", ["1,1,2", "1,1,2,0.5,0", "1,1,2,"])
    def test_wrong_field_count(self, tmp_path, line):
        with pytest.raises(ParseError, match="row 4:"):
            self.load(tmp_path, f"t,i,j,w\n1,1,2,0.5\n\n{line}\n1,1,1,0.5\n")

    def test_conflict_names_the_first_conflicting_row_read(self, tmp_path):
        # The t=1 pair sorts first, but the t=2 conflict is read first.
        text = "t,i,j,w\n2,1,2,1.0\n1,1,2,1.0\n2,2,1,5.0\n1,2,1,5.0\n"
        with pytest.raises(AsymmetricInput, match=r"row 4: pair \(2,1\) at t=2 .* 4\.000e\+00"):
            self.load(tmp_path, text)

    def test_agreeing_duplicates_keep_the_first(self, tmp_path):
        X = self.load(tmp_path, "t,i,j,w\n1,2,1,0.5\n1,1,2,0.500000001\n")
        assert X.slice(0)[0, 1] == 0.5
        # The later copy mirrored as (j, i), and with a row of another slice
        # read between the copies; (a, b) and (b, a) both hold the first bits.
        for body, t in [("1,1,2,0.5\n1,2,1,0.500000001\n", 0),
                        ("2,1,2,0.5\n1,1,2,7\n2,2,1,0.500000001\n1,2,1,7\n", 1)]:
            S = self.load(tmp_path, "t,i,j,w\n" + body).slice(t)
            assert S[0, 1] == S[1, 0] == 0.5

    def test_zero_based_index_row(self, tmp_path):
        with pytest.raises(ParseError, match="row 3: node indices are 1-based"):
            self.load(tmp_path, "t,i,j,w\n1,1,2,0.5\n1,2,0,0.5\n")

    @pytest.mark.parametrize("body", ["", "\n\n", ",,,\n  \n"])
    def test_header_only_has_no_data_rows(self, tmp_path, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                self.load(tmp_path, "t,i,j,w\n" + body)

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, tmp_path, w):
        with pytest.raises(NonFiniteEntry, match="row 3"):
            self.load(tmp_path, f"t,i,j,w\n1,1,2,0.5\n1,2,2,{w}\n")

    def test_matches_reference_on_shuffled_input(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = []
        for t in (-3, 0, 2, 10):  # gaps collapse to 4 slices
            for i in range(1, 9):
                for j in range(i, 9):
                    if rng.random() < 0.6:
                        w = float(rng.standard_normal())
                        rows.append((t, i, j, w))
                        if rng.random() < 0.3:  # a second, agreeing copy as (j, i)
                            rows.append((t, j, i, w + float(rng.uniform(-1e-9, 1e-9))))
        rows = [rows[k] for k in rng.permutation(len(rows))]
        text = "t,i,j,w\n" + "".join(f"{t},{i},{j},{w!r}\n" for t, i, j, w in rows)
        X = self.load(tmp_path, text)
        assert np.array_equal(X.data, reference_load(rows))

    def test_memory_bound(self, tmp_path):
        """Reading peaks below 72 B per row plus twice the tensor's bytes.

        Every pair i <= j once per slice, shuffled, each off-diagonal pair
        written as i,j or j,i at random; the tensor is 16 B per row here.
        """
        rng = np.random.default_rng(11)
        p, T = 60, 10
        iu, ju = np.triu_indices(p)
        tt, ii, jj = np.repeat(np.arange(T), iu.size), np.tile(iu, T), np.tile(ju, T)
        swap = rng.random(tt.size) < 0.5
        rows = np.stack([tt, np.where(swap, jj, ii), np.where(swap, ii, jj)], axis=1) + 1
        rows = rows[rng.permutation(tt.size)].tolist()
        text = "".join(f"{t},{i},{j},{w!r}\n"
                       for (t, i, j), w in zip(rows, rng.standard_normal(tt.size).tolist()))
        path = tmp_path / "data.csv"
        path.write_text("t,i,j,w\n" + text)
        tracemalloc.start()
        try:
            X = load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * tt.size + 2 * X.data.nbytes, peak


def test_write_long_csv_golden_bytes(tmp_path):
    A = np.array([[-0.0, 1e-300], [1e-300, 0.1 + 0.2]])
    X = SemiSymTensor(np.stack([A, 3 * A + np.eye(2)], axis=-1))
    path = tmp_path / "x.csv"
    write_long_csv(X, path)
    assert path.read_bytes() == (
        b"t,i,j,w\r\n"
        b"1,1,1,-0.0\r\n1,1,2,1e-300\r\n1,2,2,0.30000000000000004\r\n"
        b"2,1,1,1.0\r\n2,1,2,3e-300\r\n2,2,2,1.9000000000000001\r\n"
    )

class TestSliceDir:
    def test_reads_sorted(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "b.csv").write_text("0,2\n2,0\n")
        (d / "a.csv").write_text("0,1\n1,0\n")
        X = load_tensor(d)
        assert X.slice(0)[0, 1] == 1.0
        assert X.slice(1)[0, 1] == 2.0

    @pytest.mark.parametrize("files", [
        {"a.csv": "0,1\n1,0\n", "b.csv": "0,1,2\n1,0,3\n2,3,0\n"},
        {"a.csv": "0,1,2\n1,0,3\n"},
    ], ids=["two-sizes", "not-square"])
    def test_inconsistent_dims(self, tmp_path, files):
        d = tmp_path / "slices"
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
        with pytest.raises(InconsistentDimensions):
            load_tensor(d)

    def test_same_bytes_as_long_csv(self, tmp_path):
        X, _ = spike_model(7, 4, 2, 3.0, 1.0, "sphere", np.random.default_rng(8))
        write_long_csv(X, tmp_path / "long.csv")
        d = tmp_path / "slices"
        d.mkdir()
        for t in range(X.T):
            (d / f"s{t}.csv").write_text(
                "\n".join(",".join(map(repr, row)) for row in X.slice(t).tolist()) + "\n")
        from_dir = load_tensor(d).data
        assert from_dir.tobytes() == load_tensor(tmp_path / "long.csv").data.tobytes()
        assert from_dir.tobytes() == X.data.tobytes()

    def test_asymmetric_input(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n1.01,0\n")
        with pytest.raises(AsymmetricInput):
            load_tensor(d)

    def test_ragged_rows(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n1\n")
        with pytest.raises(ParseError):
            load_tensor(d)

    def test_errors_name_the_file_line(self, tmp_path):
        d = tmp_path / "slices"
        d.mkdir()
        (d / "a.csv").write_text("0,1\n\n1\n")
        with pytest.raises(ParseError, match="a.csv, row 3: expected 2 columns, got 1"):
            load_tensor(d)


class TestSerialization:
    def test_factor_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        f = Factor(u=random_unit(5, rng), V=random_stiefel(7, 2, rng), d=3.25)
        back = factor_from_dict(json.loads(canonical_json(factor_to_dict(f))))
        assert np.array_equal(back.u, f.u)
        assert np.array_equal(back.V, f.V)
        assert back.d == f.d

    @pytest.mark.parametrize("payload", [{"results": {"detection_snr": 1.0}}, {"seed": 0}],
                             ids=["simulate-result", "no-results"])
    def test_load_factors_without_factors(self, tmp_path, payload):
        path = tmp_path / "sim.json"
        path.write_text(canonical_json(payload))
        with pytest.raises(ParseError, match="sim.json: holds no 'factor' or 'factors' results"):
            load_factors(path)

    def test_load_factors_with_v_not_p_by_r(self, tmp_path):
        rng = np.random.default_rng(2)
        dct = factor_to_dict(Factor(u=random_unit(5, rng), V=random_stiefel(7, 2, rng), d=1.0))
        dct["V"] = dct["V"][:-1]
        path = tmp_path / "fit.json"
        path.write_text(canonical_json({"results": {"factors": [dct]}}))
        with pytest.raises(ParseError, match="factor V has 13 entries, expected p\\*r = 14"):
            load_factors(path)

    def test_canonical_json_handles_numpy(self):
        payload = {"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3)}
        out = json.loads(canonical_json(payload))
        assert out == {"a": 1.5, "b": 3, "c": [0, 1, 2]}

    def test_canonical_json_stable_bytes(self):
        payload = {"z": 1, "a": [1.0, 2.0], "m": {"y": 2, "x": 1}}
        assert canonical_json(payload) == canonical_json(
            json.loads(canonical_json(payload))
        )
