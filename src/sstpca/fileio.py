"""Tensor file formats and result serialization.

Two input formats:

  slice-dir  a directory of dense p x p CSV files, one per slice, read in
             lexicographic filename order
  long-csv   a single file with header ``t,i,j,w``; 1-based node indices,
             rows in any order, missing pairs are zero, and duplicate
             (i,j)/(j,i) entries must agree within 1e-8

Results are written as canonical JSON (sorted keys, fixed separators) so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .decompose import Factor
from .errors import AsymmetricInput, AsymmetricSlice, InconsistentDimensions, ParseError
from .tensor import SemiSymTensor, new_from_slices

FORMATS = ("slice-dir", "long-csv")
DUPLICATE_TOL = 1e-8
SCHEMA_VERSION = 1


def _read_csv_matrix(path: Path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as e:
                raise ParseError(f"{path.name}, row {lineno}: {e}") from e
    if not rows:
        raise ParseError(f"{path.name}: no numeric rows")
    width = len(rows[0])
    for lineno, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ParseError(f"{path.name}, row {lineno}: expected {width} columns, got {len(r)}")
    return np.asarray(rows)


def _load_slice_dir(root: Path) -> SemiSymTensor:
    files = sorted(p for p in root.iterdir() if p.is_file())
    if not files:
        raise ParseError(f"{root}: directory holds no slice files")
    mats = [_read_csv_matrix(f) for f in files]
    shapes = {m.shape for m in mats}
    if len(shapes) > 1 or any(s[0] != s[1] for s in shapes):
        raise InconsistentDimensions(f"slice shapes {sorted(shapes)} are not one common p x p")
    try:
        return new_from_slices(mats)
    except AsymmetricSlice as e:
        raise AsymmetricInput(str(e)) from e


def _load_long_csv(path: Path) -> SemiSymTensor:
    entries: dict = {}  # (t, min(i,j), max(i,j)) -> weight
    max_node = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path.name}: empty file") from None
        if [c.strip().lower() for c in header] != ["t", "i", "j", "w"]:
            raise ParseError(f"{path.name}: expected header 't,i,j,w', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise ParseError(f"{path.name}, row {lineno}: expected 4 fields, got {len(row)}")
            try:
                t, i, j = int(row[0]), int(row[1]), int(row[2])
                w = float(row[3])
            except ValueError as e:
                raise ParseError(f"{path.name}, row {lineno}: {e}") from e
            if i < 1 or j < 1:
                raise ParseError(f"{path.name}, row {lineno}: node indices are 1-based")
            key = (t, min(i, j), max(i, j))
            if key in entries:
                if abs(entries[key] - w) > DUPLICATE_TOL:
                    raise AsymmetricInput(
                        f"{path.name}, row {lineno}: pair ({i},{j}) at t={t} "
                        f"conflicts with earlier value by {abs(entries[key] - w):.3e}"
                    )
            else:
                entries[key] = w
            max_node = max(max_node, i, j)
    if not entries:
        raise ParseError(f"{path.name}: no data rows")
    times = sorted({k[0] for k in entries})
    p = max_node
    slices = [np.zeros((p, p)) for _ in times]
    t_index = {t: k for k, t in enumerate(times)}
    for (t, a, b), w in entries.items():
        s = slices[t_index[t]]
        s[a - 1, b - 1] = w
        s[b - 1, a - 1] = w
    return new_from_slices(slices)


def load_tensor(path, fmt: str) -> SemiSymTensor:
    """Read a tensor from disk; slice order follows sorted names / times."""
    path = Path(path)
    if fmt == "slice-dir":
        if not path.is_dir():
            raise ParseError(f"{path} is not a directory")
        return _load_slice_dir(path)
    if fmt == "long-csv":
        if not path.is_file():
            raise ParseError(f"{path} is not a file")
        return _load_long_csv(path)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_long_csv(X: SemiSymTensor, path) -> None:
    """Write a tensor in long-csv form (upper triangle with the diagonal, 1-based indices)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "w"])
        iu = np.triu_indices(X.p)
        for t in range(X.T):
            s = X.slice(t)
            for a, b in zip(iu[0], iu[1]):
                writer.writerow([t + 1, a + 1, b + 1, repr(float(s[a, b]))])


def _jsonable(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


def write_json(path, payload) -> None:
    Path(path).write_text(canonical_json(payload))


def factor_to_dict(f: Factor, T: int) -> dict:
    return {
        "d": float(f.d),
        "p": int(f.V.shape[0]),
        "r": int(f.V.shape[1]),
        "T": int(T),
        "u": [float(x) for x in f.u],
        "V": [float(x) for x in f.V.ravel(order="C")],  # row-major
    }


def factor_from_dict(dct: dict) -> Factor:
    p, r = dct["p"], dct["r"]
    V = np.asarray(dct["V"], dtype=np.float64).reshape(p, r)
    return Factor(u=np.asarray(dct["u"], dtype=np.float64), V=V, d=float(dct["d"]))


def load_factors(path) -> list:
    """Factors back out of a decompose/changepoint results file."""
    payload = json.loads(Path(path).read_text())
    results = payload["results"]
    if "factor" in results:
        return [factor_from_dict(results["factor"])]
    return [factor_from_dict(d) for d in results["factors"]]
