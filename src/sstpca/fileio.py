"""Tensor file formats and result serialization.

Two input formats, told apart by the path: a directory is read as slice-dir
and a regular file as long-csv.

  slice-dir  a directory of dense p x p CSV files, one per slice, read in
             lexicographic filename order; blank lines are skipped and
             errors name the file line
  long-csv   a single file with header ``t,i,j,w`` and rows of integers
             t, i, j and a finite weight w, in any order; missing pairs are
             zero. The distinct t values are sorted and renumbered 1..T
             (gaps collapse), p is the largest 1-based node index seen,
             duplicate (i,j)/(j,i) rows must agree within 1e-8 and the first
             is kept. Lines of only whitespace or commas are skipped; '#'
             starts no comment. Errors name the file row (the header is 1).

Results are written as canonical JSON (sorted keys, fixed separators) so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .decompose import Factor
from .errors import (
    AsymmetricInput,
    AsymmetricSlice,
    DimensionMismatch,
    InconsistentDimensions,
    NonFiniteEntry,
    ParseError,
)
from .tensor import SemiSymTensor, new_from_slices

DUPLICATE_TOL = 1e-8
SCHEMA_VERSION = 1


def _read_csv_matrix(path: Path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path.name}, row {reader.line_num}"
            try:
                rows.append([float(c) for c in row])
            except ValueError as e:
                raise ParseError(f"{where}: {e}") from e
            if len(row) != len(rows[0]):
                raise ParseError(f"{where}: expected {len(rows[0])} columns, got {len(row)}")
    if not rows:
        raise ParseError(f"{path.name}: no numeric rows")
    return np.asarray(rows)


def _load_slice_dir(root: Path) -> SemiSymTensor:
    files = sorted(p for p in root.iterdir() if p.is_file())
    if not files:
        raise ParseError(f"{root}: directory holds no slice files")
    mats = [_read_csv_matrix(f) for f in files]  # a list: parsing is not timed as new_from_slices
    try:
        return new_from_slices(mats)
    except AsymmetricSlice as e:
        raise AsymmetricInput(str(e)) from e
    except DimensionMismatch as e:
        raise InconsistentDimensions(str(e)) from e


# One data row of a long-csv file.
ROW_DTYPE = np.dtype([("t", np.int64), ("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _parse_rows(source) -> np.ndarray:
    # comments=None: '#' is data, so '# x' or '0.5#x' fails instead of being cut off.
    return np.loadtxt(source, dtype=ROW_DTYPE, delimiter=",", comments=None, quotechar='"',
                      ndmin=1)


def _data_lines(path: Path) -> list:
    """(row number, line) of every line after the header (row 1) that holds
    more than whitespace, commas and quotes."""
    with open(path, newline="") as fh:
        return [(n, line) for n, line in enumerate(fh, start=1)
                if n > 1 and line.replace(",", "").replace('"', "").strip()]


def _first_unparsable(lines: list) -> int:
    """Index of the first line `_parse_rows` rejects, given that it rejects one."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; the first bad line is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _load_long_csv(path: Path) -> SemiSymTensor:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path.name}: empty file")
        header = next(csv.reader([first]), [])
        if [c.strip().lower() for c in header] != ["t", "i", "j", "w"]:
            raise ParseError(f"{path.name}: expected header 't,i,j,w', got {header}")
        # np.loadtxt only warns on input without rows, so look for some first.
        start = fh.tell()
        has_data = any(chunk.strip() for chunk in iter(lambda: fh.read(1 << 16), ""))
        fh.seek(start)
        numbered = None  # (row number, line) pairs, read only when needed
        try:
            rows = _parse_rows(fh) if has_data else None
        except ValueError:
            # Lines of only commas or whitespace (skipped, as blank) or a
            # malformed row: parse again without the blank lines.
            numbered = _data_lines(path)
            lines = [line for _, line in numbered]
            try:
                rows = _parse_rows(lines) if lines else None
            except ValueError:
                n, line = numbered[_first_unparsable(lines)]
                raise ParseError(
                    f"{path.name}, row {n}: expected 4 fields t,i,j,w (integers t, i, j and "
                    f"a number w), got {line.strip()[:80]!r}"
                ) from None
    if rows is None:
        raise ParseError(f"{path.name}: no data rows")

    def row_number(k) -> int:
        return (numbered or _data_lines(path))[k][0]

    t, i, j, w = rows["t"], rows["i"], rows["j"], rows["w"]
    bad = np.flatnonzero((i < 1) | (j < 1))
    if bad.size:
        raise ParseError(f"{path.name}, row {row_number(bad[0])}: node indices are 1-based")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NonFiniteEntry(f"{path.name}, row {row_number(bad[0])}: weight {w[bad[0]]} "
                             "is not finite")
    times, slot = np.unique(t, return_inverse=True)
    p, T = int(max(i.max(), j.max())), times.size
    # Flat indices into the (p, p, T) tensor of each row's entry (a, b) and its mirror (b, a).
    a, b = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    entry, mirror = (a * p + b) * T + slot, (b * p + a) * T + slot
    del a, b, slot  # 24 B per row less at the peak below
    # The lowest row number naming each entry, in one O(rows) pass (np.unique would sort).
    try:
        first = np.full(p * p * T, entry.size, dtype=np.intp)
    except (MemoryError, ValueError):  # numpy refuses the size at once, touching no memory
        k = int(np.argmax(np.maximum(i, j)))
        raise ParseError(f"{path.name}, row {row_number(k)}: node index {max(i[k], j[k])} "
                         f"makes p={p}, T={T}, a tensor too large to allocate") from None
    np.minimum.at(first, entry, np.arange(entry.size))
    kept = w[first[entry]]  # the first weight of each row's entry
    gap = abs(w - kept)  # in the difference's buffer, where np.abs would allocate
    del first  # after gap is allocated, so that the tensor, as large, can take its place
    conflict = np.flatnonzero(gap > DUPLICATE_TOL)
    if conflict.size:
        k = conflict[0]  # the conflict read first
        raise AsymmetricInput(
            f"{path.name}, row {row_number(k)}: pair ({i[k]},{j[k]}) at t={t[k]} "
            f"conflicts with earlier value by {gap[k]:.3e}"
        )
    data = np.zeros(p * p * T)
    # All writes to one entry carry its first weight, so their order does not matter.
    data[entry] = data[mirror] = kept
    return SemiSymTensor._trusted(data.reshape(p, p, T))  # (a, b) == (b, a) bitwise


def load_tensor(path) -> SemiSymTensor:
    """Read a tensor from disk: a directory as slice-dir, a regular file as long-csv,
    anything else is a ParseError. Slice order follows sorted names / times."""
    path = Path(path)
    if path.is_dir():
        return _load_slice_dir(path)
    if path.is_file():
        return _load_long_csv(path)
    raise ParseError(f"{path} is neither a file nor a directory")


def write_long_csv(X: SemiSymTensor, path) -> None:
    """Write a tensor in long-csv form (upper triangle with the diagonal, 1-based indices).

    Lines end in CRLF and weights are written as ``repr(float)``, which reads
    back to the same double.
    """
    iu, ju = np.triu_indices(X.p)
    pairs = [f"{a},{b}," for a, b in zip((iu + 1).tolist(), (ju + 1).tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,i,j,w\r\n")
        for t in range(X.T):
            weights = map(repr, X.data[iu, ju, t].tolist())
            sep = f"\r\n{t + 1},"  # ends one line and starts the next
            fh.write(sep[2:] + sep.join(map(str.__add__, pairs, weights)) + "\r\n")


def write_csv(path, header: list, rows) -> None:
    """Write a CSV table, header row first, CRLF line ends; no-op without a path."""
    if not path:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def factor_to_dict(f: Factor) -> dict:
    return {
        "d": f.d,
        "p": f.V.shape[0],
        "r": f.V.shape[1],
        "T": len(f.u),
        "u": f.u,
        "V": f.V.ravel(order="C"),  # row-major
    }


def factor_from_dict(dct: dict) -> Factor:
    p, r = dct["p"], dct["r"]
    V = np.asarray(dct["V"], dtype=np.float64)
    if V.size != p * r:
        raise ParseError(f"factor V has {V.size} entries, expected p*r = {p * r}")
    return Factor(u=np.asarray(dct["u"], dtype=np.float64), V=V.reshape(p, r), d=float(dct["d"]))


def load_factors(path) -> list:
    """Factors back out of a decompose/changepoint results file, else ParseError."""
    results = json.loads(Path(path).read_text()).get("results", {})
    if "factor" in results:
        return [factor_from_dict(results["factor"])]
    if "factors" not in results:
        raise ParseError(f"{Path(path).name}: holds no 'factor' or 'factors' results")
    return [factor_from_dict(d) for d in results["factors"]]
