"""Loading datasets from disk into schema-validated partitioned form.

Two formats: headered CSV (comma-separated, UTF-8, no quoting) and sparse
libsvm lines.  Rows become instances with sequential ids in file order and
are split contiguously into near-equal partitions, so a given file always
produces the identical dataset.

A JSON sidecar can pin column names/kinds, the class column, and the class
label set; without one, CSV schemas are inferred (a column is numeric iff
every cell parses as a Python `float`, the last column is the class).
Values must be finite: a NaN or infinity in a numeric column, declared or
inferred, is an error, as is a missing value (an empty or `?` cell);
nothing is imputed.  Every error names the file and, where there is one,
the first bad line in file order.  A NaN or infinity in an inferred column
is known to be an error only once the column has stayed numeric to the end
of the file, so it is reported after any other fault.

The CSV reader streams the file in chunks of CHUNK_LINES lines and parses
each cell once, straight into the float64 array that the partitions slice,
so ingest holds the final arrays plus one chunk of text.  Nominal cells and
class labels are interned as they arrive and recoded in sorted-string order
at the end.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .engine import PartitionedDataset
from .model import FeatureKind, FeatureMeta, InstanceBlock, Schema

__all__ = ["IngestError", "DatasetSource", "infer_schema", "load"]

MISSING_TOKENS = ("", "?")
CHUNK_LINES = 512  # lines per parse step; a chunk costs about 110 bytes per cell
_KINDS = tuple(kind.value for kind in FeatureKind)


class IngestError(ValueError):
    """Unusable input file; the message carries the offending line number."""


@dataclass(frozen=True)
class DatasetSource:
    path: str
    format: str = "csv"
    schema_sidecar: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("csv", "libsvm"):
            raise IngestError(f"unsupported format {self.format!r}")


def _check_file(path: str) -> None:
    if not os.path.isfile(path):
        raise IngestError(f"no such file: {path}")


def _line_chunks(fh):
    """Lists of up to CHUNK_LINES lines of a text file opened with universal
    newlines, cut at "\\n" only: `str.splitlines` would also cut inside a
    cell, at U+2028, a form feed and the like."""
    try:
        while (lines := "".join(islice(fh, CHUNK_LINES)).split("\n")) != [""]:
            if not lines[-1]:  # the chunk ended in "\n"
                lines.pop()
            yield lines
    except UnicodeDecodeError as exc:
        raise IngestError(f"{fh.name}: not UTF-8 text ({exc.reason})") from None


def _newlines(path: str) -> int:
    """The number of "\\n" bytes in the file: the rows to allocate."""
    with open(path, "rb") as fh:
        return sum(buf.count(b"\n") for buf in iter(lambda: fh.read(1 << 20), b""))


def _grown(arr: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((max(rows, 2 * len(arr)),) + arr.shape[1:], dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


def _load_sidecar(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise IngestError(f"{path}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: sidecar must be a JSON object")
    labels = doc.get("class_labels")
    if labels is not None:
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise IngestError(f'{path}: sidecar "class_labels" must be a list of strings')
        if len(set(labels)) != len(labels):
            raise IngestError(f'{path}: sidecar "class_labels" repeats a label')
        if len(labels) < 2:
            raise IngestError(f'{path}: sidecar "class_labels" needs at least two labels')
    return doc


def _csv_layout(header: list[str], sidecar: dict, path: str):
    """(class column position, declared FeatureKind or None per column)."""
    declared = sidecar.get("columns")
    kinds = [None] * len(header)
    if declared is not None:
        if not (isinstance(declared, list) and all(isinstance(c, dict) for c in declared)):
            raise IngestError(f'{path}: sidecar "columns" must be a list of objects')
        for i, col in enumerate(declared):
            if not isinstance(col.get("name"), str):
                raise IngestError(f'{path}: sidecar column {i} has no "name" string')
            if "kind" in col and col["kind"] not in _KINDS:
                raise IngestError(
                    f"{path}: sidecar column {col['name']!r} has unknown kind {col['kind']!r}"
                    f" (expected one of {', '.join(_KINDS)})"
                )
        names = [c["name"] for c in declared]
        if names != header:
            raise IngestError(f"{path}: sidecar columns {names} do not match header {header}")
        kinds = [FeatureKind(c["kind"]) if "kind" in c else None for c in declared]
    class_name = sidecar.get("class_column", header[-1])
    if class_name not in header:
        raise IngestError(f"{path}: class column {class_name!r} not in header")
    return header.index(class_name), kinds


def _intern(table: dict, cells) -> np.ndarray:
    """Codes of `cells` in `table`, adding unseen cells with the next codes."""
    for cell in set(cells).difference(table):
        table[cell] = len(table)
    return np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))


def _first_missing(cells) -> int | None:
    hits = [cells.index(t) for t in MISSING_TOKENS if t in cells]
    return min(hits) if hits else None


def _sorted_codes(table: dict):
    """The table's cells in sorted order, and each provisional code's rank."""
    cells = sorted(table)
    rank = np.empty(len(cells), dtype=np.int64)
    rank[[table[c] for c in cells]] = np.arange(len(cells))
    return cells, rank


def _first_bad(cells, name: str):
    """(index, message) of the first cell that is not a finite real."""
    for i, cell in enumerate(cells):
        if cell in MISSING_TOKENS:
            return i, f"missing value in column {name!r}"
        try:
            value = float(cell)
        except ValueError:
            return i, f"cannot parse {cell!r} in numeric column {name!r}"
        if not math.isfinite(value):
            return i, f"non-finite value {cell!r} in numeric column {name!r}"
    raise AssertionError("every cell is a finite real")


class _Column:
    """Parse state of one feature column.

    `table` is None while every cell so far parses as a real; once the
    column is nominal it maps each cell to a provisional code.  Rows before
    `since` (a column that turned nominal after its first chunk) still hold
    reals, and are interned by a second read at the end.
    """

    __slots__ = ("name", "pos", "out", "declared", "table", "since", "non_finite")

    def __init__(self, name: str, pos: int, out: int, declared: FeatureKind | None):
        self.name, self.pos, self.out, self.declared = name, pos, out, declared
        self.table = {} if declared is FeatureKind.NOMINAL else None
        self.since = 0
        self.non_finite = None  # (row, message) of an inferred column's first NaN or inf

    def feed(self, cells, r0: int, values: np.ndarray, bad: list) -> None:
        """Store one chunk's cells at rows r0 onwards; append (chunk row,
        message) of the column's first bad cell to `bad`."""
        rows = slice(r0, r0 + len(cells))
        if self.table is None:
            try:  # numpy turns each str into a float64 with Python's float()
                parsed = np.fromiter(cells, np.float64, len(cells))
            except ValueError:
                if self.declared is FeatureKind.NUMERIC:
                    bad.append(_first_bad(cells, self.name))
                    return
                self.table, self.since, self.non_finite = {}, r0, None
            else:
                values[rows, self.out] = parsed
                if not np.isfinite(parsed).all():
                    i, msg = _first_bad(cells, self.name)
                    if self.declared is FeatureKind.NUMERIC:
                        bad.append((i, msg))
                    elif self.non_finite is None:
                        # an error unless a later cell makes the column nominal
                        self.non_finite = (r0 + i, msg)
                return
        values[rows, self.out] = _intern(self.table, cells)
        miss = _first_missing(cells)
        if miss is not None:
            bad.append((miss, f"missing value in column {self.name!r}"))


def _read_csv(path: str, sidecar_path: str | None):
    """(schema, labels, values) of a headered CSV, parsed in one pass."""
    _check_file(path)
    capacity = max(_newlines(path), 1)  # the data rows, when lines end in "\n"
    with open(path, encoding="utf-8") as fh:
        chunks = _line_chunks(fh)
        first = next(chunks, None)
        if first is None:
            raise IngestError(f"{path}: empty file")
        header = first[0].split(",")
        ncols = len(header)
        if ncols < 2:
            raise IngestError(f"{path}: need at least one feature column and a class column")
        if len(set(header)) < ncols:
            name = next(name for i, name in enumerate(header) if name in header[:i])
            raise IngestError(f"{path}:1: column name {name!r} repeats in the header")
        sidecar = _load_sidecar(sidecar_path) if sidecar_path is not None else {}
        class_pos, kinds = _csv_layout(header, sidecar, path)
        feature_pos = [j for j in range(ncols) if j != class_pos]
        feats = [_Column(header[j], j, out, kinds[j]) for out, j in enumerate(feature_pos)]
        declared_labels = sidecar.get("class_labels")
        label_table = {label: i for i, label in enumerate(declared_labels or ())}
        values = np.empty((capacity, len(feats)), dtype=np.float64)
        labels = np.empty(capacity, dtype=np.int32)
        n = 0
        for lines in chain([first[1:]], chunks):
            bad, rows = [], len(lines)
            commas = [line.count(",") for line in lines]
            if commas.count(ncols - 1) != rows:
                rows = next(i for i, c in enumerate(commas) if c != ncols - 1)
                bad.append((rows, f"expected {ncols} cells, found {commas[rows] + 1}"))
            if n + rows > len(values):
                values, labels = _grown(values, n + rows), _grown(labels, n + rows)
            flat = ",".join(lines[:rows]).split(",") if rows else []
            for col in feats:
                col.feed(flat[col.pos :: ncols], n, values, bad)
            cells = flat[class_pos::ncols]
            codes = labels[n : n + rows]
            codes[:] = _intern(label_table, cells)
            miss = _first_missing(cells)
            if miss is not None:
                bad.append((miss, "missing class label"))
            if declared_labels is not None and len(label_table) > len(declared_labels):
                i = int(np.argmax(codes >= len(declared_labels)))
                bad.append((i, f"unknown class label {cells[i]!r}"))
            if bad:
                i, msg = min(bad, key=lambda b: b[0])
                raise IngestError(f"{path}:{n + i + 2}: {msg}")
            n += rows
    if n == 0:
        raise IngestError(f"{path}: no data rows after the header")
    pending = [col.non_finite for col in feats if col.table is None and col.non_finite]
    if pending:
        row, msg = min(pending)
        raise IngestError(f"{path}:{row + 2}: {msg}")
    values, labels = values[:n], labels[:n]
    _intern_early_rows(path, ncols, [col for col in feats if col.table is not None and col.since], values)
    for col in feats:
        if col.table is not None:
            _, rank = _sorted_codes(col.table)
            values[:, col.out] = rank[values[:, col.out].astype(np.intp)]
    class_labels = declared_labels
    if class_labels is None:
        class_labels, rank = _sorted_codes(label_table)
        if len(class_labels) < 2:
            raise IngestError(f"{path}: class column {header[class_pos]!r} has fewer than two labels")
        labels[:] = rank[labels]
    features = tuple(
        FeatureMeta(col.name, FeatureKind.NUMERIC if col.table is None else FeatureKind.NOMINAL, col.out)
        for col in feats
    )
    return Schema(features=features, class_labels=tuple(class_labels)), labels, values


def _intern_early_rows(path: str, ncols: int, cols: list[_Column], values: np.ndarray) -> None:
    """Re-read the rows that each column parsed as reals before it turned
    nominal, and store their provisional codes."""
    if not cols:
        return
    until = max(col.since for col in cols)
    with open(path, encoding="utf-8") as fh:
        chunks = _line_chunks(fh)
        r0 = 0
        for lines in chain([next(chunks)[1:]], chunks):
            if r0 >= until:
                break
            flat = ",".join(lines).split(",")
            for col in cols:
                k = min(len(lines), col.since - r0)
                if k > 0:
                    values[r0 : r0 + k, col.out] = _intern(col.table, flat[col.pos :: ncols][:k])
            r0 += len(lines)


def infer_schema(src: DatasetSource) -> Schema:
    """Schema from a headered CSV: numeric iff every cell parses as a real,
    last column is the class, labels sorted.  Raises what `load` raises on
    the same file without a sidecar."""
    if src.format != "csv":
        raise IngestError("schema inference requires the csv format")
    return _read_csv(src.path, None)[0]


def _load_libsvm(src: DatasetSource):
    _check_file(src.path)
    sidecar = _load_sidecar(src.schema_sidecar) if src.schema_sidecar else {}
    parsed = []
    max_idx = 0
    with open(src.path, encoding="utf-8") as fh:
        for lineno, line in enumerate(chain.from_iterable(_line_chunks(fh)), 1):
            tokens = line.split()
            if not tokens:
                continue
            pairs = []
            seen = set()
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise IngestError(f"{src.path}:{lineno}: malformed pair {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise IngestError(f"{src.path}:{lineno}: malformed pair {tok!r}") from None
                if idx < 1:
                    raise IngestError(f"{src.path}:{lineno}: index {idx} is not 1-based")
                if idx in seen:
                    raise IngestError(f"{src.path}:{lineno}: duplicate index {idx}")
                if not np.isfinite(val):
                    raise IngestError(f"{src.path}:{lineno}: non-finite value in {tok!r}")
                seen.add(idx)
                pairs.append((idx, val))
                max_idx = max(max_idx, idx)
            parsed.append((lineno, tokens[0], pairs))
    if not parsed:
        raise IngestError(f"{src.path}: empty file")

    a = sidecar.get("num_features", max_idx)
    if isinstance(a, bool) or not isinstance(a, int):
        raise IngestError(f'{src.schema_sidecar}: sidecar "num_features" must be an integer, not {a!r}')
    if a < 1 and "num_features" in sidecar:
        raise IngestError(f'{src.schema_sidecar}: sidecar "num_features" must be >= 1, not {a}')
    if a < 1:
        raise IngestError(f"{src.path}: no feature indices found")
    if max_idx > a:
        raise IngestError(f"{src.path}: feature index {max_idx} exceeds declared count {a}")
    feats = tuple(
        FeatureMeta(name=f"f{j + 1}", kind=FeatureKind.NUMERIC, index=j) for j in range(a)
    )
    label_strs = [label for _, label, _ in parsed]
    labels_decl = sidecar.get("class_labels")
    class_labels = tuple(labels_decl) if labels_decl else tuple(sorted(set(label_strs)))
    schema = Schema(features=feats, class_labels=class_labels)

    n = len(parsed)
    values = np.zeros((n, a), dtype=np.float64)
    labels = np.empty(n, dtype=np.int32)
    table = {label: i for i, label in enumerate(class_labels)}
    for row_i, (lineno, label, pairs) in enumerate(parsed):
        try:
            labels[row_i] = table[label]
        except KeyError:
            raise IngestError(f"{src.path}:{lineno}: unknown class label {label!r}") from None
        for idx, val in pairs:
            values[row_i, idx - 1] = val
    return schema, labels, values


def load(src: DatasetSource, partitions: int = 1) -> PartitionedDataset:
    """Read the source into `partitions` contiguous near-equal blocks.

    Row ids are the 0-based file positions, so concatenating the partitions
    in order reproduces the file exactly.
    """
    if partitions < 1:
        raise IngestError("partitions must be >= 1")
    if src.format == "csv":
        schema, labels, values = _read_csv(src.path, src.schema_sidecar)
    else:
        schema, labels, values = _load_libsvm(src)
    block = InstanceBlock(np.arange(len(labels), dtype=np.int64), labels, values)
    return PartitionedDataset.split(block, partitions, schema)
