"""Loading datasets from disk into schema-validated partitioned form.

Two formats: headered CSV (comma-separated, UTF-8, no quoting) and sparse
libsvm lines.  Rows become instances with sequential ids in file order and
are split contiguously into near-equal partitions, so a given file always
produces the identical dataset.

A JSON sidecar can pin column names/kinds, the class column, and the class
label set; without one, CSV schemas are inferred (a column is numeric iff
every cell parses as a finite real, the last column is the class).  Missing
values are rejected, not imputed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import PartitionedDataset, split_sizes
from .model import FeatureKind, FeatureMeta, InstanceBlock, Schema

__all__ = ["IngestError", "DatasetSource", "infer_schema", "load"]

MISSING_TOKENS = ("", "?")


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


def _read_lines(path: str) -> list[str]:
    if not os.path.isfile(path):
        raise IngestError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _split_csv(path: str):
    """Header cells plus data rows; all cells kept as strings."""
    lines = _read_lines(path)
    if not lines:
        raise IngestError(f"{path}: empty file")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    ncols = len(header)
    if ncols < 2:
        raise IngestError(f"{path}: need at least one feature column and a class column")
    if not rows:
        raise IngestError(f"{path}: no data rows after the header")
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise IngestError(f"{path}:{i + 2}: expected {ncols} cells, found {len(row)}")
    return header, rows


def _first_missing_line(col: np.ndarray) -> int | None:
    hit = np.flatnonzero(np.isin(col, MISSING_TOKENS))
    return int(hit[0]) if hit.size else None


def _parse_numeric_column(col: np.ndarray, path: str, name: str):
    """Exact float64 parse of a string column, with line-numbered failures."""
    miss = _first_missing_line(col)
    if miss is not None:
        raise IngestError(f"{path}:{miss + 2}: missing value in column {name!r}")
    try:
        out = col.astype(np.float64)
    except ValueError:
        for i, cell in enumerate(col):
            try:
                float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}:{i + 2}: cannot parse {str(cell)!r} in numeric column {name!r}"
                ) from None
        raise
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise IngestError(
            f"{path}:{int(bad[0]) + 2}: non-finite value {str(col[bad[0]])!r} in numeric column {name!r}"
        )
    return out


def _column_is_numeric(col: np.ndarray) -> bool:
    try:
        parsed = col.astype(np.float64)
    except ValueError:
        return False
    return bool(np.isfinite(parsed).all())


def _load_sidecar(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise IngestError(f"{path}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: sidecar must be a JSON object")
    return doc


def _infer_from_parsed(header: list[str], cols, path: str) -> Schema:
    feats = []
    for j, name in enumerate(header[:-1]):
        kind = FeatureKind.NUMERIC if _column_is_numeric(cols[j]) else FeatureKind.NOMINAL
        feats.append(FeatureMeta(name=name, kind=kind, index=j))
    labels = tuple(sorted(set(cols[-1].tolist())))
    if len(labels) < 2:
        raise IngestError(f"{path}: class column {header[-1]!r} has fewer than two labels")
    return Schema(features=tuple(feats), class_labels=labels)


def infer_schema(src: DatasetSource) -> Schema:
    """Schema from a headered CSV: numeric iff every cell parses as a finite
    real, last column is the class, labels sorted."""
    if src.format != "csv":
        raise IngestError("schema inference requires the csv format")
    header, rows = _split_csv(src.path)
    cols = [np.asarray(col) for col in zip(*rows)]
    return _infer_from_parsed(header, cols, src.path)


def _schema_from_sidecar(header: list[str], cols, sidecar: dict, path: str):
    """(schema, class column position) honouring the sidecar declarations."""
    declared = sidecar.get("columns")
    if declared is not None:
        names = [c["name"] for c in declared]
        if names != header:
            raise IngestError(f"{path}: sidecar columns {names} do not match header {header}")
    class_name = sidecar.get("class_column", header[-1])
    if class_name not in header:
        raise IngestError(f"{path}: class column {class_name!r} not in header")
    class_pos = header.index(class_name)
    feats = []
    for j, name in enumerate(header):
        if j == class_pos:
            continue
        if declared is not None and "kind" in declared[j]:
            kind = FeatureKind(declared[j]["kind"])
        else:
            kind = FeatureKind.NUMERIC if _column_is_numeric(cols[j]) else FeatureKind.NOMINAL
        feats.append(FeatureMeta(name=name, kind=kind, index=len(feats)))
    labels = sidecar.get("class_labels")
    if labels is None:
        labels = sorted(set(cols[class_pos].tolist()))
    return Schema(features=tuple(feats), class_labels=tuple(labels)), class_pos


def _encode_labels(col: np.ndarray, schema: Schema, path: str) -> np.ndarray:
    miss = _first_missing_line(col)
    if miss is not None:
        raise IngestError(f"{path}:{miss + 2}: missing class label")
    table = {label: i for i, label in enumerate(schema.class_labels)}
    out = np.empty(len(col), dtype=np.int32)
    for i, cell in enumerate(col):
        try:
            out[i] = table[cell]
        except KeyError:
            raise IngestError(f"{path}:{i + 2}: unknown class label {cell!r}") from None
    return out


def _load_csv(src: DatasetSource):
    header, rows = _split_csv(src.path)
    cols = [np.asarray(col) for col in zip(*rows)]
    if src.schema_sidecar is not None:
        sidecar = _load_sidecar(src.schema_sidecar)
        schema, class_pos = _schema_from_sidecar(header, cols, sidecar, src.path)
    else:
        schema = _infer_from_parsed(header, cols, src.path)
        class_pos = len(header) - 1

    n = len(rows)
    values = np.empty((n, schema.num_features), dtype=np.float64)
    feature_pos = [j for j in range(len(header)) if j != class_pos]
    for out_idx, j in enumerate(feature_pos):
        meta = schema.features[out_idx]
        col = cols[j]
        if meta.kind is FeatureKind.NUMERIC:
            values[:, out_idx] = _parse_numeric_column(col, src.path, meta.name)
        else:
            miss = _first_missing_line(col)
            if miss is not None:
                raise IngestError(f"{src.path}:{miss + 2}: missing value in column {meta.name!r}")
            # intern categories as small exact integers, sorted for stability
            _, inverse = np.unique(col, return_inverse=True)
            values[:, out_idx] = inverse.astype(np.float64)
    labels = _encode_labels(cols[class_pos], schema, src.path)
    return schema, labels, values


def _load_libsvm(src: DatasetSource):
    lines = _read_lines(src.path)
    rows = [(i, line.split()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise IngestError(f"{src.path}: empty file")
    sidecar = _load_sidecar(src.schema_sidecar) if src.schema_sidecar else {}

    parsed = []
    max_idx = 0
    for lineno0, tokens in rows:
        pairs = []
        seen = set()
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise IngestError(f"{src.path}:{lineno0 + 1}: malformed pair {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise IngestError(f"{src.path}:{lineno0 + 1}: malformed pair {tok!r}") from None
            if idx < 1:
                raise IngestError(f"{src.path}:{lineno0 + 1}: index {idx} is not 1-based")
            if idx in seen:
                raise IngestError(f"{src.path}:{lineno0 + 1}: duplicate index {idx}")
            if not np.isfinite(val):
                raise IngestError(f"{src.path}:{lineno0 + 1}: non-finite value in {tok!r}")
            seen.add(idx)
            pairs.append((idx, val))
            max_idx = max(max_idx, idx)
        parsed.append((lineno0, tokens[0], pairs))

    a = int(sidecar.get("num_features", max_idx))
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
    for row_i, (lineno0, label, pairs) in enumerate(parsed):
        try:
            labels[row_i] = table[label]
        except KeyError:
            raise IngestError(f"{src.path}:{lineno0 + 1}: unknown class label {label!r}") from None
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
        schema, labels, values = _load_csv(src)
    else:
        schema, labels, values = _load_libsvm(src)
    n = len(labels)
    ids = np.arange(n, dtype=np.int64)
    blocks = []
    at = 0
    for size in split_sizes(n, partitions):
        blocks.append(InstanceBlock(ids[at : at + size], labels[at : at + size], values[at : at + size]))
        at += size
    return PartitionedDataset.from_blocks(blocks, schema=schema)
