"""File loading: inference rules, sidecar overrides, and error reporting."""

import json

import numpy as np
import pytest

from direlieff.ingest import DatasetSource, IngestError, infer_schema, load
from direlieff.model import FeatureKind


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TOY = "x,y,label\n1.0,a,y\n2,b,n\n3.5,a,y\n0.5,b,n\n"


class TestInferSchema:
    def test_numeric_nominal_class(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", TOY))
        sch = infer_schema(src)
        assert [f.kind for f in sch.features] == [FeatureKind.NUMERIC, FeatureKind.NOMINAL]
        assert [f.name for f in sch.features] == ["x", "y"]
        assert sch.class_labels == ("n", "y")

    def test_mixed_column_is_nominal(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,b,label\n1.0,1,y\nx,2,n\n"))
        sch = infer_schema(src)
        assert sch.features[0].kind is FeatureKind.NOMINAL
        assert sch.features[1].kind is FeatureKind.NUMERIC

    def test_non_finite_token_is_nominal(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,label\ninf,y\n2.0,n\n"))
        assert infer_schema(src).features[0].kind is FeatureKind.NOMINAL

    def test_header_only_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,b,label\n"))
        with pytest.raises(IngestError, match="no data rows"):
            infer_schema(src)

    def test_empty_file_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", ""))
        with pytest.raises(IngestError, match="empty"):
            infer_schema(src)

    def test_single_column_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "label\ny\nn\n"))
        with pytest.raises(IngestError):
            infer_schema(src)


class TestLoadCsv:
    def test_even_split(self, tmp_path):
        ds = load(DatasetSource(write(tmp_path, "t.csv", TOY)), partitions=2)
        assert [len(ds.partition(i)) for i in range(2)] == [2, 2]

    def test_remainder_to_earliest(self, tmp_path):
        text = TOY + "9,a,y\n"
        ds = load(DatasetSource(write(tmp_path, "t.csv", text)), partitions=2)
        assert [len(ds.partition(i)) for i in range(2)] == [3, 2]

    def test_ids_follow_file_order(self, tmp_path):
        ds = load(DatasetSource(write(tmp_path, "t.csv", TOY)), partitions=3)
        ids = [int(i) for p in range(ds.num_partitions) for i in ds.partition(p).ids]
        assert ids == [0, 1, 2, 3]
        assert ds.partition(0).values[0, 0] == 1.0
        assert ds.partition(1).values[0, 0] == 3.5

    def test_deterministic(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", TOY))
        d1, d2 = load(src, 2), load(src, 2)
        for i in range(2):
            assert np.array_equal(d1.partition(i).values, d2.partition(i).values)
            assert np.array_equal(d1.partition(i).ids, d2.partition(i).ids)

    def test_nominal_interning_and_labels(self, tmp_path):
        ds = load(DatasetSource(write(tmp_path, "t.csv", TOY)), partitions=1)
        block = ds.partition(0)
        # categories a/b intern to 0/1; labels n/y to 0/1 (sorted)
        assert block.values[:, 1].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert block.labels.tolist() == [1, 0, 1, 0]

    def test_ragged_row_reports_line(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,b,label\n1,2,y\n3,n\n"))
        with pytest.raises(IngestError, match=r"t\.csv:3"):
            load(src)

    def test_missing_value_reports_line(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,label\n1,y\n?,n\n"))
        with pytest.raises(IngestError, match=r"t\.csv:3.*missing"):
            load(src)

    def test_empty_cell_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,b,label\n1,x,y\n2,,n\n"))
        with pytest.raises(IngestError, match=r"t\.csv:3.*missing"):
            load(src)

    def test_partition_concat_reproduces_file(self, tmp_path):
        text = "a,label\n" + "".join(f"{i}.5,{'y' if i % 2 else 'n'}\n" for i in range(17))
        src = DatasetSource(write(tmp_path, "t.csv", text))
        whole = load(src, 1).partition(0)
        for parts in (2, 4, 8):
            ds = load(src, parts)
            cat_ids = np.concatenate([ds.partition(i).ids for i in range(parts)])
            cat_vals = np.concatenate([ds.partition(i).values for i in range(parts)])
            assert np.array_equal(cat_ids, whole.ids)
            assert np.array_equal(cat_vals, whole.values)


class TestSidecar:
    def make(self, tmp_path, doc):
        return write(tmp_path, "t.schema.json", json.dumps(doc))

    def test_kind_override(self, tmp_path):
        # integer-coded column forced nominal despite parsing as numeric
        csv = write(tmp_path, "t.csv", "code,label\n1,y\n2,n\n1,y\n")
        side = self.make(
            tmp_path,
            {
                "columns": [{"name": "code", "kind": "nominal"}, {"name": "label"}],
                "class_column": "label",
            },
        )
        ds = load(DatasetSource(csv, schema_sidecar=side))
        assert ds.schema.features[0].kind is FeatureKind.NOMINAL

    def test_class_column_override(self, tmp_path):
        csv = write(tmp_path, "t.csv", "label,a\ny,1.0\nn,2.0\n")
        side = self.make(tmp_path, {"class_column": "label"})
        ds = load(DatasetSource(csv, schema_sidecar=side))
        assert [f.name for f in ds.schema.features] == ["a"]
        assert ds.schema.class_labels == ("n", "y")

    def test_unknown_label_rejected(self, tmp_path):
        csv = write(tmp_path, "t.csv", "a,label\n1,y\n2,weird\n")
        side = self.make(tmp_path, {"class_labels": ["y", "n"]})
        with pytest.raises(IngestError, match=r"t\.csv:3.*weird"):
            load(DatasetSource(csv, schema_sidecar=side))

    def test_column_mismatch_rejected(self, tmp_path):
        csv = write(tmp_path, "t.csv", "a,label\n1,y\n2,n\n")
        side = self.make(tmp_path, {"columns": [{"name": "other"}, {"name": "label"}]})
        with pytest.raises(IngestError, match="do not match"):
            load(DatasetSource(csv, schema_sidecar=side))

    def test_declared_label_order_is_respected(self, tmp_path):
        csv = write(tmp_path, "t.csv", "a,label\n1,y\n2,n\n")
        side = self.make(tmp_path, {"class_labels": ["y", "n"]})
        ds = load(DatasetSource(csv, schema_sidecar=side))
        assert ds.schema.class_labels == ("y", "n")
        assert ds.partition(0).labels.tolist() == [0, 1]


class TestLoadLibsvm:
    def test_sparse_defaults_to_zero(self, tmp_path):
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:0.5 3:2.0\n0 2:1.0\n"), format="libsvm"
        )
        ds = load(src)
        block = ds.partition(0)
        assert block.values.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert ds.schema.class_labels == ("0", "1")
        assert all(f.kind is FeatureKind.NUMERIC for f in ds.schema.features)

    def test_blank_lines_skipped(self, tmp_path):
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:1.0\n\n0 1:2.0\n"), format="libsvm"
        )
        assert len(load(src).partition(0)) == 2

    def test_malformed_pair_reports_line(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.libsvm", "1 1:1.0\n0 oops\n"), format="libsvm")
        with pytest.raises(IngestError, match=r"t\.libsvm:2"):
            load(src)

    def test_zero_index_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.libsvm", "1 0:1.0\n0 1:1\n"), format="libsvm")
        with pytest.raises(IngestError, match="1-based"):
            load(src)

    def test_duplicate_index_rejected(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.libsvm", "1 1:1.0 1:2.0\n0 1:1\n"), format="libsvm")
        with pytest.raises(IngestError, match="duplicate"):
            load(src)

    def test_sidecar_feature_count(self, tmp_path):
        side = write(tmp_path, "t.json", json.dumps({"num_features": 5}))
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:1.0\n0 2:1.0\n"), format="libsvm", schema_sidecar=side
        )
        assert load(src).schema.num_features == 5


class TestSource:
    def test_unknown_format(self):
        with pytest.raises(IngestError):
            DatasetSource("x.csv", format="parquet")

    def test_missing_file(self):
        with pytest.raises(IngestError, match="no such file"):
            load(DatasetSource("/nonexistent/data.csv"))

    def test_bad_partition_count(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", TOY))
        with pytest.raises(IngestError):
            load(src, partitions=0)
