"""File loading: inference rules, sidecar overrides, and error reporting."""

import csv
import json
import math
import string
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from direlieff import ingest
from direlieff.engine import split_sizes
from direlieff.ingest import DatasetSource, IngestError, infer_schema, load
from direlieff.model import FeatureKind, FeatureMeta, Schema


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# characters that str.splitlines cuts at besides "\n", "\r" and "\r\n"
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
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

    def test_non_finite_token_is_rejected(self, tmp_path):
        # every cell parses as a real, so the column is numeric and inf is an error
        src = DatasetSource(write(tmp_path, "t.csv", "a,label\n2.0,y\ninf,n\n"))
        with pytest.raises(IngestError, match=r"t\.csv:3: non-finite value 'inf' in numeric column 'a'"):
            infer_schema(src)
        with pytest.raises(IngestError, match=r"t\.csv:3: non-finite"):
            load(src)

    def test_non_finite_token_in_nominal_column(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.csv", "a,label\nnan,y\nx,n\ninf,y\n"))
        assert infer_schema(src).features[0].kind is FeatureKind.NOMINAL
        assert load(src).partition(0).values[:, 0].tolist() == [1.0, 2.0, 0.0]

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

    @pytest.mark.parametrize("header, name", [("a,a,label", "a"), ("a,label,label", "label")])
    def test_repeated_header_name(self, tmp_path, header, name):
        # the ragged row after the header is never reached
        src = DatasetSource(write(tmp_path, "t.csv", f"{header}\n1,y\n2,3,n\n"))
        with pytest.raises(IngestError, match=rf"t\.csv:1: column name '{name}' repeats in the header"):
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

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_only_newlines_end_lines(self, tmp_path, sep):
        # such a character is whitespace between pairs, not a line end
        text = f"1 1:0.5{sep}2:1.0\n0 2:3.0\n1 1:x\n"
        src = DatasetSource(write(tmp_path, "t.libsvm", text), format="libsvm")
        with pytest.raises(IngestError, match=r"t\.libsvm:3: malformed pair '1:x'"):
            load(src)
        src = DatasetSource(write(tmp_path, "t.libsvm", text.rpartition("1 1:x")[0]), format="libsvm")
        assert load(src).partition(0).values.tolist() == [[0.5, 1.0], [0.0, 3.0]]

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

    def test_sidecar_needs_two_class_labels(self, tmp_path):
        side = write(tmp_path, "t.json", json.dumps({"class_labels": []}))
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:1.0\n0 2:1.0\n"), format="libsvm", schema_sidecar=side
        )
        with pytest.raises(IngestError, match="at least two labels"):
            load(src)

    def test_sidecar_feature_count(self, tmp_path):
        side = write(tmp_path, "t.json", json.dumps({"num_features": 5}))
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:1.0\n0 2:1.0\n"), format="libsvm", schema_sidecar=side
        )
        assert load(src).schema.num_features == 5

    @pytest.mark.parametrize("count", [0, -2])
    def test_sidecar_feature_count_below_one(self, tmp_path, count):
        side = write(tmp_path, "t.json", json.dumps({"num_features": count}))
        src = DatasetSource(
            write(tmp_path, "t.libsvm", "1 1:1.0\n0 2:1.0\n"), format="libsvm", schema_sidecar=side
        )
        with pytest.raises(IngestError, match=rf't\.json: sidecar "num_features" must be >= 1, not {count}$'):
            load(src)

    def test_no_feature_indices(self, tmp_path):
        src = DatasetSource(write(tmp_path, "t.libsvm", "1\n0\n"), format="libsvm")
        with pytest.raises(IngestError, match=r"t\.libsvm: no feature indices found"):
            load(src)


class TestSource:
    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_not_utf8(self, tmp_path, fmt):
        path = tmp_path / "t.dat"
        path.write_bytes(b"a,label\n1,y\n\xff,n\n" if fmt == "csv" else b"1 1:0.5\n\xff 1:1\n")
        with pytest.raises(IngestError, match="not UTF-8 text"):
            load(DatasetSource(str(path), format=fmt))

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


def is_real(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
TOKENS = st.text(string.ascii_letters + string.digits + ".+-_ ", min_size=1, max_size=5)
NOT_REAL = TOKENS.filter(lambda t: not is_real(t))


@st.composite
def mixed_files(draw):
    """Columns of reals and of nominal tokens, the class last: the CSV text
    and the arrays and schema that loading it must give."""
    n = draw(st.integers(2, 40))
    nominal = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    names, cells, values, features = [], [], [], []
    for j, is_nominal in enumerate(nominal):
        name = f"f{j}"
        if is_nominal:
            # a pool that mixes real-looking and other tokens, so the column
            # often turns nominal only in a late chunk
            pool = draw(st.lists(TOKENS | REALS.map(repr), min_size=1, max_size=6))
            col = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            col[draw(st.integers(0, n - 1))] = draw(NOT_REAL)
            table = {cell: code for code, cell in enumerate(sorted(set(col)))}
            values.append([float(table[cell]) for cell in col])
        else:
            col = draw(st.lists(REALS, min_size=n, max_size=n))
            values.append(col)
            col = [repr(v) for v in col]
        names.append(name)
        cells.append(col)
        kind = FeatureKind.NOMINAL if is_nominal else FeatureKind.NUMERIC
        features.append(FeatureMeta(name, kind, j))
    label_cells = draw(st.lists(st.text(string.ascii_letters + string.digits, min_size=1, max_size=3),
                                min_size=n, max_size=n))
    assume(len(set(label_cells)) >= 2)
    class_labels = tuple(sorted(set(label_cells)))
    text = ",".join(names + ["label"]) + "\n"
    text += "".join(",".join(row) + "\n" for row in zip(*cells, label_cells))
    labels = np.array([class_labels.index(c) for c in label_cells], dtype=np.int32)
    values = np.array(values, dtype=np.float64).T.reshape(n, len(nominal))
    return text, Schema(tuple(features), class_labels), labels, values


class TestChunkedReader:
    """The CSV reader with chunks of a few lines, so small files span many
    chunks and end in a partial one."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mixed_files(), chunk=st.integers(1, 7))
    def test_round_trip(self, tmp_path, case, chunk):
        text, schema, labels, values = case
        src = DatasetSource(write(tmp_path, "t.csv", text))
        with mock.patch.object(ingest, "CHUNK_LINES", chunk):
            assert infer_schema(src) == schema
            for parts in (1, 2, 3, 8):
                ds = load(src, parts)
                blocks = [ds.partition(i) for i in range(parts)]
                assert ds.schema == schema
                assert [len(b) for b in blocks] == split_sizes(len(labels), parts)
                assert np.array_equal(np.concatenate([b.ids for b in blocks]), np.arange(len(labels)))
                assert np.array_equal(np.concatenate([b.labels for b in blocks]), labels)
                got = np.concatenate([b.values for b in blocks])
                assert np.array_equal(got.view(np.int64), values.view(np.int64))

    ROWS = [f"{i}.5,{'xyz'[i % 3]},{'yn'[i % 2]}" for i in range(10)]

    @pytest.mark.parametrize(
        "edits, sidecar, want",
        [
            ({9: "9.5,x"}, None, r":11: expected 3 cells, found 2"),
            ({9: "?,x,n"}, None, r":11: missing value in column 'a'"),
            ({8: "8.5,,y"}, None, r":10: missing value in column 'b'"),
            ({9: "nan,x,n"}, None, r":11: non-finite value 'nan' in numeric column 'a'"),
            ({9: "9.5,x,maybe"}, {"class_labels": ["y", "n"]}, r":11: unknown class label 'maybe'"),
            ({9: "9.5,x,"}, None, r":11: missing class label"),
            # the first bad line in file order, whatever the kind of fault
            ({8: "8.5,x", 9: "?,x,n"}, None, r":10: expected 3 cells"),
            ({8: "8.5,,y", 9: "oops,x,n"}, {"columns": [{"name": "a", "kind": "numeric"}, {"name": "b"},
                                                     {"name": "label"}]}, r":10: missing value in column 'b'"),
            ({8: "oops,x,y", 9: "9.5,,n"}, {"columns": [{"name": "a", "kind": "numeric"}, {"name": "b"},
                                                     {"name": "label"}]}, r":10: cannot parse 'oops'"),
            ({8: "inf,x,y", 9: "oops,x,n"}, {"columns": [{"name": "a", "kind": "numeric"}, {"name": "b"},
                                                      {"name": "label"}]}, r":10: non-finite value 'inf'"),
            ({9: "9.5,z,n"}, None, None),
        ],
    )
    def test_errors_in_the_last_chunk(self, tmp_path, edits, sidecar, want):
        rows = list(self.ROWS)
        for i, row in edits.items():
            rows[i] = row
        csv = write(tmp_path, "t.csv", "a,b,label\n" + "\n".join(rows) + "\n")
        side = write(tmp_path, "t.json", json.dumps(sidecar)) if sidecar else None
        with mock.patch.object(ingest, "CHUNK_LINES", 4):
            if want is None:
                assert len(load(DatasetSource(csv, schema_sidecar=side)).partition(0)) == 10
            else:
                with pytest.raises(IngestError, match=r"t\.csv" + want):
                    load(DatasetSource(csv, schema_sidecar=side))

    def test_non_finite_then_late_nominal_cell(self, tmp_path):
        # inf in the first chunk is not an error once a later cell makes the column nominal
        rows = ["inf,y", "1,n", "2,y", "nan,n", "3,y", "4,n", "x,y"]
        csv = write(tmp_path, "t.csv", "a,label\n" + "\n".join(rows) + "\n")
        with mock.patch.object(ingest, "CHUNK_LINES", 2):
            block = load(DatasetSource(csv)).partition(0)
        # sorted categories: 1 2 3 4 inf nan x
        assert block.values[:, 0].tolist() == [4.0, 0.0, 1.0, 5.0, 2.0, 3.0, 6.0]

    def test_late_nominal_column_matches_one_chunk_read(self, tmp_path):
        cells = [repr(v) for v in np.random.default_rng(5).integers(0, 6, 40) / 2] + ["1", "1.0", "-0.0", "x"]
        text = "a,c,label\n" + "".join(f"{i},{c},{'yn'[i % 2]}\n" for i, c in enumerate(cells))
        src = DatasetSource(write(tmp_path, "t.csv", text))
        whole = load(src, 3)
        with mock.patch.object(ingest, "CHUNK_LINES", 5):
            chunked = load(src, 3)
        assert chunked.schema == whole.schema
        assert whole.schema.features[1].kind is FeatureKind.NOMINAL
        for i in range(3):
            assert np.array_equal(chunked.partition(i).values, whole.partition(i).values)
        table = {c: k for k, c in enumerate(sorted(set(cells)))}
        got = np.concatenate([whole.partition(i).values[:, 1] for i in range(3)])
        assert got.tolist() == [float(table[c]) for c in cells]

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_other_line_breaks(self, tmp_path, newline):
        # universal newlines read "\r" and "\r\n" as "\n", and the row count
        # may outgrow the storage sized from the "\n" count
        text = "a,b,label\n" + "".join(f"{i}.25,{'pq'[i % 2]},{'yn'[i % 3 % 2]}\n" for i in range(30))
        want = load(DatasetSource(write(tmp_path, "a.csv", text)), 2)
        with mock.patch.object(ingest, "CHUNK_LINES", 4):
            got = load(DatasetSource(write(tmp_path, "b.csv", text.replace("\n", newline))), 2)
        assert got.schema == want.schema
        for i in range(2):
            assert np.array_equal(got.partition(i).values, want.partition(i).values)
            assert np.array_equal(got.partition(i).labels, want.partition(i).labels)

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_only_newlines_end_lines(self, tmp_path, sep):
        # a nominal cell holding a character that str.splitlines cuts at is
        # one cell, as csv.reader reads it; column a turns nominal in the
        # last chunk, so its earlier rows are read again
        rows = [f"{i}.5,{f'p{sep}q' if i % 3 == 0 else 'r'},{'yn'[i % 2]}" for i in range(9)] + ["x,r,n"]
        path = write(tmp_path, "t.csv", "a,b,label\n" + "\n".join(rows) + "\n")
        with open(path, newline="", encoding="utf-8") as fh:
            cells = [row[1] for row in csv.reader(fh)][1:]
        assert cells.count(f"p{sep}q") == 3
        with mock.patch.object(ingest, "CHUNK_LINES", 4):
            block = load(DatasetSource(path)).partition(0)
        assert block.values[:, 0].tolist() == list(range(10))
        assert block.values[:, 1].tolist() == [float(cell == "r") for cell in cells]

    @pytest.mark.parametrize("chunk", [1, 4, 512])
    @pytest.mark.parametrize("line", [3, 5, 12])
    def test_blank_line_reports_its_line(self, tmp_path, chunk, line):
        lines = ["a,b,label"] + self.ROWS + [""]
        lines.insert(line - 1, "")
        csv_path = write(tmp_path, "t.csv", "\n".join(lines))
        with mock.patch.object(ingest, "CHUNK_LINES", chunk):
            with pytest.raises(IngestError, match=rf"t\.csv:{line}: expected 3 cells, found 1$"):
                load(DatasetSource(csv_path))

    def test_peak_memory_is_a_small_multiple_of_the_dataset(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 20_000
        cols = [[repr(v) for v in rng.normal(size=n).tolist()] for _ in range(8)]
        cols += [[f"k{v}" for v in rng.integers(0, 7, n).tolist()] for _ in range(2)]
        cols.append([f"c{v}" for v in rng.integers(0, 3, n).tolist()])
        header = [f"x{j}" for j in range(10)] + ["label"]
        text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cols))
        src = DatasetSource(write(tmp_path, "big.csv", text))
        del text, cols
        tracemalloc.start()
        try:
            ds = load(src, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = [ds.partition(i) for i in range(4)]
        held = sum(b.ids.nbytes + b.labels.nbytes + b.values.nbytes for b in blocks)
        assert held == n * (8 + 4 + 10 * 8)
        assert peak < 3 * held, f"peak {peak / 2**20:.1f} MiB for {held / 2**20:.1f} MiB of blocks"
