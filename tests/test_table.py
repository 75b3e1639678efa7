import csv
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse as sp

from bookml import (
    ConfigError,
    DataError,
    Table,
    join_inner,
    load_table,
    parse_csv,
    save_table,
    split_random,
)


# A prepared table written by the code from before columns declared
# themselves; see data/README.md.
PREPARED_V1 = Path(__file__).parent / "data" / "prepared_v1"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


AB = [("a", "int64", True), ("b", "text", True)]


class TestDeclaredColumns:
    """Table.build and parse_csv check their (name, dtype, nullable) triples alike."""

    def test_duplicate_names_rejected(self, tmp_path):
        columns = [("x", "int64", True), ("x", "text", True)]
        with pytest.raises(ConfigError):
            Table.build(columns, {"x": [1]})
        with pytest.raises(ConfigError):
            parse_csv(write(tmp_path, "x,x\n1,a\n"), columns)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            Table.build([], {})
        with pytest.raises(ConfigError):
            parse_csv(write(tmp_path, "x\n1\n"), [])

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            Table.build([("", "int64", True)], {"": [1]})
        with pytest.raises(ConfigError):
            parse_csv(write(tmp_path, "x\n1\n"), [("", "int64", True)])

    def test_nullable_not_a_bool_rejected(self, tmp_path):
        # save_table would write it, and load_table reject it.
        with pytest.raises(ConfigError):
            Table.build([("x", "int64", 1)], {"x": [1]})
        with pytest.raises(ConfigError):
            parse_csv(write(tmp_path, "x\n1\n"), [("x", "int64", 0)])

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            Table.build([("x", "int32", True)], {"x": [1]})
        with pytest.raises(ConfigError):
            parse_csv(write(tmp_path, "x\n1\n"), [("x", "int32", True)])


class TestParse:
    def test_two_line_file(self, tmp_path):
        res = parse_csv(write(tmp_path, "a,b\n1,x\n"), AB)
        assert res.table.row_count == 1
        assert res.table.column("a").value_at(0) == 1
        assert res.table.column("b").value_at(0) == "x"
        assert res.malformed_records == 0

    def test_quoted_field_keeps_delimiter(self, tmp_path):
        res = parse_csv(write(tmp_path, 'a,b\n1,"great, long review"\n'), AB)
        assert res.table.column("b").value_at(0) == "great, long review"

    def test_quoted_field_keeps_newline_and_doubled_quote(self, tmp_path):
        res = parse_csv(write(tmp_path, 'a,b\n1,"line1\nline2 ""quoted"""\n2,y\n'), AB)
        assert res.table.row_count == 2
        assert res.table.column("b").value_at(0) == 'line1\nline2 "quoted"'

    def test_field_count_mismatch_skipped_and_counted(self, tmp_path):
        res = parse_csv(
            write(tmp_path, "a,b\n1,x,extra\n2,y\n"),
            AB,
            max_malformed_fraction=0.5,
        )
        assert res.table.row_count == 1
        assert res.malformed_records == 1
        assert res.records_seen == 2

    def test_malformed_fraction_exceeded(self, tmp_path):
        path = write(tmp_path, "a,b\n1,x,extra\n2,y\n")
        with pytest.raises(DataError):
            parse_csv(path, AB, max_malformed_fraction=0.1)

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(DataError):
            parse_csv(write(tmp_path, "a,c\n1,x\n"), AB)

    def test_header_case_insensitive(self, tmp_path):
        res = parse_csv(write(tmp_path, "A,B\n1,x\n"), AB)
        assert res.table.row_count == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_csv(tmp_path / "nope.csv", AB)

    @pytest.mark.parametrize("records", [0, 1, 4000])
    def test_invalid_utf8_is_data_error_naming_the_record(self, tmp_path, records):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b\n" + b"1,x\n" * records + b"2,caf\xff\n")
        with pytest.raises(DataError) as info:
            parse_csv(path, AB)
        # The file decodes a block at a time: the record named is at or before the bad one.
        reached = re.search(r"data\.csv: invalid UTF-8 at or after record (\d+)", str(info.value))
        assert reached and 1 <= int(reached.group(1)) <= records + 1

    def test_unparsable_nullable_cell_becomes_null(self, tmp_path):
        res = parse_csv(write(tmp_path, "a,b\nnot-an-int,x\n"), AB)
        assert res.table.column("a").value_at(0) is None
        assert res.malformed_records == 0

    def test_unparsable_non_nullable_cell_is_malformed(self, tmp_path):
        schema = [("a", "int64", False), ("b", "text", True)]
        res = parse_csv(
            write(tmp_path, "a,b\nzzz,x\n1,y\n"),
            schema,
            max_malformed_fraction=0.5,
        )
        assert res.table.row_count == 1
        assert res.malformed_records == 1

    def test_roundtrip_parse_write_parse(self, tmp_path):
        schema = [("a", "int64", True), ("b", "text", True), ("c", "float64", True)]
        body = 'a,b,c\n1,"x, y",2.5\n,"with\nnewline",\n7,plain,0.1\n'
        first = parse_csv(write(tmp_path, body), schema).table
        out = tmp_path / "again.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(first.columns))
            cols = list(first.columns.values())
            for i in range(first.row_count):
                writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                                 for v in (col.value_at(i) for col in cols)])
        second = parse_csv(out, schema).table
        assert first.equals(second)


class TestJoin:
    def left(self):
        return Table.build(
            [("k", "text", True), ("lx", "int64", True)],
            {"k": ["A", "B"], "lx": [1, 2]},
        )

    def test_basic_intersection(self):
        right = Table.build([("k", "text", True), ("rx", "int64", True)],
                            {"k": ["A"], "rx": [10]})
        out = join_inner(self.left(), right, "k", "k")
        assert out.row_count == 1
        assert list(out.columns) == ["k", "lx", "rx"]
        assert out.column("rx").value_at(0) == 10

    def test_duplicate_keys_expand(self):
        left = Table.build([("k", "text", True)], {"k": ["A", "A"]})
        right = Table.build([("k", "text", True), ("r", "int64", True)],
                            {"k": ["A", "A"], "r": [1, 2]})
        out = join_inner(left, right, "k", "k")
        assert out.row_count == 4
        # left order outer, right order inner
        assert [out.column("r").value_at(i) for i in range(4)] == [1, 2, 1, 2]

    def test_no_common_keys(self):
        right = Table.build([("k", "text", True)], {"k": ["Z"]})
        out = join_inner(self.left(), right, "k", "k")
        assert out.row_count == 0
        assert list(out.columns) == ["k", "lx"]

    def test_null_keys_excluded(self):
        left = Table.build([("k", "text", True)], {"k": [None, "A"]})
        right = Table.build([("k", "text", True)], {"k": ["A", None]})
        assert join_inner(left, right, "k", "k").row_count == 1

    def test_collision_suffixed(self):
        right = Table.build([("k", "text", True), ("lx", "int64", True)],
                            {"k": ["A"], "lx": [99]})
        out = join_inner(self.left(), right, "k", "k")
        assert list(out.columns) == ["k", "lx", "lx_r"]
        assert out.column("lx_r").value_at(0) == 99

    def test_missing_key_column(self):
        with pytest.raises(DataError):
            join_inner(self.left(), self.left(), "nope", "k")

    def test_self_join_matches_nested_loop_oracle(self, rng):
        keys = [f"k{rng.integers(6)}" for _ in range(60)]
        t = Table.build([("k", "text", True)], {"k": keys})
        out = join_inner(t, t, "k", "k")
        oracle = sum(1 for a in keys for b in keys if a == b)
        assert out.row_count == oracle


class TestSplit:
    def make(self, n):
        return Table.build([("x", "int64", True)], {"x": list(range(n))})

    def test_same_seed_identical(self):
        t = self.make(100)
        a1, b1 = split_random(t, 0.8, 7)
        a2, b2 = split_random(t, 0.8, 7)
        assert a1.equals(a2) and b1.equals(b2)

    def test_partition_law(self):
        t = self.make(97)
        for seed in (0, 1, 2):
            a, b = split_random(t, 0.5, seed)
            got = sorted(
                [a.column("x").value_at(i) for i in range(a.row_count)]
                + [b.column("x").value_at(i) for i in range(b.row_count)]
            )
            assert got == list(range(97))

    def test_binomial_bound(self):
        t = self.make(10_000)
        a, _ = split_random(t, 0.8, 42)
        assert 7700 <= a.row_count <= 8300

    def test_degenerate_fraction(self):
        with pytest.raises(ConfigError):
            split_random(self.make(10), 1.0, 0)
        with pytest.raises(ConfigError):
            split_random(self.make(10), 0.0, 0)


class TestTableCore:
    def test_non_nullable_null_rejected(self):
        with pytest.raises(DataError):
            Table.build([("x", "int64", False)], {"x": [1, None]})

    def test_take_preserves_values_and_masks(self):
        t = Table.build([("x", "int64", True)], {"x": [1, None, 3]})
        out = t.take([2, 0])
        assert out.column("x").value_at(0) == 3
        assert out.column("x").value_at(1) == 1

    def test_operations_do_not_mutate_inputs(self):
        t = Table.build([("k", "text", True), ("x", "int64", True)],
                        {"k": ["A", "B"], "x": [1, 2]})
        snapshot = Table.build([("k", "text", True), ("x", "int64", True)],
                               {"k": ["A", "B"], "x": [1, 2]})
        join_inner(t, t, "k", "k")
        split_random(t, 0.5, 0)
        t.with_column("y", "int64", [7, 8])
        assert t.equals(snapshot)

    def test_columns_carry_their_declaration(self):
        t = Table.build([("k", "text", False), ("x", "int64", True)],
                        {"k": ["A", "B"], "x": [1, 2]})
        assert [(n, c.dtype, c.nullable) for n, c in t.columns.items()] == [
            ("k", "text", False), ("x", "int64", True)]
        assert not t.take([1]).column("k").nullable and not t.head(1).column("k").nullable
        # A derived column is nullable exactly when it holds nulls; a
        # replaced one moves last.
        out = t.with_column("k", "float64", [1.0, 2.0])
        out = out.with_column("y", "int64", [0, 0], mask=[True, False])
        assert [(n, c.dtype, c.nullable) for n, c in out.columns.items()] == [
            ("x", "int64", True), ("k", "float64", False), ("y", "int64", True)]
        # A join's renamed right columns keep theirs.
        right = Table.build([("k", "text", True), ("x", "int64", False)], {"k": ["A"], "x": [9]})
        joined = join_inner(t, right, "k", "k")
        assert list(joined.columns) == ["k", "x", "x_r"] and not joined.column("x_r").nullable
        # equals compares nullability too.
        same_values = Table.build([("k", "text", True), ("x", "int64", True)],
                                  {"k": ["A", "B"], "x": [1, 2]})
        assert not t.equals(same_values) and t.equals(t.take([0, 1]))

    def test_column_arrays_frozen(self):
        t = Table.build([("x", "int64", True)], {"x": [1, 2]})
        with pytest.raises(ValueError):
            t.column("x").values[0] = 99
        rows = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        v = t.with_column("v", "vector", rows, mask=[False, True])
        for t in (v, v.take([1, 0])):
            X = t.column("v").values
            for arr in (X.data, X.indices, X.indptr):
                with pytest.raises(ValueError):
                    arr[0] = 7

    def test_save_load_roundtrip(self, tmp_path):
        t = Table.build(
            [("a", "int64", True), ("b", "text", True), ("c", "float64", True)],
            {"a": [1, None, 3], "b": ["x", "y, z", None], "c": [0.5, 2.25, None]},
        )
        save_table(t, tmp_path / "t")
        assert load_table(tmp_path / "t").equals(t)

    def test_load_rejects_incomplete_artifact(self, tmp_path):
        (tmp_path / "t").mkdir()
        with pytest.raises(DataError):
            load_table(tmp_path / "t")


def _schema(mutate):
    def apply(root):
        doc = json.loads((root / "schema.json").read_text(encoding="utf-8"))
        mutate(doc)
        (root / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    return apply


def _entry(i, key, value):
    return _schema(lambda doc: doc["columns"][i].update({key: value}))


def _array(name, mutate):
    """Rewrite one saved array as mutate(array) returns it."""
    def apply(root):
        np.save(root / name, mutate(np.load(root / name)))
    return apply


def _set(i, value):
    def mutate(arr):
        arr = arr.copy()
        arr[i] = value
        return arr
    return mutate


def _bytes(name, mutate):
    def apply(root):
        (root / name).write_bytes(mutate((root / name).read_bytes()))
    return apply


def _delete(name):
    return lambda root: (root / name).unlink()


# c0 title, c1 user_id, c4 r_summary and c5 r_review are text; c2 r_score
# and c3 r_time int64; c6 price a non-nullable float64.
PREPARED_MUTATIONS = {
    "schema.json missing": _delete("schema.json"),
    "schema.json truncated": _bytes("schema.json", lambda b: b[: len(b) // 2]),
    "schema.json not UTF-8": _bytes("schema.json", lambda b: b"\xff" + b),
    "schema.json a list": _bytes("schema.json", lambda b: b"[" + b + b"]"),
    "format_version 2": _schema(lambda doc: doc.update(format_version=2)),
    "format_version true": _schema(lambda doc: doc.update(format_version=True)),
    "format_version missing": _schema(lambda doc: doc.pop("format_version")),
    "row_count raised by 5": _schema(lambda doc: doc.update(row_count=doc["row_count"] + 5)),
    "row_count lowered by 1": _schema(lambda doc: doc.update(row_count=doc["row_count"] - 1)),
    "row_count a string": _schema(lambda doc: doc.update(row_count=str(doc["row_count"]))),
    "row_count a float": _schema(lambda doc: doc.update(row_count=58.0)),
    "row_count a bool": _schema(lambda doc: doc.update(row_count=True)),
    "row_count negative": _schema(lambda doc: doc.update(row_count=-1)),
    "row_count missing": _schema(lambda doc: doc.pop("row_count")),
    "columns not a list": _schema(lambda doc: doc.update(columns={"title": "text"})),
    "columns empty": _schema(lambda doc: doc.update(columns=[])),
    "column entry a string": _schema(lambda doc: doc["columns"].__setitem__(0, "title")),
    "column entry without nullable": _schema(lambda doc: doc["columns"][0].pop("nullable")),
    "column entry with an extra key": _entry(0, "unit", "usd"),
    "duplicate column name": _entry(1, "name", "title"),
    "empty column name": _entry(1, "name", ""),
    "column name not a string": _entry(1, "name", 7),
    "nullable not a bool": _entry(0, "nullable", 1),
    "int column relabelled tokens": _entry(2, "dtype", "tokens"),
    "int column relabelled vector": _entry(2, "dtype", "vector"),
    "int column relabelled float64": _entry(2, "dtype", "float64"),
    "int column relabelled text": _entry(2, "dtype", "text"),
    "text column relabelled int64": _entry(0, "dtype", "int64"),
    "null in a non-nullable column": _array("c6.mask.npy", _set(0, True)),
    "mask file deleted": _delete("c2.mask.npy"),
    "values file deleted": _delete("c3.npy"),
    "offsets file deleted": _delete("c4.offsets.npy"),
    "text file deleted": _delete("c5.data.bin"),
    "empty npy file": _bytes("c2.npy", lambda b: b""),
    "npy truncated": _bytes("c3.npy", lambda b: b[:-8]),
    "npy header corrupt": _bytes("c6.npy", lambda b: b[:10] + b"#" + b[11:]),
    "npy header length cut": _bytes("c0.mask.npy", lambda b: b[:8] + bytes([b[8] ^ 64]) + b[9:]),
    "npy header not a literal": _bytes("c0.offsets.npy",
                                       lambda b: b[:21] + bytes([b[21] ^ 16]) + b[22:]),
    "npy not an array file": _bytes("c2.mask.npy", lambda b: b"not numpy at all"),
    "pickled object array": _array("c2.npy", lambda a: a.astype(object)),
    "mask two-dimensional": _array("c0.mask.npy", lambda a: a.reshape(2, -1)),
    "mask as int64": _array("c3.mask.npy", lambda a: a.astype(np.int64)),
    "values as float32": _array("c6.npy", lambda a: a.astype(np.float32)),
    "values as int32": _array("c2.npy", lambda a: a.astype(np.int32)),
    "values big-endian": _array("c3.npy", lambda a: a.astype(">i8")),
    "values one short": _array("c6.npy", lambda a: a[:-1]),
    "offsets one short": _array("c1.offsets.npy", lambda a: a[:-1]),
    "offsets as int32": _array("c1.offsets.npy", lambda a: a.astype(np.int32)),
    "offsets start past 0": _array("c1.offsets.npy", lambda a: a + 1),
    "offset set past the text": _array("c4.offsets.npy", _set(5, 10**6)),
    "offsets decrease": _array("c4.offsets.npy", lambda a: np.r_[a[:3], a[2] - 1, a[4:]]),
    "offsets end short of the text": _bytes("c0.data.bin", lambda b: b + b"x"),
    "offsets end past the text": _bytes("c0.data.bin", lambda b: b[:-1]),
    "text not UTF-8": _bytes("c5.data.bin", lambda b: b"\xff" + b[1:]),
}


def _copy_fixture(root):
    shutil.copytree(PREPARED_V1, root)
    return root


class TestPreparedV1Fixture:
    def test_load_save_writes_the_same_bytes(self, tmp_path):
        save_table(load_table(PREPARED_V1), tmp_path / "t")
        names = sorted(p.name for p in PREPARED_V1.iterdir())
        assert sorted(p.name for p in (tmp_path / "t").iterdir()) == names
        for name in names:
            assert (tmp_path / "t" / name).read_bytes() == (PREPARED_V1 / name).read_bytes(), name

    def test_recipe_prepare_writes_the_same_bytes(self, tmp_path):
        from bookml.cli import main

        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--rows", "60", "--seed", "3"]) == 0
        assert main(["prepare", "--ratings-csv", str(corpus / "Books_rating.csv"),
                     "--books-csv", str(corpus / "books_data.csv"),
                     "--out", str(tmp_path / "run"), "--seed", "3"]) == 0
        written = tmp_path / "run" / "prepared"
        names = sorted(p.name for p in PREPARED_V1.iterdir())
        assert sorted(p.name for p in written.iterdir()) == names
        for name in names:
            assert (written / name).read_bytes() == (PREPARED_V1 / name).read_bytes(), name

    def test_fixture_trains(self, tmp_path, capsys):
        from bookml.cli import main

        _copy_fixture(tmp_path / "run" / "prepared")
        assert main(["train", "--out", str(tmp_path / "run"), "--model", "als",
                     "--sweeps", "1", "--rank", "2", "--seed", "3"]) == 0

    @pytest.mark.parametrize("name", sorted(PREPARED_MUTATIONS))
    def test_malformed_prepared_table_is_data_error(self, tmp_path, capsys, name):
        from bookml.cli import main

        PREPARED_MUTATIONS[name](_copy_fixture(tmp_path / "run" / "prepared"))
        capsys.readouterr()
        code = main(["train", "--out", str(tmp_path / "run"), "--model", "als",
                     "--sweeps", "1", "--rank", "2", "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "prepared" in err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_prepared_table_loads_or_is_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = _copy_fixture(Path(tmp) / "t")
            files = sorted(p.name for p in root.iterdir())
            action = data.draw(st.sampled_from(
                ["delete", "truncate", "flip", "drop key", "retype key", "duplicate column"]))
            if action in ("delete", "truncate", "flip"):
                path = root / data.draw(st.sampled_from(files))
                raw = path.read_bytes()
                if action == "delete":
                    path.unlink()
                elif action == "truncate":
                    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
                else:
                    at = data.draw(st.integers(0, len(raw) - 1))
                    flipped = raw[at] ^ data.draw(st.integers(1, 255))
                    path.write_bytes(raw[:at] + bytes([flipped]) + raw[at + 1:])
            else:
                doc = json.loads((root / "schema.json").read_text(encoding="utf-8"))
                if action == "duplicate column":
                    entry = data.draw(st.sampled_from(doc["columns"]))
                    doc["columns"].insert(data.draw(st.integers(0, len(doc["columns"]))),
                                          dict(entry))
                else:
                    # A top-level key or a key of one column entry.
                    target = data.draw(st.sampled_from([doc, *doc["columns"]]))
                    key = data.draw(st.sampled_from(sorted(target)))
                    if action == "drop key":
                        del target[key]
                    else:
                        target[key] = data.draw(st.sampled_from(
                            [None, True, 1, -1, 2.5, "x", "int64", [], {"a": 1}]
                        ).filter(lambda v: v != target[key] or type(v) is not type(target[key])))
                (root / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
            try:
                table = load_table(root)
            except DataError as exc:
                assert str(exc).startswith(str(root))
            else:
                assert isinstance(table, Table)
