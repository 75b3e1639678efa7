import csv

import numpy as np
import pytest
from scipy import sparse as sp

from bookml import (
    ConfigError,
    DataError,
    Field,
    Schema,
    Table,
    join_inner,
    load_table,
    parse_csv,
    save_table,
    split_random,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


AB = Schema([("a", "int64", True), ("b", "text", True)])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            Schema([("x", "int64", True), ("x", "text", True)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Schema([])

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigError):
            Field("x", "int32")


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

    def test_unparsable_nullable_cell_becomes_null(self, tmp_path):
        res = parse_csv(write(tmp_path, "a,b\nnot-an-int,x\n"), AB)
        assert res.table.column("a").value_at(0) is None
        assert res.malformed_records == 0

    def test_unparsable_non_nullable_cell_is_malformed(self, tmp_path):
        schema = Schema([("a", "int64", False), ("b", "text", True)])
        res = parse_csv(
            write(tmp_path, "a,b\nzzz,x\n1,y\n"),
            schema,
            max_malformed_fraction=0.5,
        )
        assert res.table.row_count == 1
        assert res.malformed_records == 1

    def test_roundtrip_parse_write_parse(self, tmp_path):
        schema = Schema([("a", "int64", True), ("b", "text", True), ("c", "float64", True)])
        body = 'a,b,c\n1,"x, y",2.5\n,"with\nnewline",\n7,plain,0.1\n'
        first = parse_csv(write(tmp_path, body), schema).table
        out = tmp_path / "again.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(first.column_names())
            cols = [first.column(n) for n in first.column_names()]
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
        assert out.column_names() == ["k", "lx", "rx"]
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
        assert out.column_names() == ["k", "lx"]

    def test_null_keys_excluded(self):
        left = Table.build([("k", "text", True)], {"k": [None, "A"]})
        right = Table.build([("k", "text", True)], {"k": ["A", None]})
        assert join_inner(left, right, "k", "k").row_count == 1

    def test_collision_suffixed(self):
        right = Table.build([("k", "text", True), ("lx", "int64", True)],
                            {"k": ["A"], "lx": [99]})
        out = join_inner(self.left(), right, "k", "k")
        assert out.column_names() == ["k", "lx", "lx_r"]
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
