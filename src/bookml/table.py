"""Immutable typed columnar tables with CSV ingestion and basic relational ops.

CSV-facing columns are text / int64 / float64 with per-column null masks.
Pipelines may additionally carry in-memory-only "tokens" and "vector"
columns, which cannot be parsed from or persisted to CSV. A "tokens" column
holds one tuple of strings per row. A "vector" column is backed by one
float64 CSR matrix with a row per table row (sorted indices, no explicit
zeros; a null row is an empty row) whose arrays, like those of numeric
columns, are read-only; ``take`` slices its rows and ``value_at(i)`` reads
row i back as ``{"dim": int, "indices": [...], "values": [...]}``, the form
artifact probe blocks store. Only the vector column's constructor imports
scipy, so reading, joining and saving CSV-dtype tables never loads it.

Persisted form is a directory: ``schema.json`` (written last, acts as the
completion marker) plus per-column binary arrays, see ``save_table``.
"""

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

CSV_DTYPES = ("text", "int64", "float64")
ALL_DTYPES = CSV_DTYPES + ("tokens", "vector")

# Quoted review text can exceed the default 128 KiB csv field limit.
_CSV_FIELD_LIMIT = 1 << 24


@dataclass(frozen=True)
class Field:
    name: str
    dtype: str
    nullable: bool = True

    def __post_init__(self):
        if self.dtype not in ALL_DTYPES:
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        if not self.name:
            raise ConfigError("column name must be non-empty")


class Schema:
    """Ordered, uniquely named, typed column declarations."""

    def __init__(self, fields):
        self.fields = tuple(
            f if isinstance(f, Field) else Field(*f) for f in fields
        )
        if not self.fields:
            raise ConfigError("schema needs at least one column")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate column names in schema: {names}")
        self._by_name = {f.name: i for i, f in enumerate(self.fields)}

    def names(self):
        return [f.name for f in self.fields]

    def __contains__(self, name):
        return name in self._by_name

    def __getitem__(self, name):
        return self.fields[self._by_name[name]]

    def __len__(self):
        return len(self.fields)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.fields == other.fields

    def to_json(self):
        return [
            {"name": f.name, "dtype": f.dtype, "nullable": f.nullable}
            for f in self.fields
        ]

    @classmethod
    def from_json(cls, doc):
        return cls(Field(d["name"], d["dtype"], d["nullable"]) for d in doc)


class Column:
    """One typed value array plus a null mask (True = null) and whether it has any."""

    __slots__ = ("dtype", "values", "mask", "has_nulls")

    def __init__(self, dtype, values, mask):
        self.dtype = dtype
        if dtype in ("int64", "float64"):
            np_dtype = np.int64 if dtype == "int64" else np.float64
            values = np.asarray(values, dtype=np_dtype).copy()
            values.flags.writeable = False
        elif dtype == "vector":
            from scipy import sparse as sp

            if not (sp.issparse(values) and values.format == "csr"):
                raise DataError("a vector column is backed by one CSR matrix")
            for arr in (values.data, values.indices, values.indptr):
                arr.flags.writeable = False
        else:
            values = tuple(values)
        mask = np.asarray(mask, dtype=bool).copy()
        mask.flags.writeable = False
        self.values = values
        self.mask = mask
        self.has_nulls = bool(mask.any())
        if len(self) != mask.shape[0]:
            raise DataError("column values and null mask lengths differ")

    def __len__(self):
        return self.values.shape[0] if self.dtype == "vector" else len(self.values)

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if self.dtype in ("int64", "float64", "vector"):
            vals = self.values[idx]
        else:
            vals = tuple(self.values[i] for i in idx.tolist())
        return Column(self.dtype, vals, self.mask[idx])

    def value_at(self, i):
        """Value at row i, or None when null."""
        if self.mask[i]:
            return None
        if self.dtype == "vector":
            X = self.values
            lo, hi = X.indptr[i], X.indptr[i + 1]
            return {"dim": X.shape[1], "indices": X.indices[lo:hi].tolist(),
                    "values": X.data[lo:hi].tolist()}
        v = self.values[i]
        if self.dtype == "int64":
            return int(v)
        if self.dtype == "float64":
            return float(v)
        return v

    def equals(self, other):
        if self.dtype != other.dtype or len(self) != len(other):
            return False
        if not np.array_equal(self.mask, other.mask):
            return False
        keep = ~self.mask
        if self.dtype in ("int64", "float64"):
            return np.array_equal(self.values[keep], other.values[keep], equal_nan=True)
        if self.dtype == "vector":
            # Null rows are stored empty, so whole matrices compare.
            return self.values.shape == other.values.shape and (
                self.values != other.values
            ).nnz == 0
        return all(
            a == b for a, b, k in zip(self.values, other.values, keep) if k
        )


def _null_fill(dtype):
    if dtype == "int64":
        return 0
    if dtype == "float64":
        return 0.0
    if dtype == "text":
        return ""
    return ()


class Table:
    """Immutable columnar dataset; every op returns a new Table."""

    def __init__(self, schema, columns, row_count):
        self.schema = schema
        self._columns = dict(columns)
        self.row_count = int(row_count)
        if set(self._columns) != set(schema.names()):
            raise DataError("columns do not match schema")
        for f in schema.fields:
            col = self._columns[f.name]
            if col.dtype != f.dtype:
                raise DataError(f"column {f.name!r} dtype mismatch")
            if len(col) != self.row_count:
                raise DataError(f"column {f.name!r} length != row_count")
            if not f.nullable and col.has_nulls:
                raise DataError(f"non-nullable column {f.name!r} contains nulls")

    @classmethod
    def build(cls, schema, data):
        """Construct from {name: sequence}, with None marking nulls.

        Build vector columns with ``with_column`` from a CSR matrix.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        columns = {}
        row_count = None
        for f in schema.fields:
            raw = list(data[f.name])
            if row_count is None:
                row_count = len(raw)
            mask = np.array([v is None for v in raw], dtype=bool)
            fill = _null_fill(f.dtype)
            vals = [fill if v is None else v for v in raw]
            columns[f.name] = Column(f.dtype, vals, mask)
        return cls(schema, columns, row_count or 0)

    def column(self, name):
        if name not in self.schema:
            raise DataError(f"no such column: {name!r}")
        return self._columns[name]

    def column_names(self):
        return self.schema.names()

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        cols = {name: col.take(idx) for name, col in self._columns.items()}
        return Table(self.schema, cols, idx.shape[0])

    def head(self, n):
        n = min(n, self.row_count)
        return self.take(np.arange(n))

    def with_column(self, name, dtype, values, mask=None):
        """New table with one column appended (or replaced if name exists).

        values is a sequence, or a CSR matrix for a "vector" column.
        """
        if mask is None:
            mask = np.zeros(self.row_count, dtype=bool)
        col = Column(dtype, values, mask)
        if len(col) != self.row_count:
            raise DataError("new column length != row_count")
        fields = [f for f in self.schema.fields if f.name != name]
        fields.append(Field(name, dtype, nullable=col.has_nulls))
        cols = {k: v for k, v in self._columns.items() if k != name}
        cols[name] = col
        return Table(Schema(fields), cols, self.row_count)

    def select(self, names):
        fields = [self.schema[n] for n in names]
        cols = {n: self._columns[n] for n in names}
        return Table(Schema(fields), cols, self.row_count)

    def equals(self, other):
        if not isinstance(other, Table) or self.schema != other.schema:
            return False
        if self.row_count != other.row_count:
            return False
        return all(
            self._columns[n].equals(other._columns[n]) for n in self.schema.names()
        )

    def __repr__(self):
        cols = ", ".join(f"{f.name}:{f.dtype}" for f in self.schema.fields)
        return f"Table({self.row_count} rows; {cols})"


@dataclass
class ParseResult:
    """parse_csv outcome: the table plus malformed-record accounting."""

    table: Table
    records_seen: int = 0
    malformed_records: int = 0
    malformed_examples: list = field(default_factory=list)


def _decode_cell(raw, dtype, nullable):
    """Returns (value, is_null, ok). Empty fields are null when allowed."""
    if dtype == "text":
        if raw == "" and nullable:
            return "", True, True
        return raw, False, True
    if raw == "":
        return _null_fill(dtype), True, nullable
    try:
        value = int(raw) if dtype == "int64" else float(raw)
    except ValueError:
        return _null_fill(dtype), True, nullable
    return value, False, True


def parse_csv(path, schema, max_malformed_fraction=0.01):
    """Stream a comma-separated file with a header row into a Table under schema.

    Quoted fields may contain commas and line breaks (RFC-4180 quoting,
    doubled quotes escape). Records whose field count mismatches the schema,
    or with an undecodable cell in a non-nullable column, are counted as
    malformed and skipped; the parse fails if their fraction exceeds
    max_malformed_fraction.
    """
    for f in schema.fields:
        if f.dtype not in CSV_DTYPES:
            raise ConfigError(f"column {f.name!r}: dtype {f.dtype} is not CSV-ingestable")
    n_cols = len(schema)
    values = [[] for _ in range(n_cols)]
    masks = [[] for _ in range(n_cols)]
    records_seen = 0
    malformed = 0
    examples = []
    old_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header")
            got = [h.strip().lower() for h in header]
            want = [n.lower() for n in schema.names()]
            if got != want:
                raise DataError(
                    f"{path}: header {got} does not match schema columns {want}"
                )
            for record in reader:
                if not record:
                    continue
                records_seen += 1
                if len(record) != n_cols:
                    malformed += 1
                    if len(examples) < 5:
                        examples.append(f"record {records_seen}: {len(record)} fields, expected {n_cols}")
                    continue
                row_vals, row_nulls, ok = [], [], True
                for raw, f in zip(record, schema.fields):
                    value, is_null, cell_ok = _decode_cell(raw, f.dtype, f.nullable)
                    if not cell_ok:
                        ok = False
                        break
                    row_vals.append(value)
                    row_nulls.append(is_null)
                if not ok:
                    malformed += 1
                    if len(examples) < 5:
                        examples.append(f"record {records_seen}: undecodable non-nullable cell")
                    continue
                for i in range(n_cols):
                    values[i].append(row_vals[i])
                    masks[i].append(row_nulls[i])
    finally:
        csv.field_size_limit(old_limit)
    if records_seen and malformed / records_seen > max_malformed_fraction:
        raise DataError(
            f"{path}: {malformed}/{records_seen} malformed records exceeds "
            f"max_malformed_fraction={max_malformed_fraction}"
        )
    columns = {
        f.name: Column(f.dtype, values[i], np.array(masks[i], dtype=bool))
        for i, f in enumerate(schema.fields)
    }
    table = Table(schema, columns, records_seen - malformed)
    if malformed:
        logger.info("parsed %s: %d records, %d malformed skipped", path, records_seen, malformed)
    return ParseResult(table, records_seen, malformed, examples)


def join_inner(left, right, left_key, right_key):
    """Hash inner join on exact text-key equality.

    Output columns are the left table's followed by the right table's
    non-key columns; colliding right column names get an ``_r`` suffix.
    Rows with null keys never match; output preserves left row order with
    duplicate matches expanded in right row order.
    """
    for t, k, side in ((left, left_key, "left"), (right, right_key, "right")):
        if k not in t.schema:
            raise DataError(f"{side} key column {k!r} missing")
        if t.schema[k].dtype != "text":
            raise DataError(f"{side} key column {k!r} must be text")
    rkey = right.column(right_key)
    matches = {}
    for i in range(right.row_count):
        if not rkey.mask[i]:
            matches.setdefault(rkey.values[i], []).append(i)
    lkey = left.column(left_key)
    left_idx, right_idx = [], []
    for i in range(left.row_count):
        if lkey.mask[i]:
            continue
        for j in matches.get(lkey.values[i], ()):
            left_idx.append(i)
            right_idx.append(j)
    left_idx = np.asarray(left_idx, dtype=np.int64)
    right_idx = np.asarray(right_idx, dtype=np.int64)

    fields = list(left.schema.fields)
    columns = {f.name: left.column(f.name).take(left_idx) for f in fields}
    taken = {f.name for f in fields}
    for f in right.schema.fields:
        if f.name == right_key:
            continue
        name = f.name
        while name in taken:
            name = name + "_r"
        if name != f.name:
            logger.warning("join: right column %r renamed to %r", f.name, name)
        taken.add(name)
        fields.append(Field(name, f.dtype, f.nullable))
        columns[name] = right.column(f.name).take(right_idx)
    return Table(Schema(fields), columns, left_idx.shape[0])


def split_random(table, train_fraction, seed):
    """Seeded two-way row partition; expected train share = train_fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    if table.row_count < 2:
        raise DataError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    draws = rng.random(table.row_count)
    train_idx = np.nonzero(draws < train_fraction)[0]
    test_idx = np.nonzero(draws >= train_fraction)[0]
    return table.take(train_idx), table.take(test_idx)


TABLE_FORMAT_VERSION = 1


def save_table(table, path):
    """Persist a CSV-dtype Table as a directory of binary column arrays.

    Layout: per column index i, numeric columns write ``c{i}.npy`` and
    ``c{i}.mask.npy``; text columns write ``c{i}.offsets.npy`` (int64,
    row_count+1 entries into the UTF-8 blob) plus ``c{i}.data.bin`` and the
    mask. ``schema.json`` carries names/dtypes/row count and is written
    last, so its presence marks a complete artifact.
    """
    from pathlib import Path

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for i, f in enumerate(table.schema.fields):
        if f.dtype not in CSV_DTYPES:
            raise ConfigError(f"column {f.name!r}: dtype {f.dtype} is in-memory only")
        col = table.column(f.name)
        np.save(out / f"c{i}.mask.npy", col.mask)
        if f.dtype == "text":
            blobs = [v.encode("utf-8") for v in col.values]
            offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
            np.cumsum([len(b) for b in blobs], out=offsets[1:])
            np.save(out / f"c{i}.offsets.npy", offsets)
            (out / f"c{i}.data.bin").write_bytes(b"".join(blobs))
        else:
            np.save(out / f"c{i}.npy", col.values)
    doc = {
        "format_version": TABLE_FORMAT_VERSION,
        "row_count": table.row_count,
        "columns": table.schema.to_json(),
    }
    (out / "schema.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


def load_table(path):
    from pathlib import Path

    src = Path(path)
    meta_path = src / "schema.json"
    if not meta_path.exists():
        raise DataError(f"{path}: not a table artifact (schema.json missing)")
    doc = json.loads(meta_path.read_text(encoding="utf-8"))
    if doc.get("format_version") != TABLE_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported table format {doc.get('format_version')!r}")
    schema = Schema.from_json(doc["columns"])
    row_count = doc["row_count"]
    columns = {}
    for i, f in enumerate(schema.fields):
        mask = np.load(src / f"c{i}.mask.npy")
        if f.dtype == "text":
            offsets = np.load(src / f"c{i}.offsets.npy")
            blob = (src / f"c{i}.data.bin").read_bytes()
            vals = [
                blob[offsets[j] : offsets[j + 1]].decode("utf-8")
                for j in range(row_count)
            ]
        else:
            vals = np.load(src / f"c{i}.npy")
        columns[f.name] = Column(f.dtype, vals, mask)
    return Table(schema, columns, row_count)


def books_schema():
    """Schema of the book-metadata CSV."""
    return Schema(
        [
            Field("title", "text", nullable=False),
            Field("description", "text"),
            Field("authors", "text"),
            Field("image", "text"),
            Field("preview", "text"),
            Field("publisher", "text"),
            Field("publish_date", "int64"),
            Field("info_link", "text"),
            Field("categories", "text"),
            Field("ratings_count", "int64"),
        ]
    )


def ratings_schema():
    """Schema of the review/ratings CSV; price arrives as text."""
    return Schema(
        [
            Field("id", "int64"),
            Field("title", "text"),
            Field("price", "text"),
            Field("user_id", "text"),
            Field("profile_name", "text"),
            Field("r_helpfulness", "text"),
            Field("r_score", "int64"),
            Field("r_time", "int64"),
            Field("r_summary", "text"),
            Field("r_review", "text"),
        ]
    )
