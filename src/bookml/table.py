"""Immutable typed columnar tables with CSV ingestion and basic relational ops.

A Table is an ordered ``name -> Column`` map plus its row count. Each Column
describes itself: its dtype, values, null mask and whether it is declared
nullable. Columns are declared as plain ``(name, dtype, nullable)`` triples.

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
import tokenize
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

CSV_DTYPES = ("text", "int64", "float64")

# Quoted review text can exceed the default 128 KiB csv field limit.
_CSV_FIELD_LIMIT = 1 << 24


def _check_columns(columns):
    """Declared columns as a list of (name, dtype, nullable) triples.

    ConfigError for an empty list, an empty name, a duplicate name or a
    nullable that is not a bool; each Column checks its own dtype.
    """
    columns = [(name, dtype, nullable) for name, dtype, nullable in columns]
    names = [name for name, _, _ in columns]
    if not columns:
        raise ConfigError("a table needs at least one column")
    if not all(names):
        raise ConfigError("column name must be non-empty")
    if not all(isinstance(nullable, bool) for _, _, nullable in columns):
        raise ConfigError("a column's nullable must be true or false")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate column names: {names}")
    return columns


class Column:
    """One typed value array, a null mask (True = null), whether it has any
    nulls and whether its declaration allows them."""

    __slots__ = ("dtype", "values", "mask", "has_nulls", "nullable")

    def __init__(self, dtype, values, mask, nullable=True):
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
        elif dtype in ("text", "tokens"):
            values = tuple(values)
        else:
            raise ConfigError(f"unknown dtype {dtype!r}")
        mask = np.asarray(mask, dtype=bool).copy()
        mask.flags.writeable = False
        self.values = values
        self.mask = mask
        self.has_nulls = bool(mask.any())
        self.nullable = nullable
        if len(self) != mask.shape[0]:
            raise DataError("column values and null mask lengths differ")
        if self.has_nulls and not nullable:
            raise DataError(f"non-nullable {dtype} column contains nulls")

    def __len__(self):
        return self.values.shape[0] if self.dtype == "vector" else len(self.values)

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if self.dtype in ("int64", "float64", "vector"):
            vals = self.values[idx]
        else:
            vals = tuple(self.values[i] for i in idx.tolist())
        return Column(self.dtype, vals, self.mask[idx], self.nullable)

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
        if (self.dtype, self.nullable, len(self)) != (other.dtype, other.nullable, len(other)):
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
    """Immutable columnar dataset: an ordered ``name -> Column`` map plus
    the row count every column has. Every op returns a new Table."""

    def __init__(self, columns, row_count):
        self.columns = dict(columns)
        self.row_count = int(row_count)
        for name, col in self.columns.items():
            if len(col) != self.row_count:
                raise DataError(f"column {name!r} length != row_count")

    @classmethod
    def build(cls, columns, data):
        """Construct from (name, dtype, nullable) triples and {name: sequence},
        with None marking nulls.

        Build vector columns with ``with_column`` from a CSR matrix.
        """
        built = {}
        for name, dtype, nullable in _check_columns(columns):
            raw = list(data[name])
            mask = np.array([v is None for v in raw], dtype=bool)
            fill = _null_fill(dtype)
            built[name] = Column(dtype, [fill if v is None else v for v in raw], mask, nullable)
        return cls(built, len(next(iter(built.values()))))

    def column(self, name):
        col = self.columns.get(name)
        if col is None:
            raise DataError(f"no such column: {name!r}")
        return col

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        cols = {name: col.take(idx) for name, col in self.columns.items()}
        return Table(cols, idx.shape[0])

    def head(self, n):
        n = min(n, self.row_count)
        return self.take(np.arange(n))

    def with_column(self, name, dtype, values, mask=None):
        """New table with one column appended (or replaced and moved last);
        it is declared nullable exactly when it holds nulls.

        values is a sequence, or a CSR matrix for a "vector" column.
        """
        if mask is None:
            mask = np.zeros(self.row_count, dtype=bool)
        col = Column(dtype, values, mask)
        col.nullable = col.has_nulls
        cols = dict(self.columns)
        cols.pop(name, None)
        cols[name] = col
        return Table(cols, self.row_count)

    def select(self, names):
        return Table({n: self.column(n) for n in names}, self.row_count)

    def equals(self, other):
        """Same names in the same order, dtypes, nullability and values."""
        if not isinstance(other, Table) or self.row_count != other.row_count:
            return False
        return list(self.columns) == list(other.columns) and all(
            col.equals(other.columns[name]) for name, col in self.columns.items()
        )

    def __repr__(self):
        cols = ", ".join(f"{name}:{col.dtype}" for name, col in self.columns.items())
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


def parse_csv(path, columns, max_malformed_fraction=0.01):
    """Stream a comma-separated file with a header row into a Table of the
    declared (name, dtype, nullable) columns.

    Quoted fields may contain commas and line breaks (RFC-4180 quoting,
    doubled quotes escape). Records whose field count mismatches the
    columns, or with an undecodable cell in a non-nullable column, are
    counted as malformed and skipped; the parse fails if their fraction
    exceeds max_malformed_fraction. Bytes that are not UTF-8 fail it too.
    """
    columns = _check_columns(columns)
    for name, dtype, _ in columns:
        if dtype not in CSV_DTYPES:
            raise ConfigError(f"column {name!r}: dtype {dtype} is not CSV-ingestable")
    n_cols = len(columns)
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
            want = [name.lower() for name, _, _ in columns]
            if got != want:
                raise DataError(
                    f"{path}: header {got} does not match the declared columns {want}"
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
                for raw, (_, dtype, nullable) in zip(record, columns):
                    value, is_null, cell_ok = _decode_cell(raw, dtype, nullable)
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
    except UnicodeDecodeError as exc:
        # The file decodes a block at a time, so the bad byte lies in the
        # record reached or a later one.
        raise DataError(
            f"{path}: invalid UTF-8 at or after record {records_seen + 1} ({exc.reason})"
        ) from None
    finally:
        csv.field_size_limit(old_limit)
    if records_seen and malformed / records_seen > max_malformed_fraction:
        raise DataError(
            f"{path}: {malformed}/{records_seen} malformed records exceeds "
            f"max_malformed_fraction={max_malformed_fraction}"
        )
    table = Table(
        {name: Column(dtype, values[i], np.array(masks[i], dtype=bool), nullable)
         for i, (name, dtype, nullable) in enumerate(columns)},
        records_seen - malformed,
    )
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
        if k not in t.columns:
            raise DataError(f"{side} key column {k!r} missing")
        if t.columns[k].dtype != "text":
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

    columns = {name: col.take(left_idx) for name, col in left.columns.items()}
    for right_name, col in right.columns.items():
        if right_name == right_key:
            continue
        name = right_name
        while name in columns:
            name = name + "_r"
        if name != right_name:
            logger.warning("join: right column %r renamed to %r", right_name, name)
        columns[name] = col.take(right_idx)
    return Table(columns, left_idx.shape[0])


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
    for i, (name, col) in enumerate(table.columns.items()):
        if col.dtype not in CSV_DTYPES:
            raise ConfigError(f"column {name!r}: dtype {col.dtype} is in-memory only")
        np.save(out / f"c{i}.mask.npy", col.mask)
        if col.dtype == "text":
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
        "columns": [{"name": name, "dtype": col.dtype, "nullable": col.nullable}
                    for name, col in table.columns.items()],
    }
    (out / "schema.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


def _load_column(src, i, dtype, nullable, row_count):
    """Column i of a saved table, every array checked whole against dtype and row_count."""

    def array(suffix, np_dtype, length):
        try:
            arr = np.load(src / f"c{i}.{suffix}")
        except (OSError, ValueError, EOFError, SyntaxError, tokenize.TokenError) as exc:
            # What np.load raises on a missing, truncated or corrupt file;
            # it parses a .npy header as a Python literal.
            raise DataError(f"c{i}.{suffix}: unreadable ({type(exc).__name__}: {exc})") from None
        if arr.dtype != np_dtype or arr.shape != (length,):
            raise DataError(
                f"c{i}.{suffix} must hold {length} {np_dtype}, got {arr.dtype} {arr.shape}")
        return arr

    mask = array("mask.npy", "bool", row_count)
    if dtype != "text":
        return Column(dtype, array("npy", dtype, row_count), mask, nullable)
    offsets = array("offsets.npy", "int64", row_count + 1)
    blob = (src / f"c{i}.data.bin").read_bytes()
    if offsets[0] != 0 or offsets[-1] != len(blob) or np.any(offsets[1:] < offsets[:-1]):
        raise DataError(f"c{i}.offsets.npy must rise from 0 to the text's {len(blob)} bytes")
    bounds = offsets.tolist()
    try:
        text = [blob[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise DataError(f"c{i}.data.bin: invalid UTF-8 ({exc.reason})") from None
    return Column(dtype, text, mask, nullable)


def load_table(path):
    """Read a table that ``save_table`` wrote. A schema.json or column file
    that does not hold one raises DataError naming the path."""
    from pathlib import Path

    from .persist import is_int

    src = Path(path)

    def fail(msg):
        return DataError(f"{path}: {msg}")

    meta_path = src / "schema.json"
    if not meta_path.exists():
        raise fail("not a table artifact (schema.json missing)")
    try:
        doc = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise fail(f"unreadable schema.json ({exc})") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if not is_int(version) or version != TABLE_FORMAT_VERSION:
        raise fail(f"unsupported table format {version!r}")
    row_count, entries = doc.get("row_count"), doc.get("columns")
    if not is_int(row_count) or row_count < 0:
        raise fail(f"row_count must be an int >= 0, got {row_count!r}")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and sorted(e) == ["dtype", "name", "nullable"]
            and isinstance(e["name"], str) and e["dtype"] in CSV_DTYPES
            and isinstance(e["nullable"], bool) for e in entries):
        raise fail("columns must be {name, dtype, nullable} entries of CSV dtypes")
    try:
        declared = _check_columns((e["name"], e["dtype"], e["nullable"]) for e in entries)
    except ConfigError as exc:
        raise fail(exc) from None
    columns = {}
    for i, (name, dtype, nullable) in enumerate(declared):
        try:
            columns[name] = _load_column(src, i, dtype, nullable, row_count)
        except (DataError, OSError) as exc:
            raise fail(f"column {name!r}: {exc}") from None
    return Table(columns, row_count)


# The book-metadata CSV's columns.
BOOKS_COLUMNS = (
    ("title", "text", False), ("description", "text", True), ("authors", "text", True),
    ("image", "text", True), ("preview", "text", True), ("publisher", "text", True),
    ("publish_date", "int64", True), ("info_link", "text", True),
    ("categories", "text", True), ("ratings_count", "int64", True),
)

# The review/ratings CSV's columns; price arrives as text.
RATINGS_COLUMNS = (
    ("id", "int64", True), ("title", "text", True), ("price", "text", True),
    ("user_id", "text", True), ("profile_name", "text", True),
    ("r_helpfulness", "text", True), ("r_score", "int64", True), ("r_time", "int64", True),
    ("r_summary", "text", True), ("r_review", "text", True),
)
