"""Fit/transform stages over Tables, composable into a Pipeline.

Every stage maps Table -> Table by adding (or replacing) one column, keeps
its fitted state in trailing-underscore attributes, and serializes to a
JSON fragment. Transforms are pure: the same input table always produces
the same output table. Stages work on whole columns: vector stages read and
write one CSR matrix per column, never one object per row.
"""

import numpy as np
from scipy import sparse as sp

from .base import BaseEstimator, check_is_fitted
from .docspec import (Any, Array, Const, Count, Doc, Finite, Int, ListOf, Nullable, Str, check,
                      restore, write)
from .errors import BookmlError, DataError
from .stopword_list import ENGLISH_STOPWORDS, STOPWORDS_VERSION
from .text import (
    Vocabulary,
    count_matrix,
    fit_count_vectorizer,
    idf_weights,
    remove_stopwords,
    tokenize,
    tfidf_matrix,
)
from .vectors import BLOCK_MAP, BlockMap

PIPELINE_FORMAT_VERSION = 1


class Stage(BaseEstimator):
    """Base of all pipeline stages.

    A stage declares the Doc of its fitted state as STATE, with the
    attribute that holds each key: state_to_json writes it, and load_state
    checks it and hands it to state_from_json, which restores it.
    """

    PARAM_SPECS = {"input_col": Str, "output_col": Str}
    STATE = Doc({})

    def input_columns(self):
        return [self.input_col]

    def fit(self, table):
        return self

    def transform(self, table):
        raise NotImplementedError

    def fit_transform(self, table):
        return self.fit(table).transform(table)

    def state_to_json(self):
        return write(self.STATE, self)

    def load_state(self, state, path="state"):
        """Fitted state from state_to_json's object, checked against STATE first (DataError)."""
        self.state_from_json(check(state, self.STATE, path))

    def state_from_json(self, state):
        restore(self.STATE, self, state)

    def to_json(self):
        return {
            "type": STAGE_NAMES[type(self)],
            "params": write(self.param_spec(), self),
            "state": self.state_to_json(),
        }


class TokenizeText(Stage):
    """text column -> tokens column (lowercase, whitespace split)."""

    def __init__(self, input_col, output_col):
        self.input_col = input_col
        self.output_col = output_col

    def transform(self, table):
        col = table.column(self.input_col)
        toks = tuple(
            tuple(tokenize(None if null else text))
            for text, null in zip(col.values, col.mask.tolist())
        )
        return table.with_column(self.output_col, "tokens", toks)


class FilterStopwords(Stage):
    """tokens column -> tokens column with stoplist members removed."""

    PARAM_SPECS = {**Stage.PARAM_SPECS, "stopwords": Nullable(ListOf(Str))}
    STATE = Doc({"stopwords": ListOf(Str), "stopwords_version": Nullable(Int())})

    def __init__(self, input_col, output_col, stopwords=None):
        self.input_col = input_col
        self.output_col = output_col
        self.stopwords = stopwords

    def _stoplist(self):
        return ENGLISH_STOPWORDS if self.stopwords is None else frozenset(self.stopwords)

    def transform(self, table):
        stoplist = self._stoplist()
        col = table.column(self.input_col)
        toks = tuple(
            () if null else tuple(remove_stopwords(doc, stoplist))
            for doc, null in zip(col.values, col.mask.tolist())
        )
        return table.with_column(self.output_col, "tokens", toks)

    def state_to_json(self):
        # Record the effective list so persisted pipelines survive future
        # edits to the default.
        return {
            "stopwords": sorted(self._stoplist()),
            "stopwords_version": STOPWORDS_VERSION if self.stopwords is None else None,
        }

    def state_from_json(self, state):
        self.stopwords = frozenset(state["stopwords"])


class CountTokens(Stage):
    """tokens column -> term-count vector column over a fitted vocabulary."""

    STATE = Doc({"terms": ListOf(Str), "doc_freq": ListOf(Int()), "corpus_size": Count})

    def __init__(self, input_col, output_col, vocab_size=4096, min_df=2):
        self.input_col = input_col
        self.output_col = output_col
        self.vocab_size = vocab_size
        self.min_df = min_df
        self.vocabulary_ = None

    def fit(self, table):
        self.vocabulary_ = fit_count_vectorizer(
            _docs(table.column(self.input_col)), self.vocab_size, self.min_df
        )
        return self

    def transform(self, table):
        check_is_fitted(self, "vocabulary_")
        counts = count_matrix(self.vocabulary_.index(), _docs(table.column(self.input_col)))
        return table.with_column(self.output_col, "vector", counts)

    def state_to_json(self):
        v = self.vocabulary_
        return {
            "terms": list(v.terms),
            "doc_freq": list(v.doc_freq),
            "corpus_size": v.corpus_size,
        }

    def state_from_json(self, state):
        # Vocabulary checks that terms are unique and doc_freq aligned and in range.
        self.vocabulary_ = Vocabulary(tuple(state["terms"]), tuple(state["doc_freq"]),
                                      state["corpus_size"])


def _docs(col):
    """Token tuples of a tokens column, with null rows as empty docs."""
    return [() if null else doc for doc, null in zip(col.values, col.mask.tolist())]


class WeightIdf(Stage):
    """count-vector column -> tf-idf vector column.

    Document frequencies are refit from the observed count vectors, so the
    stage composes with any upstream count producer.
    """

    STATE = Doc({"weights": Array((None,))}, attrs={"weights": "weights_"})

    def __init__(self, input_col, output_col):
        self.input_col = input_col
        self.output_col = output_col
        self.weights_ = None

    def fit(self, table):
        if table.row_count == 0:
            raise DataError("cannot fit IDF on an empty table")
        counts = _vector_values(table, self.input_col)
        # Vector columns store no explicit zeros and at most one entry per
        # (row, term), so a term's stored-entry count is its document frequency.
        df = np.bincount(counts.indices, minlength=counts.shape[1])
        self.weights_ = idf_weights(df, table.row_count)
        return self

    def transform(self, table):
        check_is_fitted(self, "weights_")
        tfidf = tfidf_matrix(_vector_values(table, self.input_col), self.weights_)
        return table.with_column(self.output_col, "vector", tfidf)


def _vector_values(table, name):
    col = table.column(name)
    if col.dtype != "vector":
        raise DataError(f"column {name!r} ({col.dtype}) is not a vector column")
    return col.values


class ScaleMinMax(Stage):
    """numeric column -> float column scaled by the fitted training range.

    The map is (x - min) / (max - min), unclamped, so values outside the
    training range extrapolate; a constant training column maps to 0.5.
    """

    STATE = Doc({"min": Finite, "max": Finite}, attrs={"min": "min_", "max": "max_"})

    def __init__(self, input_col, output_col):
        self.input_col = input_col
        self.output_col = output_col
        self.min_ = self.max_ = None

    def _column(self, table):
        col = table.column(self.input_col)
        if col.dtype not in ("int64", "float64"):
            raise DataError(f"column {self.input_col!r} is not numeric")
        return col

    def fit(self, table):
        col = self._column(table)
        values = np.asarray(col.values, dtype=np.float64)[~col.mask]
        if values.shape[0] == 0:
            raise DataError("cannot fit min-max on an all-null column")
        self.min_, self.max_ = float(values.min()), float(values.max())
        return self

    def transform(self, table):
        check_is_fitted(self, "min_")
        col = self._column(table)
        if col.has_nulls:
            raise DataError(
                f"column {self.input_col!r} has nulls; drop those rows before scaling"
            )
        x = np.asarray(col.values, dtype=np.float64)
        if self.max_ == self.min_:
            out = np.full_like(x, 0.5)
        else:
            out = (x - self.min_) / (self.max_ - self.min_)
        return table.with_column(self.output_col, "float64", out)

    def state_from_json(self, state):
        lo, hi = state["min"], state["max"]
        if not lo <= hi:
            raise DataError(f"scale_minmax state min {lo!r} exceeds max {hi!r}")
        super().state_from_json(state)


class AssembleColumns(Stage):
    """Concatenate scalar and vector columns into one feature-vector column.

    Fit records the per-part block layout; transform enforces it, so a part
    whose dimension drifts from the fitted layout is rejected. Null values
    are rejected: numeric features must be cleaned upstream.
    """

    PARAM_SPECS = {"input_cols": ListOf(Str), "output_col": Str}
    STATE = Doc({"block_map": BLOCK_MAP}, attrs={"block_map": "block_map_"})

    def __init__(self, input_cols, output_col):
        self.input_cols = list(input_cols)
        self.output_col = output_col
        self.block_map_ = None

    def input_columns(self):
        return list(self.input_cols)

    def _parts(self, table):
        """One block per input column: a CSR matrix, or an (n, 1) float64 array."""
        parts = []
        for name in self.input_cols:
            col = table.column(name)
            if col.dtype not in ("int64", "float64", "vector"):
                raise DataError(f"column {name!r} ({col.dtype}) cannot be assembled")
            if col.has_nulls:
                raise DataError(f"column {name!r}: null passed to assemble")
            if col.dtype == "vector":
                parts.append(col.values)
                continue
            values = np.asarray(col.values, dtype=np.float64).reshape(-1, 1)
            if np.isnan(values).any():
                raise DataError(f"column {name!r}: NaN passed to assemble")
            parts.append(values)
        return parts

    def fit(self, table):
        if table.row_count == 0:
            raise DataError("cannot fit an assembler on an empty table")
        lengths = [p.shape[1] for p in self._parts(table)]
        self.block_map_ = BlockMap.from_parts(self.input_cols, lengths)
        return self

    def transform(self, table):
        check_is_fitted(self, "block_map_")
        parts = self._parts(table)
        if [p.shape[1] for p in parts] != [b.length for b in self.block_map_.blocks]:
            raise DataError("part dimensions do not match the fitted block map")
        # sp.hstack's layout (a row holds its blocks' entries in block order),
        # written straight into one set of CSR arrays; a scalar block keeps
        # its nonzero cells.
        n = table.row_count
        counts = [np.diff(p.indptr) if sp.issparse(p) else (p[:, 0] != 0).astype(np.int64)
                  for p in parts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sum(counts, np.zeros(n, dtype=np.int64)), out=indptr[1:])
        indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
        start, offset = indptr[:-1].copy(), 0
        for p, count in zip(parts, counts):
            if sp.issparse(p):
                end = p.indptr[-1]
                dest = np.repeat(start - p.indptr[:-1], count) + np.arange(end)
                indices[dest], data[dest] = p.indices[:end] + offset, p.data[:end]
            else:
                dest = start[count == 1]
                indices[dest], data[dest] = offset, p[count == 1, 0]
            start += count
            offset += p.shape[1]
        features = sp.csr_matrix((data, indices, indptr), shape=(n, offset))
        features.eliminate_zeros()
        features.sort_indices()
        return table.with_column(self.output_col, "vector", features)

    def state_from_json(self, state):
        if state["block_map"].names() != self.input_cols:
            raise DataError("assemble state block_map must name the input_cols in order")
        super().state_from_json(state)


STAGE_NAMES = {
    TokenizeText: "tokenize",
    FilterStopwords: "filter_stopwords",
    CountTokens: "count_tokens",
    WeightIdf: "weight_idf",
    ScaleMinMax: "scale_minmax",
    AssembleColumns: "assemble",
}
STAGE_TYPES = {name: cls for cls, name in STAGE_NAMES.items()}


class Pipeline(BaseEstimator):
    """Ordered stages fitted front to back; fitted pipelines transform purely.

    fit() fits each stage on the table as transformed by all prior fitted
    stages. Stage failures propagate annotated with the stage index.
    """

    def __init__(self, stages):
        self.stages = list(stages)
        self.fitted_ = None

    def _check_inputs(self, stage, idx, table):
        for name in stage.input_columns():
            if name not in table.columns:
                raise DataError(
                    f"stage {idx} ({STAGE_NAMES[type(stage)]}): missing input column {name!r}"
                )

    def fit(self, table):
        self.fit_transform(table)
        return self

    def transform(self, table):
        check_is_fitted(self, "fitted_")
        current = table
        for idx, stage in enumerate(self.stages):
            self._check_inputs(stage, idx, current)
            current = stage.transform(current)
        return current

    def fit_transform(self, table):
        """Fit every stage and return the training table as the fit built it."""
        current = table
        for idx, stage in enumerate(self.stages):
            self._check_inputs(stage, idx, current)
            try:
                stage.fit(current)
                current = stage.transform(current)
            except BookmlError as exc:
                raise type(exc)(
                    f"stage {idx} ({STAGE_NAMES[type(stage)]}): {exc}"
                ) from exc
        self.fitted_ = True
        return current

    def to_json(self):
        return {
            "format_version": PIPELINE_FORMAT_VERSION,
            "stages": [s.to_json() for s in self.stages],
        }

    @classmethod
    def from_json(cls, doc):
        """Rebuild a fitted pipeline from ``to_json``'s document, PIPELINE_DOC."""
        doc = check(doc, PIPELINE_DOC, "pipeline")
        stages = []
        for i, frag in enumerate(doc["stages"]):
            stage = STAGE_TYPES[frag["type"]](**frag["params"])
            stage.load_state(frag["state"], f"pipeline.stages[{i}].state")
            stages.append(stage)
        pipe = cls(stages)
        pipe.fitted_ = True
        return pipe


PIPELINE_DOC = Doc({
    "format_version": Const(PIPELINE_FORMAT_VERSION),
    "stages": ListOf(Doc({
        "type": Const(*STAGE_TYPES),
        "params": lambda frag: STAGE_TYPES[frag["type"]].param_spec(),
        "state": Any,
    })),
})
