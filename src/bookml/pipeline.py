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
from .errors import BookmlError, DataError
from .persist import finite_array, is_count, is_finite_number, is_int
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
from .vectors import BlockMap

PIPELINE_FORMAT_VERSION = 1


class Stage(BaseEstimator):
    """Base of all pipeline stages."""

    def input_columns(self):
        return [self.input_col]

    def fit(self, table):
        return self

    def transform(self, table):
        raise NotImplementedError

    def fit_transform(self, table):
        return self.fit(table).transform(table)

    def state_to_json(self):
        return {}

    def load_state(self, state):
        """Fitted state from state_to_json's object, checked before use (DataError)."""
        _check_keys(self, state)

    def to_json(self):
        return {
            "type": STAGE_NAMES[type(self)],
            "params": _jsonable_params(self.get_params()),
            "state": self.state_to_json(),
        }


def _check_keys(stage, state, *keys):
    if sorted(state) != sorted(keys):
        raise DataError(f"{STAGE_NAMES[type(stage)]} state must hold exactly "
                        f"{sorted(keys)}, got {sorted(state)}")


def _jsonable_params(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, frozenset):
            v = sorted(v)
        out[k] = v
    return out


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

    def load_state(self, state):
        _check_keys(self, state, "stopwords", "stopwords_version")
        words = state["stopwords"]
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise DataError("filter_stopwords state stopwords must be a list of strings")
        self.stopwords = frozenset(words)


class CountTokens(Stage):
    """tokens column -> term-count vector column over a fitted vocabulary."""

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

    def load_state(self, state):
        _check_keys(self, state, "terms", "doc_freq", "corpus_size")
        terms, doc_freq, size = state["terms"], state["doc_freq"], state["corpus_size"]
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)
                and isinstance(doc_freq, list) and all(is_int(df) for df in doc_freq)
                and is_count(size)):
            raise DataError("count_tokens state needs string terms, int doc_freq "
                            "and an int corpus_size >= 1")
        # Vocabulary checks that terms are unique and doc_freq aligned and in range.
        self.vocabulary_ = Vocabulary(tuple(terms), tuple(doc_freq), size)


def _docs(col):
    """Token tuples of a tokens column, with null rows as empty docs."""
    return [() if null else doc for doc, null in zip(col.values, col.mask.tolist())]


class WeightIdf(Stage):
    """count-vector column -> tf-idf vector column.

    Document frequencies are refit from the observed count vectors, so the
    stage composes with any upstream count producer.
    """

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

    def state_to_json(self):
        return {"weights": self.weights_.tolist()}

    def load_state(self, state):
        _check_keys(self, state, "weights")
        self.weights_ = finite_array(state["weights"], "weight_idf state weights", None)


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

    def state_to_json(self):
        return {"min": self.min_, "max": self.max_}

    def load_state(self, state):
        _check_keys(self, state, "min", "max")
        lo, hi = state["min"], state["max"]
        if not (is_finite_number(lo) and is_finite_number(hi) and lo <= hi):
            raise DataError("scale_minmax state needs finite numbers min <= max")
        self.min_, self.max_ = lo, hi


class AssembleColumns(Stage):
    """Concatenate scalar and vector columns into one feature-vector column.

    Fit records the per-part block layout; transform enforces it, so a part
    whose dimension drifts from the fitted layout is rejected. Null values
    are rejected: numeric features must be cleaned upstream.
    """

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

    def state_to_json(self):
        return {"block_map": self.block_map_.to_json()}

    def load_state(self, state):
        _check_keys(self, state, "block_map")
        self.block_map_ = BlockMap.from_json(state["block_map"])
        if self.block_map_.names() != self.input_cols:
            raise DataError("assemble state block_map must name the input_cols in order")


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
        """Rebuild a fitted pipeline from ``to_json``'s document.

        stages must be a list of objects, each with a known string type,
        params naming exactly that stage's parameters, and a state object;
        any violation raises DataError.
        """
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != PIPELINE_FORMAT_VERSION:
            raise DataError(f"unsupported pipeline format {version!r}")
        frags = doc.get("stages")
        if not isinstance(frags, list) or not all(
                isinstance(frag, dict) and isinstance(frag.get("type"), str)
                and isinstance(frag.get("params"), dict) and isinstance(frag.get("state"), dict)
                for frag in frags):
            raise DataError("pipeline stages must be a list of objects, each with a "
                            "string type, a params object and a state object")
        stages = []
        for frag in frags:
            stage_cls = STAGE_TYPES.get(frag["type"])
            if stage_cls is None:
                raise DataError(f"unknown stage type {frag['type']!r}")
            names = sorted(stage_cls._param_names())
            if sorted(frag["params"]) != names:
                raise DataError(f"{frag['type']} stage params must be exactly {names}, "
                                f"got {sorted(frag['params'])}")
            stage = stage_cls(**frag["params"])
            stage.load_state(frag["state"])
            stages.append(stage)
        pipe = cls(stages)
        pipe.fitted_ = True
        return pipe

