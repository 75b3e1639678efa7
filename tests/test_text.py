import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy import sparse as sp

from bookml import (
    DataError,
    Vocabulary,
    fit_count_vectorizer,
    idf_weights,
    remove_stopwords,
    tokenize,
)
from bookml.stopword_list import ENGLISH_STOPWORDS
from bookml.table import Column
from bookml.text import count_matrix, tfidf_matrix


def first_row(X):
    """Row 0 of a CSR matrix as Column.value_at reads it back."""
    return Column("vector", X, np.zeros(X.shape[0], dtype=bool)).value_at(0)


def transform_counts(vocab, tokens):
    """Counts of one doc, read back as row 0 of the column-wise count matrix."""
    return first_row(count_matrix(vocab.index(), [tokens]))


def transform_tfidf(counts, weights):
    """tf-idf of one dense count row through the column-wise tfidf_matrix."""
    return first_row(tfidf_matrix(sp.csr_matrix(np.reshape(counts, (1, -1))), weights))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Great  Book!") == ["great", "book!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_null(self):
        assert tokenize(None) == []

    @given(st.text(max_size=80))
    def test_idempotent_with_stopwords(self, text):
        once = remove_stopwords(tokenize(text))
        again = remove_stopwords([t for tok in once for t in tokenize(tok)])
        assert once == again


class TestStopwords:
    def test_filter_preserves_order(self):
        assert remove_stopwords(["the", "great", "book"], {"the", "a"}) == ["great", "book"]

    def test_empty(self):
        assert remove_stopwords([], {"the"}) == []

    def test_all_removed(self):
        assert remove_stopwords(["the", "the"], {"the"}) == []

    def test_default_list_pinned(self):
        assert len(ENGLISH_STOPWORDS) == 181
        assert all(w == w.lower() for w in ENGLISH_STOPWORDS)


class TestCountVectorizer:
    DOCS = [["a", "b", "a"], ["b", "c"]]

    def test_hand_counted_corpus(self):
        v = fit_count_vectorizer(self.DOCS, vocab_size=10, min_df=1)
        assert v.terms == ("a", "b", "c")
        assert v.doc_freq == (1, 2, 1)
        assert v.corpus_size == 2

    def test_min_df_filters(self):
        v = fit_count_vectorizer(self.DOCS, vocab_size=10, min_df=2)
        assert v.terms == ("b",)

    def test_vocab_size_tie_break(self):
        v = fit_count_vectorizer(self.DOCS, vocab_size=1, min_df=1)
        assert v.terms == ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            fit_count_vectorizer([], 10, 1)

    def test_transform_counts(self):
        v = fit_count_vectorizer(self.DOCS, 10, 1)
        out = transform_counts(v, ["a", "b", "a"])
        assert out == {"dim": 3, "indices": [0, 1], "values": [2.0, 1.0]}

    def test_transform_empty_tokens(self):
        v = fit_count_vectorizer(self.DOCS, 10, 1)
        assert transform_counts(v, [])["indices"] == []

    def test_oov_ignored(self):
        v = fit_count_vectorizer(self.DOCS, 10, 1)
        assert transform_counts(v, ["z"])["indices"] == []


class TestIdf:
    def test_term_in_all_docs_weighs_zero(self):
        assert idf_weights([2], 2)[0] == 0.0

    def test_hand_value(self):
        assert idf_weights([1], 2)[0] == pytest.approx(math.log(1.5), abs=1e-9)

    def test_single_doc_corpus(self):
        assert idf_weights([1], 1)[0] == 0.0

    @given(st.integers(1, 50).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=20))
    ))
    def test_nonnegative_and_zero_iff_full_df(self, case):
        n, dfs = case
        w = idf_weights(dfs, n)
        assert np.all(w >= 0)
        for df, weight in zip(dfs, w):
            assert (weight == 0.0) == (df == n)


class TestTfidf:
    def test_hand_value(self):
        out = transform_tfidf([2.0, 0.0], np.array([math.log(1.5), 0.0]))
        assert out["indices"] == [0]
        assert out["values"][0] == pytest.approx(0.81093, abs=1e-5)

    def test_all_zero_counts(self):
        out = transform_tfidf([0.0, 0.0, 0.0], np.zeros(3))
        assert out["indices"] == []

    def test_zero_weight_drops_entry(self):
        out = transform_tfidf([1.0, 1.0], np.array([0.0, 2.0]))
        assert out == {"dim": 2, "indices": [1], "values": [2.0]}

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            transform_tfidf([0.0, 0.0, 0.0], np.zeros(2))


def test_vocabulary_invariants():
    with pytest.raises(DataError):
        Vocabulary(("a", "a"), (1, 1), 2)
    with pytest.raises(DataError):
        Vocabulary(("a",), (3,), 2)
