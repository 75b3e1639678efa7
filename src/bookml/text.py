"""Text features: tokenization, stop-word removal, term counts, and IDF.

The tokenizer is deliberately simple and deterministic: lowercase, split on
whitespace runs, punctuation kept inside tokens. IDF uses the smoothed form
ln((N + 1) / (df + 1)), so weights are nonnegative and a term present in
every document weighs exactly zero.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .errors import DataError
from .stopword_list import ENGLISH_STOPWORDS


def tokenize(text):
    """Lowercase and split on whitespace; None yields no tokens."""
    if text is None:
        return []
    return text.lower().split()


def remove_stopwords(tokens, stoplist=ENGLISH_STOPWORDS):
    """Drop stoplist members, preserving order of the survivors."""
    return [t for t in tokens if t not in stoplist]


@dataclass(frozen=True)
class Vocabulary:
    """Fitted term list with per-term document frequencies.

    terms are unique, ordered by descending corpus term frequency with
    lexicographic tie-break; doc_freq is aligned with terms; corpus_size is
    the number of fit documents.
    """

    terms: tuple
    doc_freq: tuple
    corpus_size: int

    def __post_init__(self):
        if len(self.terms) != len(set(self.terms)):
            raise DataError("vocabulary terms must be unique")
        if len(self.doc_freq) != len(self.terms):
            raise DataError("doc_freq must align with terms")
        for df in self.doc_freq:
            if not 1 <= df <= self.corpus_size:
                raise DataError("doc_freq entries must lie in [1, corpus_size]")

    def __len__(self):
        return len(self.terms)

    def index(self):
        return {t: i for i, t in enumerate(self.terms)}


def fit_count_vectorizer(docs, vocab_size, min_df=1):
    """Build a Vocabulary from tokenized documents.

    Keeps the top vocab_size terms by total corpus term frequency among
    terms whose document frequency is at least min_df; frequency ties break
    lexicographically ascending.
    """
    docs = list(docs)
    if not docs:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    if vocab_size < 1 or min_df < 1:
        raise DataError("vocab_size and min_df must be positive")
    tf = {}
    df = {}
    for doc in docs:
        seen = set()
        for tok in doc:
            tf[tok] = tf.get(tok, 0) + 1
            seen.add(tok)
        for tok in seen:
            df[tok] = df.get(tok, 0) + 1
    eligible = [t for t in tf if df[t] >= min_df]
    eligible.sort(key=lambda t: (-tf[t], t))
    kept = eligible[:vocab_size]
    return Vocabulary(
        terms=tuple(kept),
        doc_freq=tuple(df[t] for t in kept),
        corpus_size=len(docs),
    )


def count_matrix(index, docs):
    """Raw term counts of tokenized docs as one CSR matrix, one row per doc.

    index maps term -> column (``Vocabulary.index()``); OOV tokens are
    ignored. Counts are float64, indices sorted within each row, and no
    explicit zeros are stored.
    """
    cols = []
    indptr = [0]
    for doc in docs:
        cols.extend([index[t] for t in doc if t in index])
        indptr.append(len(cols))
    X = sp.csr_matrix(
        (np.ones(len(cols)), np.asarray(cols, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(index)),
    )
    X.sum_duplicates()
    return X


def idf_weights(doc_freq, corpus_size):
    """Smoothed inverse document frequency ln((N + 1) / (df + 1)) of N = corpus_size docs."""
    if corpus_size < 1:
        raise DataError("corpus_size must be at least 1")
    df = np.asarray(doc_freq, dtype=np.float64)
    return np.log((corpus_size + 1.0) / (df + 1.0))


def tfidf_matrix(counts, weights):
    """Columnwise tf * idf of a CSR count matrix; zero products are dropped."""
    weights = np.asarray(weights, dtype=np.float64)
    if counts.shape[1] != weights.shape[0]:
        raise DataError(
            f"count matrix dim {counts.shape[1]} != weight vector dim {weights.shape[0]}"
        )
    out = sp.csr_matrix(
        (counts.data * weights[counts.indices], counts.indices.copy(), counts.indptr.copy()),
        shape=counts.shape,
    )
    out.eliminate_zeros()
    return out
