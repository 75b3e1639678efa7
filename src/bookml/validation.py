"""Input validation helpers shared by the estimators.

Importing this module loads neither scipy nor ``bookml.vectors``. An input
can be a sparse matrix only once ``scipy.sparse`` is loaded, so the checks
look it up in ``sys.modules`` and a dense-only process never imports it.
``stack_vectors`` (feature rows as ``Column.value_at`` returns them, to one
matrix) stays an attribute of this module: it is imported from
``bookml.vectors`` on first access and bound here from then on.
"""

import sys

import numpy as np

from .errors import DataError


def __getattr__(name):
    if name != "stack_vectors":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .vectors import stack_vectors

    globals()[name] = stack_vectors
    return stack_vectors


def _issparse(X):
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(X)


def as_feature_matrix(X):
    """Coerce estimator input into a 2-d float64 ndarray or CSR matrix.

    Accepts ndarrays, sparse matrices and nested sequences; a 1-d input is
    one row.
    """
    if _issparse(X):
        out = X.tocsr()
        if out.dtype != np.float64:
            out = out.astype(np.float64)
        if out.ndim != 2:
            raise DataError("sparse input must be 2-d")
        return out
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d feature matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DataError("feature matrix contains non-finite values")
    return arr


def as_label_array(y, n_rows=None):
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise DataError("labels must be 1-d")
    if arr.size and not np.all(arr == arr.astype(np.int64)):
        raise DataError("labels must be integers")
    arr = arr.astype(np.int64)
    if n_rows is not None and arr.shape[0] != n_rows:
        raise DataError(f"label count {arr.shape[0]} does not match row count {n_rows}")
    return arr


def check_labels_in_range(y, num_classes):
    if y.size == 0:
        raise DataError("empty label array")
    if y.min() < 0 or y.max() >= num_classes:
        raise DataError(f"labels must lie in [0, {num_classes})")


def check_matching_dim(model_dim, X):
    if X.shape[1] != model_dim:
        raise DataError(f"feature dimension {X.shape[1]} does not match model dimension {model_dim}")


def row_scores(X, W, b):
    """X @ W.T + b for dense or CSR X and an ndarray W: a dense ndarray."""
    return X @ W.T + b


def take_rows(X, idx):
    """Row subset for ndarray / CSR / 1-d arrays; used by resampling code."""
    if _issparse(X):
        return X[idx]
    return np.asarray(X)[idx]
