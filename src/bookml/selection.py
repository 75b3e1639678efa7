"""Hyperparameter grids, k-fold cross-validation, and train/validation split.

Both tuners score every grid point with the full four-metric report, pick
the best mean selection metric (ties go to the earlier grid point), and
refit the winner on the full data. Results are reproducible bit-for-bit
under a fixed seed; wall times are the only nondeterministic fields.
"""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BookmlError, ConfigError, DataError
from .metrics import evaluate_multiclass, metric_field
from .validation import as_label_array, take_rows

SELECTION_METRICS = ("f1", "accuracy", "weighted_precision", "weighted_recall")


def expand_grid(axes):
    """Cartesian product of {param: [values...]}, axes in lexicographic order.

    The last axis varies fastest; an empty axis is an error. An empty grid
    yields one empty parameter mapping (the estimator's defaults).
    """
    for name, values in axes.items():
        if len(values) == 0:
            raise ConfigError(f"grid axis {name!r} is empty")
    names = sorted(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def kfold_indices(n_rows, k, seed):
    """Shuffled fold index arrays: disjoint, exhaustive, sizes differ by <= 1."""
    if k < 2:
        raise ConfigError("k must be at least 2")
    if k > n_rows:
        raise DataError(f"k={k} exceeds row count {n_rows}")
    perm = np.random.default_rng(seed).permutation(n_rows)
    return np.array_split(perm, k)


@dataclass
class CandidateResult:
    params: dict
    fold_metrics: list = field(default_factory=list)
    mean_metrics: dict | None = None
    selection_score: float | None = None
    wall_time: float = 0.0
    error: str | None = None

    def to_json(self):
        return {
            "params": self.params,
            "fold_metrics": self.fold_metrics,
            "mean_metrics": self.mean_metrics,
            "selection_score": self.selection_score,
            "error": self.error,
            "wall_time_s": self.wall_time,
        }


@dataclass
class TuneResult:
    method: str
    settings: dict
    metric: str
    best_params: dict | None
    best_metric: float | None
    best_model: object
    table: list

    def to_json(self):
        return {
            "method": self.method,
            "settings": self.settings,
            "metric": self.metric,
            "best_params": self.best_params,
            "best_metric": self.best_metric,
            "candidates": [c.to_json() for c in self.table],
        }


def _score_candidate(estimator, params, splits, X, y, num_classes, metric):
    result = CandidateResult(params=params)
    start = time.perf_counter()
    try:
        for train_idx, val_idx in splits:
            model = estimator.clone().set_params(**params)
            model.fit(take_rows(X, train_idx), y[train_idx])
            preds = model.predict(take_rows(X, val_idx))
            report = evaluate_multiclass(preds, y[val_idx], num_classes)
            result.fold_metrics.append(
                {
                    "accuracy": report.accuracy,
                    "weighted_precision": report.weighted_precision,
                    "weighted_recall": report.weighted_recall,
                    "weighted_f1": report.weighted_f1,
                }
            )
    except BookmlError as exc:
        result.error = str(exc)
        result.fold_metrics = []
        result.wall_time = time.perf_counter() - start
        return result
    keys = result.fold_metrics[0].keys()
    result.mean_metrics = {
        k: float(np.mean([m[k] for m in result.fold_metrics])) for k in keys
    }
    result.selection_score = result.mean_metrics[metric_field(metric)]
    result.wall_time = time.perf_counter() - start
    return result


def _tune(estimator, grid, X, y, splits, num_classes, metric, method, settings):
    if metric not in SELECTION_METRICS:
        raise ConfigError(f"unknown selection metric {metric!r}; choose from {SELECTION_METRICS}")
    candidates = expand_grid(grid)
    table = [
        _score_candidate(estimator, params, splits, X, y, num_classes, metric)
        for params in candidates
    ]
    best = None
    for cand in table:
        if cand.error is not None:
            continue
        if best is None or cand.selection_score > best.selection_score:
            best = cand
    if best is None:
        raise DataError("every grid candidate failed to train: " + (table[0].error or ""))
    final = estimator.clone().set_params(**best.params)
    final.fit(X, y)
    return TuneResult(
        method=method,
        settings=settings,
        metric=metric,
        best_params=best.params,
        best_metric=best.selection_score,
        best_model=final,
        table=table,
    )


def cross_validate(estimator, grid, X, y, k=3, metric="f1", seed=0):
    """Grid search over shuffled k folds; winner refit on all rows.

    Candidates that raise during training are recorded with their error and
    disqualified; the search fails only when every candidate fails.
    """
    y = as_label_array(y)
    num_classes = int(y.max()) + 1
    folds = kfold_indices(y.shape[0], k, seed)
    all_rows = np.arange(y.shape[0])
    splits = [
        (np.setdiff1d(all_rows, fold, assume_unique=True), fold) for fold in folds
    ]
    settings = {"k": k, "seed": seed}
    return _tune(estimator, grid, X, y, splits, num_classes, metric, "cv", settings)


def train_validation_split(estimator, grid, X, y, train_ratio=0.8, metric="f1", seed=0):
    """Grid search against a single seeded holdout; winner refit on all rows."""
    if not 0.0 < train_ratio < 1.0:
        raise ConfigError("train_ratio must lie strictly between 0 and 1")
    y = as_label_array(y)
    n = y.shape[0]
    n_train = int(n * train_ratio)
    if n_train == 0 or n_train == n:
        raise DataError(f"train_ratio {train_ratio} leaves an empty side for {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    splits = [(perm[:n_train], perm[n_train:])]
    num_classes = int(y.max()) + 1
    settings = {"train_ratio": train_ratio, "seed": seed}
    return _tune(estimator, grid, X, y, splits, num_classes, metric, "tvs", settings)
