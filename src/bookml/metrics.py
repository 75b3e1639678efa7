"""Classification and regression evaluators.

Weighted metrics average per-class precision/recall/F1 with weights equal
to each class's support share; zero denominators contribute 0 rather than
NaN so degenerate folds stay comparable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: np.ndarray

    def as_dict(self):
        return {
            "accuracy": self.accuracy,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "confusion": self.confusion.tolist(),
        }

    def metric(self, name):
        return getattr(self, metric_field(name))


def metric_field(name):
    """Report field a metric name selects; "f1" means weighted F1."""
    if name == "f1":
        return "weighted_f1"
    if name in ("accuracy", "weighted_precision", "weighted_recall", "weighted_f1"):
        return name
    raise DataError(f"unknown metric {name!r}")


def confusion_matrix(preds, truth, num_classes):
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise DataError("predictions and truth must be 1-d and the same length")
    if preds.size == 0:
        raise DataError("cannot evaluate zero predictions")
    for arr, what in ((preds, "prediction"), (truth, "truth")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise DataError(f"{what} label outside [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


def evaluate_multiclass(preds, truth, num_classes):
    """MetricsReport over a K-class confusion matrix.

    accuracy = trace/total; per-class precision = TP/(TP+FP) and recall =
    TP/(TP+FN) with 0 substituted when a denominator is 0; weighted metrics
    are support-share-weighted sums, with weighted F1 aggregating per-class
    F1 = 2PR/(P+R).
    """
    cm = confusion_matrix(preds, truth, num_classes)
    total = cm.sum()
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    tp = np.diag(cm).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
        recall = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    share = support / total
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        weighted_precision=float((share * precision).sum()),
        weighted_recall=float((share * recall).sum()),
        weighted_f1=float((share * f1).sum()),
        confusion=cm,
    )


def evaluate_regression(preds, truth):
    """(rmse, r2) for real-valued predictions.

    r2 = 1 - SS_res/SS_tot may be negative when predictions underperform the
    mean predictor; it is None (flagged absent) when truth has zero variance.
    """
    preds = np.asarray(preds, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise DataError("predictions and truth must be 1-d and the same length")
    if preds.shape[0] < 2:
        raise DataError("need at least 2 points for regression metrics")
    ss_res = float(((preds - truth) ** 2).sum())
    rmse = float(np.sqrt(ss_res / preds.shape[0]))
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return rmse, r2
