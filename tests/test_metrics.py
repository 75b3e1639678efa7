import numpy as np
import pytest
from hypothesis import given, strategies as st

from bookml import DataError, evaluate_multiclass, evaluate_regression


def oracle_metrics(preds, truth, k):
    """Independent evaluator: direct per-class loops over prediction pairs."""
    preds, truth = list(preds), list(truth)
    n = len(truth)
    accuracy = sum(p == t for p, t in zip(preds, truth)) / n
    wp = wr = wf = 0.0
    for c in range(k):
        tp = sum(1 for p, t in zip(preds, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truth) if p != c and t == c)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        share = support / n
        wp += share * precision
        wr += share * recall
        wf += share * f1
    return accuracy, wp, wr, wf


class TestMulticlass:
    def test_perfect(self):
        rep = evaluate_multiclass([0, 1, 2], [0, 1, 2], 3)
        assert (rep.accuracy, rep.weighted_precision, rep.weighted_recall,
                rep.weighted_f1) == (1.0, 1.0, 1.0, 1.0)

    def test_worked_example(self):
        rep = evaluate_multiclass([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.weighted_precision == pytest.approx(0.8333, abs=1e-4)
        assert rep.weighted_recall == pytest.approx(0.75)
        assert rep.weighted_f1 == pytest.approx(0.7333, abs=1e-4)

    def test_constant_predictor_balanced(self):
        rep = evaluate_multiclass([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert rep.accuracy == pytest.approx(0.5)
        assert rep.weighted_f1 == pytest.approx(1 / 3, abs=1e-4)

    def test_confusion_row_sums_are_support(self):
        rep = evaluate_multiclass([0, 1, 1, 2, 2], [0, 0, 1, 2, 2], 3)
        np.testing.assert_array_equal(rep.confusion.sum(axis=1), [2, 1, 2])
        assert rep.accuracy == np.trace(rep.confusion) / rep.confusion.sum()

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            truth = rng.integers(0, k, n)
            preds = rng.integers(0, k, n)
            rep = evaluate_multiclass(preds, truth, k)
            acc, wp, wr, wf = oracle_metrics(preds, truth, k)
            assert rep.accuracy == pytest.approx(acc, abs=1e-12)
            assert rep.weighted_precision == pytest.approx(wp, abs=1e-12)
            assert rep.weighted_recall == pytest.approx(wr, abs=1e-12)
            assert rep.weighted_f1 == pytest.approx(wf, abs=1e-12)

    def test_weighted_recall_equals_accuracy_identity(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 50))
            truth = rng.integers(0, k, n)
            preds = rng.integers(0, k, n)
            rep = evaluate_multiclass(preds, truth, k)
            assert rep.weighted_recall == pytest.approx(rep.accuracy, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pairs, rnd):
        preds = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        rep = evaluate_multiclass(preds, truth, 4)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        rep2 = evaluate_multiclass([preds[i] for i in order], [truth[i] for i in order], 4)
        assert rep.as_dict() == rep2.as_dict()

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            evaluate_multiclass([0], [0, 1], 2)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            evaluate_multiclass([], [], 2)


class TestBinary:
    def test_equals_multiclass_k2(self, rng):
        # Binary evaluation is evaluate_multiclass with K = 2: its confusion
        # matrix holds [[TN, FP], [FN, TP]] and accuracy is their diagonal share.
        for _ in range(100):
            n = int(rng.integers(1, 40))
            truth = rng.integers(0, 2, n)
            preds = rng.integers(0, 2, n)
            rep = evaluate_multiclass(preds, truth, 2)
            counts = [[int(((truth == t) & (preds == p)).sum()) for p in (0, 1)] for t in (0, 1)]
            assert rep.confusion.tolist() == counts
            assert rep.accuracy == (counts[0][0] + counts[1][1]) / n

    def test_imbalanced_constant_predictor(self):
        truth = np.array([0] * 90 + [1] * 10)
        preds = np.zeros(100, dtype=int)
        rep = evaluate_multiclass(preds, truth, 2)
        assert rep.accuracy == pytest.approx(0.9)
        assert rep.weighted_recall == pytest.approx(0.9)


class TestRegression:
    def test_perfect(self):
        rmse, r2 = evaluate_regression([1.0, 2.0], [1.0, 2.0])
        assert (rmse, r2) == (0.0, 1.0)

    def test_mean_predictor_gives_zero_r2(self):
        truth = [1.0, 3.0]
        rmse, r2 = evaluate_regression([2.0, 2.0], truth)
        assert rmse == pytest.approx(1.0)
        assert r2 == pytest.approx(0.0)

    def test_negative_r2_regime(self):
        rmse, r2 = evaluate_regression([3.0, 1.0], [1.0, 3.0])
        assert rmse == pytest.approx(2.0)
        assert r2 == pytest.approx(-3.0)

    def test_zero_variance_truth_flagged(self):
        rmse, r2 = evaluate_regression([1.0, 2.0], [5.0, 5.0])
        assert r2 is None
        assert rmse > 0

    def test_too_short(self):
        with pytest.raises(DataError):
            evaluate_regression([1.0], [1.0])


def test_metric_names_map_to_report_fields():
    from bookml.metrics import metric_field
    from bookml.selection import SELECTION_METRICS

    report = evaluate_multiclass(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
    assert metric_field("f1") == "weighted_f1"
    for name in SELECTION_METRICS:
        assert report.metric(name) == report.as_dict()[metric_field(name)]
    with pytest.raises(DataError):
        metric_field("auc")
