import json

import numpy as np
import pytest

from bookml import (
    BaseEstimator,
    ConfigError,
    DataError,
    LogisticRegressionClassifier,
    cross_validate,
    expand_grid,
    kfold_indices,
    train_validation_split,
)
from bookml.errors import NumericError

from fingerprint import canonical


class ConstantClassifier(BaseEstimator):
    """Deterministic trainer: always predicts the configured class."""

    def __init__(self, label=0, fail=False):
        self.label = label
        self.fail = fail

    def fit(self, X, y):
        if self.fail:
            raise NumericError("configured to fail")
        return self

    def predict(self, X):
        n = X.shape[0] if hasattr(X, "shape") else len(X)
        return np.full(n, self.label, dtype=np.int64)


class TestExpandGrid:
    def test_two_axes(self):
        out = expand_grid({"a": [1, 2], "b": ["x"]})
        assert out == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_single_axis(self):
        assert len(expand_grid({"a": [1, 2, 3]})) == 3

    def test_product_count_and_uniqueness(self):
        out = expand_grid({"a": [1, 2], "b": ["x", "y"], "c": ["p", "q", "r"]})
        assert len(out) == 12
        assert len({tuple(sorted(d.items())) for d in out}) == 12

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid({"a": []})

    def test_empty_grid_yields_defaults(self):
        assert expand_grid({}) == [{}]


class TestKFold:
    def test_nine_rows_three_folds(self):
        folds = kfold_indices(9, 3, seed=1)
        assert sorted(len(f) for f in folds) == [3, 3, 3]
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(9))

    def test_ten_rows_three_folds_remainder(self):
        folds = kfold_indices(10, 3, seed=1)
        assert sorted((len(f) for f in folds), reverse=True) == [4, 3, 3]

    def test_partition_for_many_k_and_seeds(self):
        for k in (2, 3, 5):
            for seed in range(5):
                folds = kfold_indices(23, k, seed)
                sizes = [len(f) for f in folds]
                assert max(sizes) - min(sizes) <= 1
                joined = np.sort(np.concatenate(folds))
                np.testing.assert_array_equal(joined, np.arange(23))

    def test_k_exceeding_rows(self):
        with pytest.raises(DataError):
            kfold_indices(3, 4, 0)


def blob_data(rng, n=60):
    X = rng.normal(0, 1, (n, 2))
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestCrossValidate:
    def test_constant_trainer_mean_equals_holdout(self, rng):
        # equal fold sizes make mean-of-fold-accuracy equal overall accuracy
        X = np.zeros((12, 1))
        y = np.array([0, 1] * 6)
        result = cross_validate(
            ConstantClassifier(), {"label": [0, 1]}, X, y, k=3, metric="accuracy", seed=4
        )
        for cand in result.table:
            overall = (np.full(12, cand.params["label"]) == y).mean()
            assert cand.selection_score == pytest.approx(overall, abs=1e-12)

    def test_tie_prefers_earlier_grid_point(self):
        X = np.zeros((8, 1))
        y = np.array([0, 1] * 4)
        result = cross_validate(
            ConstantClassifier(), {"label": [1, 0]}, X, y, k=2, metric="accuracy", seed=0
        )
        assert result.best_params == {"label": 1}

    def test_failing_candidate_disqualified(self, rng):
        X, y = blob_data(rng)
        result = cross_validate(
            ConstantClassifier(),
            {"label": [0], "fail": [False, True]},
            X, y, k=3, metric="accuracy", seed=0,
        )
        errors = [c.error for c in result.table]
        assert errors.count(None) == 1
        assert result.best_params["fail"] is False

    def test_all_failing_raises(self, rng):
        X, y = blob_data(rng)
        with pytest.raises(DataError):
            cross_validate(ConstantClassifier(), {"fail": [True]}, X, y, k=2,
                           metric="accuracy", seed=0)

    def test_best_model_refit_on_full_table(self, rng):
        X, y = blob_data(rng, 40)
        result = cross_validate(
            LogisticRegressionClassifier(max_iters=50),
            {"l2_reg": [0.0, 0.1]}, X, y, k=2, metric="f1", seed=1,
        )
        assert result.best_model.weights_ is not None
        assert result.best_model.dim_ == 2

    def test_reproducible_modulo_wall_time(self, rng):
        X, y = blob_data(rng, 45)
        results = []
        for _ in range(2):
            r = cross_validate(
                LogisticRegressionClassifier(max_iters=40),
                {"l2_reg": [0.0, 0.01]}, X, y, k=3, metric="f1", seed=9,
            )
            results.append(json.dumps(canonical(r.to_json()), sort_keys=True))
        assert results[0] == results[1]


class TestTrainValidationSplit:
    def test_grid_of_one(self, rng):
        X, y = blob_data(rng)
        result = train_validation_split(
            ConstantClassifier(), {"label": [1]}, X, y, train_ratio=0.5,
            metric="accuracy", seed=0,
        )
        assert result.best_params == {"label": 1}

    def test_same_seed_identical_tables(self, rng):
        X, y = blob_data(rng)
        a = train_validation_split(ConstantClassifier(), {"label": [0, 1]}, X, y,
                                   train_ratio=0.8, metric="accuracy", seed=3)
        b = train_validation_split(ConstantClassifier(), {"label": [0, 1]}, X, y,
                                   train_ratio=0.8, metric="accuracy", seed=3)
        assert json.dumps(canonical(a.to_json()), sort_keys=True) == \
            json.dumps(canonical(b.to_json()), sort_keys=True)

    def test_candidate_ordering_matches_cv_for_deterministic_trainer(self, rng):
        # a trainer whose predictions depend only on its params induces the
        # same candidate ordering under tvs and under cv
        X = np.zeros((12, 1))
        y = np.array([0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
        grid = {"label": [0, 1]}
        tvs = train_validation_split(ConstantClassifier(), grid, X, y,
                                     train_ratio=0.5, metric="accuracy", seed=5)
        cv = cross_validate(ConstantClassifier(), grid, X, y, k=2,
                            metric="accuracy", seed=5)
        tvs_order = sorted(range(2), key=lambda i: -tvs.table[i].selection_score)
        cv_order = sorted(range(2), key=lambda i: -cv.table[i].selection_score)
        assert tvs_order == cv_order
        assert tvs.best_params == cv.best_params

    def test_degenerate_ratio_rejected(self, rng):
        X, y = blob_data(rng, 4)
        with pytest.raises(ConfigError):
            train_validation_split(ConstantClassifier(), {}, X, y, train_ratio=1.0,
                                   metric="accuracy", seed=0)
        with pytest.raises(DataError):
            train_validation_split(ConstantClassifier(), {}, X, y, train_ratio=0.1,
                                   metric="accuracy", seed=0)

    def test_unknown_metric_rejected(self, rng):
        X, y = blob_data(rng, 10)
        with pytest.raises(ConfigError):
            train_validation_split(ConstantClassifier(), {}, X, y, train_ratio=0.5,
                                   metric="auc", seed=0)
