import numpy as np
import pytest

from bookml import (
    BlockMap,
    DataError,
    DecisionTreeClassifier,
    GradientBoostedTreesClassifier,
    RandomForestClassifier,
    block_importances,
)
from bookml.tree import Tree, accumulate_importances
from bookml.vectors import Block

SEPARABLE_X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
SEPARABLE_Y = np.array([0] * 10 + [1] * 10)


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_decision_tree(self, rng):
        X = rng.normal(0, 1, (120, 4))
        y = rng.integers(0, 3, 120)
        forest = RandomForestClassifier(
            num_trees=1, bootstrap=False, feature_subset_size=4, max_depth=4, seed=5
        ).fit(X, y)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probes = rng.normal(0, 1, (500, 4))
        np.testing.assert_array_equal(forest.predict(probes), tree.predict(probes))

    def test_same_seed_identical_forests(self, rng):
        X = rng.normal(0, 1, (80, 3))
        y = rng.integers(0, 2, 80)
        a = RandomForestClassifier(num_trees=5, seed=3).fit(X, y)
        b = RandomForestClassifier(num_trees=5, seed=3).fit(X, y)
        assert [t.to_json() for t in a.trees_] == [t.to_json() for t in b.trees_]

    def test_separable_fixture(self):
        model = RandomForestClassifier(num_trees=50, seed=1).fit(SEPARABLE_X, SEPARABLE_Y)
        assert (model.predict(SEPARABLE_X) == SEPARABLE_Y).mean() == 1.0

    def test_vote_matches_hand_tally(self, rng):
        X = rng.normal(0, 1, (60, 3))
        y = rng.integers(0, 3, 60)
        model = RandomForestClassifier(num_trees=5, seed=9).fit(X, y)
        probes = rng.normal(0, 1, (100, 3))
        preds = model.predict(probes)
        from bookml.tree import tree_predict_matrix

        per_tree = np.stack(
            [np.argmax(tree_predict_matrix(t, probes), axis=1) for t in model.trees_]
        )
        for i in range(probes.shape[0]):
            counts = np.bincount(per_tree[:, i], minlength=3)
            assert preds[i] == int(np.argmax(counts))

    def test_tie_goes_to_lower_class(self):
        def leaf(dist):
            return Tree(feature=[-1], threshold=[0.0], gain=[0.0], n_samples=[1], right=[-1],
                        value=[dist])

        model = RandomForestClassifier(num_trees=2, seed=0)
        model.trees_ = [leaf([1.0, 0.0]), leaf([0.0, 1.0])]
        model.num_classes_ = 2
        model.dim_ = 1
        assert model.predict(np.zeros((1, 1)))[0] == 0

    def test_duplicated_identical_trees_match_single_tree(self, rng):
        X = rng.normal(0, 1, (60, 2))
        y = rng.integers(0, 2, 60)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        model = RandomForestClassifier(num_trees=3, seed=0)
        model.trees_ = [tree.tree_] * 3
        model.num_classes_ = 2
        model.dim_ = 2
        probes = rng.normal(0, 1, (50, 2))
        np.testing.assert_array_equal(model.predict(probes), tree.predict(probes))

    def test_subset_size_exceeding_dim_rejected(self):
        with pytest.raises(DataError):
            RandomForestClassifier(feature_subset_size=9).fit(SEPARABLE_X, SEPARABLE_Y)


class TestGradientBoosting:
    def test_separable_fixture(self):
        model = GradientBoostedTreesClassifier(num_iters=10, learning_rate=0.1).fit(
            SEPARABLE_X, SEPARABLE_Y
        )
        assert (model.predict(SEPARABLE_X) == SEPARABLE_Y).mean() == 1.0

    def test_zero_stages_predicts_majority_via_prior_sign(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1])
        model = GradientBoostedTreesClassifier(num_iters=0).fit(np.zeros((7, 1)), y)
        assert np.all(model.predict(np.zeros((3, 1))) == 1)
        y2 = 1 - y
        model2 = GradientBoostedTreesClassifier(num_iters=0).fit(np.zeros((7, 1)), y2)
        assert np.all(model2.predict(np.zeros((3, 1))) == 0)

    def test_log_loss_non_increasing(self, rng):
        X = rng.normal(0, 1, (200, 4))
        y = (X[:, 0] + 0.3 * rng.normal(0, 1, 200) > 0).astype(int)
        model = GradientBoostedTreesClassifier(num_iters=20, learning_rate=0.05).fit(X, y)
        assert model.train_loss_.shape[0] == 21
        assert np.all(np.diff(model.train_loss_) <= 1e-12)

    def test_sigmoid_arithmetic(self):
        model = GradientBoostedTreesClassifier(num_iters=0).fit(
            SEPARABLE_X, SEPARABLE_Y
        )
        model.initial_score_ = 2.0
        row = np.array([[0.0]])
        label, prob = model.predict(row)[0], model.predict_proba(row)[0]
        assert label == 1
        assert prob == pytest.approx(0.880797, abs=1e-6)

    def test_zero_score_labels_zero(self):
        model = GradientBoostedTreesClassifier(num_iters=0).fit(SEPARABLE_X, SEPARABLE_Y)
        model.initial_score_ = 0.0
        row = np.array([[0.0]])
        label, prob = model.predict(row)[0], model.predict_proba(row)[0]
        assert (label, prob) == (0, 0.5)

    def test_antisymmetry_label_flip(self, rng):
        X = rng.normal(0, 1, (100, 3))
        y = (X[:, 1] > 0).astype(int)
        model = GradientBoostedTreesClassifier(num_iters=5).fit(X, y)
        probes = rng.normal(0, 1, (40, 3))
        before = model.decision_function(probes)

        for t in model.trees_:
            leaves = t.feature < 0
            t.value[leaves] = -t.value[leaves]
        model.initial_score_ = -model.initial_score_
        after = model.decision_function(probes)
        np.testing.assert_allclose(after, -before, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            GradientBoostedTreesClassifier().fit(np.zeros((4, 1)), np.zeros(4, dtype=int))

    def test_multiclass_labels_rejected(self):
        with pytest.raises(DataError):
            GradientBoostedTreesClassifier().fit(np.zeros((4, 1)), np.array([0, 1, 2, 1]))


class TestPredictValidatesOnce:
    """Ensembles validate and densify their input once per call, not per tree."""

    def count_validations(self, monkeypatch):
        from bookml import tree, validation

        calls = []

        def counting(X):
            calls.append(1)
            return validation.as_feature_matrix(X)

        monkeypatch.setattr(tree, "as_feature_matrix", counting)
        return calls

    def test_gbt_decision_function(self, rng, monkeypatch):
        from bookml.tree import tree_predict_matrix

        X = rng.normal(0, 1, (150, 4))
        y = (X[:, 0] + 0.5 * rng.normal(0, 1, 150) > 0).astype(int)
        model = GradientBoostedTreesClassifier(num_iters=8, learning_rate=0.1).fit(X, y)
        probes = rng.normal(0, 1, (90, 4))
        expected = np.full(probes.shape[0], model.initial_score_)
        for tree in model.trees_:
            expected = expected + model.learning_rate * tree_predict_matrix(tree, probes)
        calls = self.count_validations(monkeypatch)
        scores = model.decision_function(probes)
        assert len(calls) == 1
        np.testing.assert_array_equal(scores, expected)

    def test_forest_predict(self, rng, monkeypatch):
        from bookml.tree import tree_predict_matrix

        X = rng.normal(0, 1, (120, 3))
        y = rng.integers(0, 3, 120)
        model = RandomForestClassifier(num_trees=6, max_depth=4, seed=2).fit(X, y)
        probes = rng.normal(0, 1, (80, 3))
        votes = np.zeros((probes.shape[0], 3), dtype=np.int64)
        for tree in model.trees_:
            labels = np.argmax(tree_predict_matrix(tree, probes), axis=1)
            votes[np.arange(probes.shape[0]), labels] += 1
        calls = self.count_validations(monkeypatch)
        preds = model.predict(probes)
        assert len(calls) == 1
        np.testing.assert_array_equal(preds, np.argmax(votes, axis=1))


class TestBlockImportances:
    def blocks(self):
        return BlockMap([Block("a", 0, 1), Block("b", 1, 2), Block("c", 3, 1)])

    def test_depth_one_split_attributes_to_one_block(self):
        X = np.array([[0.0, 5.0, 5.0, 5.0], [1.0, 5.0, 5.0, 5.0]] * 10)
        y = np.array([0, 1] * 10)
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        imp = block_importances(model, self.blocks())
        np.testing.assert_allclose(imp.values, [1.0, 0.0, 0.0])
        assert not imp.degenerate

    def test_sum_to_one_for_all_tree_families(self, rng):
        X = rng.normal(0, 1, (150, 4))
        y = (X[:, 0] + X[:, 2] > 0).astype(int)
        models = [
            DecisionTreeClassifier(max_depth=4).fit(X, y),
            RandomForestClassifier(num_trees=10, seed=2).fit(X, y),
            GradientBoostedTreesClassifier(num_iters=8).fit(X, y),
        ]
        for model in models:
            imp = block_importances(model, self.blocks())
            assert np.all(imp.values >= 0)
            assert imp.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stumps_without_splits_flagged_degenerate(self):
        model = DecisionTreeClassifier(max_depth=0).fit(
            np.zeros((4, 4)), np.array([0, 1, 0, 1])
        )
        imp = block_importances(model, self.blocks())
        assert imp.degenerate
        np.testing.assert_array_equal(imp.values, np.zeros(3))

    def test_importances_match_a_preorder_walk(self, rng):
        # Reference: a depth-first walk adding one split at a time in
        # Python floats; the flat add must give the same floats.
        X = rng.normal(0, 1, (150, 4))
        y = rng.integers(0, 3, 150)
        model = RandomForestClassifier(num_trees=6, max_depth=6, seed=4).fit(X, y)
        want = [0.0] * 4
        for tree in model.trees_:
            total, stack = int(tree.n_samples[0]), [0]
            while stack:
                node = stack.pop()
                if tree.feature[node] >= 0:
                    f = int(tree.feature[node])
                    want[f] += int(tree.n_samples[node]) / total * float(tree.gain[node])
                    stack += [int(tree.right[node]), node + 1]
        got = np.zeros(4)
        for tree in model.trees_:
            accumulate_importances(tree, got)
        assert got.tolist() == want

    def test_rows_sorted_descending(self, rng):
        X = rng.normal(0, 1, (100, 4))
        y = (X[:, 0] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        rows = block_importances(model, self.blocks()).rows()
        values = [v for _, v in rows]
        assert values == sorted(values, reverse=True)
