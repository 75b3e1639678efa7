"""Bagged forests and stagewise boosted trees for classification.

Per-tree seeds are pre-derived from (seed, tree index), so a forest trained
tree-by-tree in any order is identical to a sequential run. Boosting is
binary only: regression trees fit the logistic-loss pseudo-residuals and
each leaf takes one Newton step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .errors import DataError, NumericError
from .persist import is_finite_number, model_from_doc
from .tree import (
    FeatureBins,
    Tree,
    accumulate_importances,
    check_tree_params,
    densify,
    grow_tree,
    num_classes_from_doc,
    tree_predict_matrix,
)
from .validation import as_label_array, check_labels_in_range, check_matching_dim


class RandomForestClassifier(BaseEstimator):
    """Majority-vote ensemble of CART trees on bootstrap resamples.

    feature_subset_size=None means ceil(sqrt(n_features)), drawn fresh per
    node; ties in the vote go to the lower class index.
    """

    def __init__(self, num_trees=20, max_depth=5, feature_subset_size=None,
                 bootstrap=True, min_instances_per_node=1, max_bins=32,
                 num_classes=None, seed=0):
        self.num_trees = num_trees
        self.max_depth = max_depth
        self.feature_subset_size = feature_subset_size
        self.bootstrap = bootstrap
        self.min_instances_per_node = min_instances_per_node
        self.max_bins = max_bins
        self.num_classes = num_classes
        self.seed = seed
        self.trees_ = None

    def check_params(self):
        if self.num_trees < 1:
            raise DataError("num_trees must be positive")
        if self.feature_subset_size is not None and self.feature_subset_size < 1:
            raise DataError("feature_subset_size must be None or at least 1")
        check_tree_params(self.max_depth, self.max_bins, self.min_instances_per_node)

    def fit(self, X, y):
        X = densify(X)
        y = as_label_array(y, X.shape[0])
        if X.shape[0] == 0:
            raise DataError("cannot fit on zero rows")
        self.check_params()
        k = int(self.num_classes) if self.num_classes else int(y.max()) + 1
        check_labels_in_range(y, k)
        n, d = X.shape
        subset = self.feature_subset_size
        if subset is None:
            subset = max(1, math.ceil(math.sqrt(d)))
        if subset > d:
            raise DataError(f"feature_subset_size {subset} exceeds dimension {d}")
        seeds = np.random.SeedSequence(self.seed).spawn(self.num_trees)
        bins = FeatureBins(X, self.max_bins)
        trees = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            rows = rng.integers(0, n, n) if self.bootstrap else None

            def picker(n_features, rng=rng, size=subset):
                return rng.choice(n_features, size=size, replace=False)

            trees.append(
                grow_tree(
                    X, y,
                    max_depth=self.max_depth,
                    min_instances_per_node=self.min_instances_per_node,
                    max_bins=self.max_bins,
                    criterion="gini",
                    num_classes=k,
                    feature_picker=picker,
                    bins=bins,
                    rows=rows,
                )[0]
            )
        self.trees_ = trees
        self.num_classes_ = k
        self.dim_ = d
        return self

    def predict(self, X):
        check_is_fitted(self, "trees_")
        X = densify(X)
        check_matching_dim(self.dim_, X)
        votes = np.zeros((X.shape[0], self.num_classes_), dtype=np.int64)
        for tree in self.trees_:
            labels = np.argmax(tree_predict_matrix(tree, X), axis=1)
            votes[np.arange(X.shape[0]), labels] += 1
        return np.argmax(votes, axis=1)

    def to_json(self):
        check_is_fitted(self, "trees_")
        return {
            "kind": "rforest",
            "num_classes": self.num_classes_,
            "dim": self.dim_,
            "params": self.get_params(),
            "trees": [t.to_json() for t in self.trees_],
        }

    @classmethod
    def from_json(cls, doc):
        model = model_from_doc(cls, doc, "num_classes", "trees")
        model.num_classes_ = num_classes_from_doc(doc)
        model.trees_ = _trees_from_json(doc["trees"], model.dim_, model.num_classes_)
        return model


def _trees_from_json(docs, dim, num_classes=None):
    """The trees of a non-empty list of nested tree documents; see Tree.from_json."""
    if not isinstance(docs, list) or not docs:
        raise DataError("trees must be a non-empty list of tree documents")
    return [Tree.from_json(doc, dim, num_classes, f"trees[{t}]") for t, doc in enumerate(docs)]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _log_loss(y, p):
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


class GradientBoostedTreesClassifier(BaseEstimator):
    """Binary classifier boosted on logistic loss.

    The model starts from the log-odds of the base rate; each stage fits a
    variance-criterion regression tree to the residuals y - sigmoid(score),
    replaces each leaf value with one Newton step, and advances the scores
    by learning_rate times the tree output. Training log-loss is recorded
    per stage (index 0 is the prior-only model).
    """

    def __init__(self, num_iters=20, learning_rate=0.1, max_depth=3,
                 min_instances_per_node=1, max_bins=32, seed=0):
        self.num_iters = num_iters
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_instances_per_node = min_instances_per_node
        self.max_bins = max_bins
        self.seed = seed
        self.trees_ = None

    def check_params(self):
        if self.num_iters < 0 or self.learning_rate <= 0:
            raise DataError("invalid boosting configuration")
        check_tree_params(self.max_depth, self.max_bins, self.min_instances_per_node)

    def fit(self, X, y):
        X = densify(X)
        y = as_label_array(y, X.shape[0])
        if X.shape[0] == 0:
            raise DataError("cannot fit on zero rows")
        check_labels_in_range(y, 2)
        if np.unique(y).shape[0] < 2:
            raise DataError("training labels contain a single class")
        self.check_params()
        yf = y.astype(np.float64)
        p = yf.mean()
        self.initial_score_ = float(np.log(p / (1.0 - p)))
        scores = np.full(X.shape[0], self.initial_score_)
        bins = FeatureBins(X, self.max_bins)
        trees = []
        losses = [_log_loss(yf, _sigmoid(scores))]
        for _ in range(self.num_iters):
            prob = _sigmoid(scores)
            resid = yf - prob
            tree, leaf = grow_tree(
                X, resid,
                max_depth=self.max_depth,
                min_instances_per_node=self.min_instances_per_node,
                max_bins=self.max_bins,
                criterion="variance",
                bins=bins,
            )
            # One Newton step per leaf, over the rows the grower sent there:
            # sum of residuals over sum of q(1 - q), both added in row order;
            # 0 where the hessian vanishes, and at every split node.
            nodes = tree.value.shape[0]
            num = np.bincount(leaf, weights=resid, minlength=nodes)
            den = np.bincount(leaf, weights=prob * (1.0 - prob), minlength=nodes)
            tree.value = np.zeros(nodes)
            np.divide(num, den, out=tree.value, where=den > 1e-12)
            scores = scores + self.learning_rate * tree.value[leaf]
            if not np.all(np.isfinite(scores)):
                raise NumericError("boosting scores diverged; lower learning_rate")
            trees.append(tree)
            losses.append(_log_loss(yf, _sigmoid(scores)))
        self.trees_ = trees
        self.dim_ = X.shape[1]
        self.num_classes_ = 2
        self.train_loss_ = np.asarray(losses)
        return self

    def decision_function(self, X):
        check_is_fitted(self, "trees_")
        X = densify(X)
        check_matching_dim(self.dim_, X)
        scores = np.full(X.shape[0], self.initial_score_)
        for tree in self.trees_:
            scores = scores + self.learning_rate * tree_predict_matrix(tree, X)
        return scores

    def predict_proba(self, X):
        return _sigmoid(self.decision_function(X))

    def predict(self, X):
        return (self.decision_function(X) > 0).astype(np.int64)

    def to_json(self):
        check_is_fitted(self, "trees_")
        return {
            "kind": "gbt",
            "dim": self.dim_,
            "initial_score": self.initial_score_,
            "params": self.get_params(),
            "trees": [t.to_json() for t in self.trees_],
        }

    @classmethod
    def from_json(cls, doc):
        model = model_from_doc(cls, doc, "initial_score", "trees")
        if not (is_finite_number(doc["initial_score"]) and is_finite_number(model.learning_rate)):
            raise DataError("gbt model needs a finite initial_score and learning_rate")
        model.num_classes_ = 2
        model.initial_score_ = doc["initial_score"]
        model.trees_ = _trees_from_json(doc["trees"], model.dim_)
        model.train_loss_ = None
        return model


@dataclass
class BlockImportances:
    """Per-block share of total impurity decrease; sums to 1 unless degenerate."""

    names: list
    values: np.ndarray
    degenerate: bool

    def rows(self):
        """(name, value) pairs sorted by descending importance."""
        order = np.argsort(-self.values, kind="stable")
        return [(self.names[i], float(self.values[i])) for i in order]


def block_importances(model, block_map):
    """Aggregate a tree-family model's split gains into assembler blocks.

    Per-feature importance is the sum over split nodes of
    (node samples / root samples) * impurity gain; block values are sums
    over each block's span, normalized to total 1. A model with no
    effective splits yields all-zero values flagged degenerate.
    """
    check_is_fitted(model, "dim_")
    dim = model.dim_
    if block_map.dim != dim:
        raise DataError(f"block map covers {block_map.dim} features, model has {dim}")
    raw = np.zeros(dim)
    for tree in model.trees_ if hasattr(model, "trees_") else [model.tree_]:
        accumulate_importances(tree, raw)
    per_block = np.array(
        [raw[b.offset : b.offset + b.length].sum() for b in block_map.blocks]
    )
    total = per_block.sum()
    if total <= 0:
        return BlockImportances(block_map.names(), np.zeros(len(per_block)), True)
    return BlockImportances(block_map.names(), per_block / total, False)
