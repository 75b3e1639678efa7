"""CART-style binary trees: impurity, histogram split search, builders.

One split convention everywhere, including serialized form: a row goes left
iff feature value <= threshold.

Features are binned once per fit (FeatureBins), as Spark MLlib does with
maxBins. A feature with at most max_bins distinct values among the fit's
rows gets one bin per value, so its candidates at a node are exactly the
midpoints between consecutive distinct values present there, which is what
the exhaustive-search oracle in the tests enumerates. Any other feature
gets the root's equal-frequency cuts (candidate_thresholds) and keeps them
at every node. A node scores every candidate from histograms of the bin
codes of its rows, as LightGBM does: one bincount gives per-bin class
counts (gini) or target sums (variance), and cumulative sums over the bins
give both children of every candidate at once.

A tree is a set of flat arrays over its nodes in depth-first preorder
(Tree). Prediction routes every row together, a level at a time: apply
gives each row's leaf node, whose value is the prediction.
"""

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .errors import DataError
from .docspec import Any, Const, Count, Doc, Finite, Int, ListOf, check
from .validation import (
    as_feature_matrix,
    as_label_array,
    check_labels_in_range,
    check_matching_dim,
)

# Positive-gain test allows for float noise in impurity bookkeeping.
MIN_GAIN = 1e-12


class Tree:
    """A binary tree as parallel arrays over its nodes, in depth-first preorder.

    Node i splits iff feature[i] >= 0: a row goes to the left child i + 1
    iff its value of that feature is <= threshold[i], else to right[i].
    gain[i] is the split's impurity decrease and n_samples[i] the count of
    training rows that reached node i. value[i] is a leaf's prediction: a
    row of a (nodes, K) class-distribution matrix, or a (nodes,) score; a
    split node's entries are 0. depth is the longest root-to-leaf path.

    A leaf has feature -1, gain 0, threshold -inf and right[i] = i (set
    here, whatever the caller passes), so a finite row at a leaf stays
    there: apply moves every row depth times without asking where it is.
    """

    __slots__ = ("feature", "threshold", "gain", "n_samples", "right", "value", "depth")

    def __init__(self, feature, threshold, gain, n_samples, right, value):
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.gain = np.array(gain, dtype=np.float64)
        self.n_samples = np.array(n_samples, dtype=np.int64)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=np.float64)
        leaves = np.flatnonzero(self.feature < 0)
        self.threshold[leaves] = -np.inf
        self.right[leaves] = leaves
        depth = np.zeros(self.feature.shape[0], dtype=np.intp)
        for i in np.flatnonzero(self.feature >= 0):
            depth[i + 1] = depth[self.right[i]] = depth[i] + 1
        self.depth = int(depth.max())

    def to_json(self):
        """The nested v1 document, built from the last node back to the root."""
        feature, threshold, gain = self.feature.tolist(), self.threshold.tolist(), self.gain.tolist()
        n_samples, right, value = self.n_samples.tolist(), self.right.tolist(), self.value.tolist()
        docs = [None] * len(feature)
        for i in reversed(range(len(feature))):
            if feature[i] < 0:
                docs[i] = {"n": n_samples[i], "prediction": value[i]}
            else:
                docs[i] = {"n": n_samples[i], "feature": feature[i], "threshold": threshold[i],
                           "gain": gain[i], "left": docs[i + 1], "right": docs[right[i]]}
        return docs[0]


class TreeDoc:
    """The spec of a nested v1 tree document, which it reads as a Tree.

    Every node needs an int n >= 1. A node with a feature key splits: an
    int feature in [0, dim), a finite threshold and gain, and both
    children. A leaf's prediction is a list of num_classes finite
    probabilities, or a finite score when num_classes is None. The walk is
    iterative, so no tree is too deep to read.
    """

    def __init__(self, dim, num_classes=None):
        self.split = Doc({"n": Count, "feature": Int(0, dim), "threshold": Finite,
                          "gain": Finite, "left": Any, "right": Any})
        self.leaf = Doc({"n": Count, "prediction": Finite if num_classes is None
                         else ListOf(Finite, length=num_classes)})
        self.empty = 0.0 if num_classes is None else [0.0] * num_classes

    def node_spec(self, node):
        return self.split if isinstance(node, dict) and "feature" in node else self.leaf

    def read(self, doc, path, error):
        nodes, right = [], []  # (feature, threshold, gain, n, value) per node; right child
        stack = [(doc, -1, path)]
        while stack:
            node, parent, at = stack.pop()
            i = len(nodes)
            if parent >= 0:
                right[parent] = i
            right.append(-1)
            node = check(node, self.node_spec(node), at, error)
            if "feature" in node:
                nodes.append((node["feature"], node["threshold"], node["gain"], node["n"], self.empty))
                stack += [(node["right"], i, f"{at}.right"), (node["left"], -1, f"{at}.left")]
            else:
                nodes.append((-1, 0.0, 0.0, node["n"], node["prediction"]))
        feature, threshold, gain, n_samples, value = zip(*nodes)
        return Tree(feature, threshold, gain, n_samples, right, value)


def gini(counts):
    """Gini impurity 1 - sum(p^2) over class proportions."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if counts.size == 0 or total <= 0:
        raise DataError("gini needs at least one sample")
    if np.any(counts < 0):
        raise DataError("negative class count")
    p = counts / total
    return float(1.0 - (p**2).sum())


def candidate_thresholds(values, max_bins):
    """Split candidates for one feature: equal-frequency bin boundaries.

    Returns midpoints between the last value of one bin and the first of
    the next; collapses to all adjacent-distinct midpoints when the number
    of distinct values is at most max_bins.
    """
    distinct = np.unique(values)
    if distinct.shape[0] <= 1:
        return np.empty(0)
    if distinct.shape[0] <= max_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    svals = np.sort(values)
    n = svals.shape[0]
    cuts = []
    for k in range(1, max_bins):
        i = n * k // max_bins
        if 0 < i < n and svals[i - 1] < svals[i]:
            cuts.append((svals[i - 1] + svals[i]) / 2.0)
    return np.unique(np.asarray(cuts))


class FeatureBins:
    """A dense matrix binned once per fit.

    codes[f, i] is the bin of row i for feature f, in the smallest unsigned
    dtype that holds max_bins codes. A feature with at most max_bins
    distinct values has values[f], its sorted distinct values, and one bin
    per value. Any other feature has cuts[f], the root's equal-frequency
    thresholds; its code is the number of cuts below the value, so a value
    is <= cuts[f][c] iff its code is <= c. width is the largest bin count.
    """

    __slots__ = ("codes", "values", "cuts", "width")

    def __init__(self, X, max_bins):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        self.codes = np.empty((d, n), dtype=np.min_scalar_type(max(max_bins - 1, 0)))
        self.values, self.cuts = [None] * d, [None] * d
        self.width = 1
        for f in range(d):
            column = X[:, f]
            distinct = np.unique(column)
            if distinct.shape[0] <= max_bins:
                self.values[f] = distinct
                self.codes[f] = np.searchsorted(distinct, column)
                self.width = max(self.width, distinct.shape[0])
            else:
                self.cuts[f] = cuts = candidate_thresholds(column, max_bins)
                self.codes[f] = np.searchsorted(cuts, column)
                self.width = max(self.width, cuts.shape[0] + 1)

    def threshold(self, f, b, counts):
        """Threshold of the split after bin b of feature f at a node.

        counts are the node's per-bin row counts for f. A one-value-per-bin
        feature splits halfway between the node's largest value going left
        and its smallest value going right, or at the left value where that
        midpoint of two adjacent floats rounds up to the right one; a cut
        feature splits at its cut.
        """
        if self.cuts[f] is not None:
            return float(self.cuts[f][b])
        occupied = np.flatnonzero(counts)
        lo = self.values[f][occupied[occupied <= b][-1]]
        hi = self.values[f][occupied[occupied > b][0]]
        mid = (lo + hi) / 2.0
        return float(mid if mid < hi else lo)


# Largest (rows x features) block one histogram bincount covers, which
# bounds the temporary keys and weights of a node's search.
HISTOGRAM_BLOCK = 1 << 20


def _histograms(bins, rows, features, y, num_classes):
    """Per-bin statistics of the node's rows for each feature: (p, width, s).

    With num_classes, s = K class counts (gini). Without, s = 3: the row
    count, target sum and sum of squares (variance); the sums add each
    bin's rows in row order.
    """
    n, width = rows.shape[0], bins.width
    step = max(1, HISTOGRAM_BLOCK // n)
    parts = []
    for start in range(0, features.shape[0], step):
        chunk = features[start:start + step]
        keys = bins.codes[chunk][:, rows].astype(np.intp)
        keys += (np.arange(chunk.shape[0]) * width)[:, None]
        size = chunk.shape[0] * width
        if num_classes is not None:
            keys = (keys * num_classes + y).ravel()
            hist = np.bincount(keys, minlength=size * num_classes)
            parts.append(hist.reshape(chunk.shape[0], width, num_classes))
        else:
            keys = keys.ravel()
            targets = np.tile(y, chunk.shape[0])
            stats = [
                np.bincount(keys, minlength=size),
                np.bincount(keys, weights=targets, minlength=size),
                np.bincount(keys, weights=targets**2, minlength=size),
            ]
            parts.append(np.stack(stats, axis=-1).reshape(chunk.shape[0], width, 3))
    return np.concatenate(parts)


def _gini_gains(cum, n):
    """Weighted gini decrease of the split after each bin, from cumulative class counts."""
    cum = cum.astype(np.float64)
    total = cum[0, -1]
    parent = 1.0 - ((total / n) ** 2).sum()
    left = cum[:, :-1]
    right = total - left
    nl = left.sum(axis=2)
    nr = n - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - (left**2).sum(axis=2) / nl**2
        gini_r = 1.0 - (right**2).sum(axis=2) / nr**2
        gains = parent - (nl / n) * gini_l - (nr / n) * gini_r
    return np.where((nl >= 1) & (nr >= 1), gains, -np.inf)


def _variance_gains(cum, n):
    """Variance decrease of the split after each bin, from cumulative count, sum and sum of squares."""
    counts, sums, squares = cum[..., 0], cum[..., 1], cum[..., 2]
    parent = squares[:, -1:] / n - (sums[:, -1:] / n) ** 2
    nl = counts[:, :-1]
    nr = n - nl
    sl, sl2 = sums[:, :-1], squares[:, :-1]
    sr, sr2 = sums[:, -1:] - sl, squares[:, -1:] - sl2
    with np.errstate(divide="ignore", invalid="ignore"):
        var_l = sl2 / nl - (sl / nl) ** 2
        var_r = sr2 / nr - (sr / nr) ** 2
        gains = parent - (nl / n) * var_l - (nr / n) * var_r
    return np.where((nl >= 1) & (nr >= 1), gains, -np.inf)


def best_split(X, y, feature_subset=None, max_bins=32, criterion="gini",
               num_classes=None, allow_zero_gain=False, rows=None):
    """Best (feature, threshold, gain) over the candidate grid, or None.

    X is a dense matrix, binned here with max_bins, or the FeatureBins of
    one; rows (default all) are the node's rows of it and y holds their
    targets in that order. Ties break toward the lower feature index, then
    the lower threshold; None when no candidate has positive gain.
    criterion is "gini" for class labels or "variance" for real targets.

    allow_zero_gain additionally admits zero-gain candidates (tree builders
    use this so impurity patterns like XOR, where every single split is
    gain-free, can still be separated within the depth budget).
    """
    if not isinstance(X, FeatureBins):
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] < 2:
            return None
        X = FeatureBins(X, max_bins)
    if rows is None:
        rows = np.arange(X.codes.shape[1])
    if feature_subset is None:
        feature_subset = np.arange(X.codes.shape[0])
    features = np.sort(np.asarray(feature_subset, dtype=np.int64))
    n = rows.shape[0]
    if n < 2 or X.width < 2 or features.shape[0] == 0:
        return None
    if criterion == "gini":
        y = as_label_array(y, n)
        k = int(num_classes) if num_classes else int(y.max()) + 1
        hist = _histograms(X, rows, features, y, k)
        gains = _gini_gains(np.cumsum(hist, axis=1), n)
        counts = hist.sum(axis=2)
    else:
        y = np.asarray(y, dtype=np.float64)
        hist = _histograms(X, rows, features, y, None)
        gains = _variance_gains(np.cumsum(hist, axis=1), n)
        counts = hist[..., 0]
    # Gains below the noise floor collapse to exactly 0 so ties across
    # features resolve by index, not by last-ulp arithmetic noise.
    gains = np.where(np.abs(gains) < MIN_GAIN, 0.0, gains)
    per_feature = gains.max(axis=1)
    j = int(np.argmax(per_feature))
    floor = -MIN_GAIN if allow_zero_gain else MIN_GAIN
    if not per_feature[j] > floor:
        return None
    b = int(np.argmax(gains[j]))
    f = int(features[j])
    return f, X.threshold(f, b, counts[j]), max(float(gains[j, b]), 0.0)


def _is_pure(y, criterion):
    if criterion == "gini":
        return np.unique(y).shape[0] == 1
    return float(y.max() - y.min()) < 1e-15


def _leaf_prediction(y, num_classes, criterion):
    if criterion == "gini":
        counts = np.bincount(y, minlength=num_classes).astype(np.float64)
        return counts / counts.sum()
    return float(y.mean())


def grow_tree(X, y, max_depth=5, min_instances_per_node=1, max_bins=32,
              criterion="gini", num_classes=None, feature_picker=None,
              bins=None, rows=None):
    """Greedy depth-first builder shared by the tree, forest, and boosting models.

    feature_picker(n_features) -> index array lets forests draw a fresh
    random feature subset per node; None considers every feature. bins is
    X's FeatureBins, so a caller growing many trees on one matrix bins it
    once; None bins X here. rows (default all) are the training rows of X
    and may repeat, as a bootstrap sample does; y is aligned with X.

    Returns (tree, leaf): the Tree, and for each row of X the leaf node it
    reached in training, -1 for a row not among rows.
    """
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
    if rows.shape[0] == 0:
        raise DataError("cannot grow a tree from zero rows")
    if criterion == "gini":
        y = as_label_array(y, X.shape[0])
        num_classes = int(num_classes) if num_classes else int(y[rows].max()) + 1
        empty = np.zeros(num_classes)
    else:
        y = np.asarray(y, dtype=np.float64)
        empty = 0.0
    if bins is None:
        bins = FeatureBins(X, max_bins)
    nodes, right = [], []  # (feature, threshold, gain, n, value) per node; right child
    leaf = np.full(X.shape[0], -1, dtype=np.intp)
    # Nodes are numbered as they are popped; the left child is on top, so
    # numbering (and feature_picker's calls) follow depth-first preorder.
    stack = [(rows, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            right[parent] = node
        right.append(-1)
        sub_y = y[idx]
        found = None
        if depth < max_depth and idx.shape[0] >= 2 and not _is_pure(sub_y, criterion):
            subset = feature_picker(X.shape[1]) if feature_picker else None
            found = best_split(bins, sub_y, subset, max_bins, criterion,
                               num_classes, allow_zero_gain=True, rows=idx)
        if found is not None:
            f, thr, gain = found
            go_left = X[:, f][idx] <= thr
            left_idx, right_idx = idx[go_left], idx[~go_left]
            if min(left_idx.shape[0], right_idx.shape[0]) >= min_instances_per_node:
                nodes.append((f, thr, gain, idx.shape[0], empty))
                stack += [(right_idx, depth + 1, node), (left_idx, depth + 1, -1)]
                continue
        nodes.append((-1, 0.0, 0.0, idx.shape[0], _leaf_prediction(sub_y, num_classes, criterion)))
        leaf[idx] = node
    feature, threshold, gain, n_samples, value = zip(*nodes)
    return Tree(feature, threshold, gain, n_samples, right, value), leaf


def apply(tree, X):
    """The leaf node each row of the densify()-ed matrix X reaches.

    Every row moves down one level per step, tree.depth steps in all; a
    row goes left iff its value <= the node's threshold, and a row at a
    leaf stays (see Tree). At a leaf, feature -1 reads the entry before
    the row's first (X's last for row 0): in bounds, and not <= -inf.
    """
    flat = X.ravel()
    starts = np.arange(X.shape[0]) * X.shape[1]
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        go_left = flat.take(starts + tree.feature[node]) <= tree.threshold[node]
        node = np.where(go_left, node + 1, tree.right[node])
    return node


def densify(X):
    """Validate estimator input with as_feature_matrix; the result is a C-ordered ndarray."""
    X = as_feature_matrix(X)
    return X.toarray() if hasattr(X, "toarray") else np.ascontiguousarray(X)


def tree_predict_matrix(tree, X):
    """Leaf predictions for every row of a densify()-ed matrix X.

    Returns distributions (n,K) or scores (n,). Callers validate X once,
    so an ensemble does not re-scan it for every tree.
    """
    return tree.value[apply(tree, X)]


def accumulate_importances(tree, out):
    """Add (n_samples / root n_samples) * gain of each split into out[feature].

    np.add.at adds the splits one at a time in preorder, so each out[f]
    sums the same floats in the same order as a depth-first walk.
    """
    splits = np.flatnonzero(tree.feature >= 0)
    np.add.at(out, tree.feature[splits],
              tree.n_samples[splits] / tree.n_samples[0] * tree.gain[splits])
    return out


def check_tree_params(max_depth, max_bins, min_instances_per_node):
    """DataError unless max_depth >= 0, max_bins >= 2 and min_instances_per_node >= 1."""
    if not (max_depth >= 0 and max_bins >= 2 and min_instances_per_node >= 1):
        raise DataError("need max_depth >= 0, max_bins >= 2, min_instances_per_node >= 1")


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier with quantile-binned split search."""

    def __init__(self, max_depth=5, min_instances_per_node=1, max_bins=32,
                 num_classes=None):
        self.max_depth = max_depth
        self.min_instances_per_node = min_instances_per_node
        self.max_bins = max_bins
        self.num_classes = num_classes
        self.tree_ = None

    def check_params(self):
        check_tree_params(self.max_depth, self.max_bins, self.min_instances_per_node)

    def fit(self, X, y):
        X = densify(X)
        y = as_label_array(y, X.shape[0])
        self.check_params()
        k = int(self.num_classes) if self.num_classes else int(y.max()) + 1
        check_labels_in_range(y, k)
        self.num_classes_ = k
        self.dim_ = X.shape[1]
        self.tree_, _ = grow_tree(
            X, y,
            max_depth=self.max_depth,
            min_instances_per_node=self.min_instances_per_node,
            max_bins=self.max_bins,
            criterion="gini",
            num_classes=k,
        )
        return self

    def predict_proba(self, X):
        check_is_fitted(self, "tree_")
        X = densify(X)
        check_matching_dim(self.dim_, X)
        return tree_predict_matrix(self.tree_, X)

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)

    @classmethod
    def doc_spec(cls):
        return Doc({"kind": Const("dtree"), "num_classes": Count, "dim": Count,
                    "params": cls.param_spec(),
                    "root": lambda d: TreeDoc(d["dim"], d["num_classes"])},
                   attrs={"num_classes": "num_classes_", "dim": "dim_", "root": "tree_"})
