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
give both children of every candidate at once. Prediction sends rows down
a tree one node at a time (route_rows).
"""

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .errors import DataError
from .validation import as_feature_matrix, as_label_array, check_labels_in_range

# Positive-gain test allows for float noise in impurity bookkeeping.
MIN_GAIN = 1e-12


class TreeNode:
    """Internal split node or leaf; leaves hold a class distribution or score."""

    __slots__ = ("feature", "threshold", "left", "right", "gain", "n_samples", "prediction")

    def __init__(self, n_samples, feature=None, threshold=None, left=None,
                 right=None, gain=None, prediction=None):
        self.n_samples = int(n_samples)
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.gain = gain
        self.prediction = prediction

    @property
    def is_leaf(self):
        return self.feature is None

    def to_json(self):
        if self.is_leaf:
            pred = self.prediction
            if isinstance(pred, np.ndarray):
                pred = pred.tolist()
            return {"n": self.n_samples, "prediction": pred}
        return {
            "n": self.n_samples,
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "gain": float(self.gain),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        if "feature" not in doc:
            pred = doc["prediction"]
            if isinstance(pred, list):
                pred = np.asarray(pred, dtype=np.float64)
            return cls(doc["n"], prediction=pred)
        return cls(
            doc["n"],
            feature=doc["feature"],
            threshold=doc["threshold"],
            gain=doc["gain"],
            left=cls.from_json(doc["left"]),
            right=cls.from_json(doc["right"]),
        )


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
    """
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
    if rows.shape[0] == 0:
        raise DataError("cannot grow a tree from zero rows")
    if criterion == "gini":
        y = as_label_array(y, X.shape[0])
        num_classes = int(num_classes) if num_classes else int(y[rows].max()) + 1
    else:
        y = np.asarray(y, dtype=np.float64)
    if bins is None:
        bins = FeatureBins(X, max_bins)
    root = TreeNode(rows.shape[0])
    stack = [(root, rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
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
                node.feature, node.threshold, node.gain = f, thr, gain
                node.left = TreeNode(left_idx.shape[0])
                node.right = TreeNode(right_idx.shape[0])
                # Left on top: the left subtree grows first, so
                # feature_picker is called in depth-first preorder.
                stack.append((node.right, right_idx, depth + 1))
                stack.append((node.left, left_idx, depth + 1))
                continue
        node.prediction = _leaf_prediction(sub_y, num_classes, criterion)
    return root


def route_rows(root, X):
    """Send every row of the dense matrix X down the tree, one node at a time.

    Returns (leaves, slot): the tree's leaves in depth-first order, and for
    each row the index in leaves of the leaf it reaches. A row goes left
    iff its value <= the node's threshold.
    """
    leaves = []
    slot = np.empty(X.shape[0], dtype=np.intp)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            slot[rows] = len(leaves)
            leaves.append(node)
            continue
        if rows.shape[0]:
            go_left = X[:, node.feature][rows] <= node.threshold
            left, right = rows[go_left], rows[~go_left]
        else:
            # An unreached subtree still lists its leaves; skip the
            # comparisons, which are most of a small batch's cost.
            left = right = rows
        stack.append((node.right, right))
        stack.append((node.left, left))
    return leaves, slot


def predict_tree(root, x):
    """(label, class distribution) for one row of a classification tree."""
    row = np.asarray(x, dtype=np.float64)
    leaves, slot = route_rows(root, row.reshape(1, -1))
    dist = leaves[slot[0]].prediction
    return int(np.argmax(dist)), dist


def densify(X):
    """Validate estimator input with as_feature_matrix; a CSR result becomes dense."""
    X = as_feature_matrix(X)
    return X.toarray() if hasattr(X, "toarray") else X


def tree_predict_matrix(root, X):
    """Leaf predictions for every row of a densify()-ed matrix X.

    Returns distributions (n,K) or scores (n,). Callers validate X once,
    so an ensemble does not re-scan it for every tree.
    """
    leaves, slot = route_rows(root, X)
    return np.asarray([leaf.prediction for leaf in leaves])[slot]


def accumulate_importances(root, out):
    """Add (n_samples/total)*gain per split into out, indexed by feature."""
    total = root.n_samples

    def walk(node):
        if node.is_leaf:
            return
        out[node.feature] += node.n_samples / total * node.gain
        walk(node.left)
        walk(node.right)

    walk(root)
    return out


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier with quantile-binned split search."""

    def __init__(self, max_depth=5, min_instances_per_node=1, max_bins=32,
                 num_classes=None):
        self.max_depth = max_depth
        self.min_instances_per_node = min_instances_per_node
        self.max_bins = max_bins
        self.num_classes = num_classes
        self.root_ = None

    def fit(self, X, y):
        X = densify(X)
        y = as_label_array(y, X.shape[0])
        k = int(self.num_classes) if self.num_classes else int(y.max()) + 1
        check_labels_in_range(y, k)
        self.num_classes_ = k
        self.dim_ = X.shape[1]
        self.root_ = grow_tree(
            X, y,
            max_depth=self.max_depth,
            min_instances_per_node=self.min_instances_per_node,
            max_bins=self.max_bins,
            criterion="gini",
            num_classes=k,
        )
        return self

    def predict_proba(self, X):
        check_is_fitted(self, "root_")
        return tree_predict_matrix(self.root_, densify(X))

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)

    def predict_one(self, x):
        check_is_fitted(self, "root_")
        return predict_tree(self.root_, x)

    def tree_roots(self):
        check_is_fitted(self, "root_")
        return [self.root_]

    def feature_importances(self):
        check_is_fitted(self, "root_")
        return accumulate_importances(self.root_, np.zeros(self.dim_))

    def to_json(self):
        check_is_fitted(self, "root_")
        return {
            "kind": "dtree",
            "num_classes": self.num_classes_,
            "dim": self.dim_,
            "params": self.get_params(),
            "root": self.root_.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        model = cls(**doc["params"])
        model.num_classes_ = doc["num_classes"]
        model.dim_ = doc["dim"]
        model.root_ = TreeNode.from_json(doc["root"])
        return model
