import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bookml import DataError, DecisionTreeClassifier, best_split, gini
from bookml import tree
from bookml.ensemble import GradientBoostedTreesClassifier
from bookml.tree import (
    MIN_GAIN,
    FeatureBins,
    Tree,
    apply,
    candidate_thresholds,
    grow_tree,
    tree_predict_matrix,
)


def exhaustive_best_split(X, y, max_bins=32):
    """Independent oracle: direct gini over every adjacent-distinct midpoint."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    k = int(y.max()) + 1

    def impurity(labels):
        counts = np.bincount(labels, minlength=k)
        p = counts / counts.sum()
        return 1.0 - float((p**2).sum())

    best = None
    for f in range(d):
        distinct = np.unique(X[:, f])
        assert distinct.shape[0] <= max_bins
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            thr = (lo + hi) / 2.0
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            gain = (
                impurity(y)
                - left.shape[0] / n * impurity(left)
                - right.shape[0] / n * impurity(right)
            )
            if gain > MIN_GAIN and (best is None or gain > best[2] + 1e-12):
                best = (f, thr, gain)
    return best


def walk(tree, row):
    """Per-row reference router: follow one row from the root to its leaf node."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = node + 1 if go_left else tree.right[node]
    return node


def route(tree, row):
    """Leaf node that one row reaches through the level-at-a-time router."""
    return apply(tree, np.asarray(row, dtype=float).reshape(1, -1))[0]


def label(tree, row):
    """Class of the leaf distribution one row reaches."""
    return int(np.argmax(tree.value[route(tree, row)]))


def is_leaf(tree, node):
    return tree.feature[node] < 0


def stump():
    """Hand-built split of feature 0 at 0.5: class 0 left (node 1), class 1 right (node 2)."""
    return Tree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], gain=[0.5, 0.0, 0.0],
                n_samples=[2, 1, 1], right=[2, -1, -1],
                value=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# Reference: the per-node split search that re-sorts each feature at every
# node, kept verbatim as the oracle for the histogram search.


def _oracle_gains_gini(values, y, num_classes, thresholds):
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y[order]
    n = sv.shape[0]
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), sy] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]
    parent = 1.0 - ((total / n) ** 2).sum()
    pos = np.searchsorted(sv, thresholds, side="right")
    valid = (pos >= 1) & (pos <= n - 1)
    pos = np.clip(pos, 1, n - 1)
    left = cum[pos - 1]
    right = total - left
    nl = pos.astype(np.float64)
    nr = n - nl
    gini_l = 1.0 - (left**2).sum(axis=1) / nl**2
    gini_r = 1.0 - (right**2).sum(axis=1) / nr**2
    gains = parent - (nl / n) * gini_l - (nr / n) * gini_r
    return np.where(valid, gains, -np.inf)


def _oracle_gains_variance(values, y, thresholds):
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y[order]
    n = sv.shape[0]
    cum = np.cumsum(sy)
    cum2 = np.cumsum(sy**2)
    parent = cum2[-1] / n - (cum[-1] / n) ** 2
    pos = np.searchsorted(sv, thresholds, side="right")
    valid = (pos >= 1) & (pos <= n - 1)
    pos = np.clip(pos, 1, n - 1)
    nl = pos.astype(np.float64)
    nr = n - nl
    sl, sl2 = cum[pos - 1], cum2[pos - 1]
    sr, sr2 = cum[-1] - sl, cum2[-1] - sl2
    var_l = sl2 / nl - (sl / nl) ** 2
    var_r = sr2 / nr - (sr / nr) ** 2
    gains = parent - (nl / n) * var_l - (nr / n) * var_r
    return np.where(valid, gains, -np.inf)


def per_node_best_split(X, y, feature_subset=None, max_bins=32, criterion="gini",
                        num_classes=None, allow_zero_gain=False):
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        return None
    if feature_subset is None:
        feature_subset = np.arange(X.shape[1])
    features = np.sort(np.asarray(feature_subset, dtype=np.int64))
    if criterion == "gini":
        y = np.asarray(y, dtype=np.int64)
        k = int(num_classes) if num_classes else int(y.max()) + 1
    else:
        y = np.asarray(y, dtype=np.float64)
    best = None
    for f in features:
        values = X[:, f]
        thresholds = candidate_thresholds(values, max_bins)
        if thresholds.shape[0] == 0:
            continue
        if criterion == "gini":
            gains = _oracle_gains_gini(values, y, k, thresholds)
        else:
            gains = _oracle_gains_variance(values, y, thresholds)
        gains = np.where(np.abs(gains) < MIN_GAIN, 0.0, gains)
        i = int(np.argmax(gains))
        floor = -MIN_GAIN if allow_zero_gain else MIN_GAIN
        if gains[i] > floor and (best is None or gains[i] > best[2]):
            best = (int(f), float(thresholds[i]), max(float(gains[i]), 0.0))
    return best


class TestGini:
    def test_pure(self):
        assert gini([3, 0]) == 0.0

    def test_even_binary(self):
        assert gini([1, 1]) == 0.5

    def test_four_even_classes(self):
        assert gini([1, 1, 1, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            gini([])


class TestCandidateThresholds:
    def test_all_midpoints_when_few_distinct(self):
        np.testing.assert_allclose(
            candidate_thresholds(np.array([0.0, 1.0, 3.0]), 32), [0.5, 2.0]
        )

    def test_constant_feature_no_candidates(self):
        assert candidate_thresholds(np.array([2.0, 2.0]), 32).shape[0] == 0

    def test_binned_when_many_distinct(self):
        values = np.arange(100, dtype=float)
        cand = candidate_thresholds(values, 4)
        assert cand.shape[0] == 3
        np.testing.assert_allclose(cand, [24.5, 49.5, 74.5])


class TestBestSplit:
    def test_two_point_split(self):
        found = best_split(np.array([[0.0], [1.0]]), np.array([0, 1]))
        assert found is not None
        f, thr, gain = found
        assert f == 0
        assert 0.0 < thr < 1.0
        assert gain == pytest.approx(0.5)

    def test_constant_labels_give_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        assert best_split(X, np.array([1, 1, 1])) is None

    def test_identical_features_tie_to_lower_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        f, thr, gain = best_split(X, y)
        assert f == 0

    def test_equal_gains_tie_to_lower_threshold(self):
        # Splitting off either end row gives the same gain.
        X = np.array([[0.0], [1.0], [2.0]])
        assert best_split(X, np.array([1, 0, 1]))[1] == 0.5
        assert best_split(X, np.array([0.0, 1.0, 0.0]), criterion="variance")[1] == 0.5

    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(50):
            n = int(rng.integers(4, 64))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 6, (n, d)).astype(float)
            y = rng.integers(0, 3, n)
            got = best_split(X, y, max_bins=32)
            want = exhaustive_best_split(X, y)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert got[2] == pytest.approx(want[2], abs=1e-12)
            # the chosen split achieves the oracle's maximum gain
            assert (got[0], got[1]) == (want[0], want[1]) or abs(got[2] - want[2]) < 1e-12


class TestGrowAndPredict:
    def test_two_point_tree(self):
        tree, _ = grow_tree(np.array([[0.0], [1.0]]), np.array([0, 1]), max_depth=3)
        assert not is_leaf(tree, 0)
        assert label(tree, [0.0]) == 0
        assert label(tree, [1.0]) == 1

    def test_depth_zero_majority_leaf(self):
        tree, _ = grow_tree(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 0]), max_depth=0)
        assert is_leaf(tree, 0)
        assert label(tree, [5.0]) == 1

    def test_xor_at_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 25, dtype=float)
        y = np.array([0, 1, 1, 0] * 25)
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_boundary_value_goes_left(self):
        assert apply(stump(), np.array([[0.5], [0.5000001]])).tolist() == [1, 2]

    def test_single_leaf_distribution(self):
        tree = Tree(feature=[-1], threshold=[0.0], gain=[0.0], n_samples=[10], right=[-1],
                    value=[[0.7, 0.3]])
        assert label(tree, [1.0]) == 0
        np.testing.assert_allclose(tree_predict_matrix(tree, np.array([[1.0]]))[0], [0.7, 0.3])

    def test_routing_agrees_with_predicate_oracle(self, rng):
        X = rng.normal(0, 1, (80, 3))
        y = rng.integers(0, 2, 80)
        tree, _ = grow_tree(X, y, max_depth=4)

        def leaves_with_predicates(node, preds):
            if is_leaf(tree, node):
                yield node, list(preds)
                return
            f, thr = tree.feature[node], tree.threshold[node]
            yield from leaves_with_predicates(node + 1, preds + [(f, thr, True)])
            yield from leaves_with_predicates(tree.right[node], preds + [(f, thr, False)])

        enumerated = list(leaves_with_predicates(0, []))
        probes = rng.normal(0, 1, (100, 3))
        for row, routed in zip(probes, apply(tree, probes)):
            matching = [
                leaf
                for leaf, preds in enumerated
                if all(
                    (row[f] <= thr) == le for f, thr, le in preds
                )
            ]
            assert matching == [routed]

    def test_children_counts_sum_to_parent(self, rng):
        X = rng.normal(0, 1, (200, 4))
        y = rng.integers(0, 3, 200)
        tree, _ = grow_tree(X, y, max_depth=5)
        splits = np.flatnonzero(tree.feature >= 0)
        assert splits.shape[0] > 0
        for node in splits:
            n = tree.n_samples
            assert n[node + 1] + n[tree.right[node]] == n[node]

    def test_prediction_piecewise_constant_within_cells(self, rng):
        X = rng.normal(0, 1, (150, 2))
        y = rng.integers(0, 2, 150)
        tree, _ = grow_tree(X, y, max_depth=4)
        for _ in range(50):
            row = rng.normal(0, 1, 2)
            leaf = route(tree, row)
            # wiggle each feature without crossing any ancestor threshold
            node, lo, hi = 0, np.full(2, -np.inf), np.full(2, np.inf)
            while not is_leaf(tree, node):
                f, thr = tree.feature[node], tree.threshold[node]
                if row[f] <= thr:
                    hi[f] = min(hi[f], thr)
                    node = node + 1
                else:
                    lo[f] = max(lo[f], thr)
                    node = tree.right[node]
            for f in range(2):
                wiggled = row.copy()
                span_lo = max(lo[f], row[f] - 0.1)
                span_hi = min(hi[f], row[f] + 0.1)
                wiggled[f] = rng.uniform(span_lo, min(span_hi, np.nextafter(hi[f], -np.inf)))
                assert route(tree, wiggled) == leaf

    def test_grow_tree_releases_its_inputs(self, rng):
        # No reference cycle may keep the training matrix alive after the
        # builder returns: with the cyclic collector off, it must be freed
        # as soon as the caller drops it.
        X = rng.normal(0, 1, (120, 3))
        y = rng.integers(0, 2, 120)
        ref = weakref.ref(X)
        gc.disable()
        try:
            tree, _ = grow_tree(X, y, max_depth=4)
            del X
            assert ref() is None
        finally:
            gc.enable()
        assert not is_leaf(tree, 0)

    def test_json_roundtrip(self, rng):
        X = rng.normal(0, 1, (60, 3))
        y = rng.integers(0, 3, 60)
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        clone = DecisionTreeClassifier.from_json(model.to_json())
        probe = rng.normal(0, 1, (40, 3))
        np.testing.assert_array_equal(model.predict(probe), clone.predict(probe))


def grid_matrix(draw, n, d, max_bins):
    """n x d values on a 1/8 grid, at most max_bins distinct per column.

    Midpoints of grid values are exact, so the oracle's midpoint rule and
    the binned search name the same thresholds.
    """
    columns = []
    for _ in range(d):
        pool = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=max_bins, unique=True))
        picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        columns.append(np.asarray(picks, dtype=np.float64) / 8.0)
    return np.column_stack(columns)


class TestHistogramSearch:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_node_search(self, data):
        draw = data.draw
        n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
        max_bins = draw(st.sampled_from([2, 4, 32]))
        X = grid_matrix(draw, n, d, max_bins)
        criterion = draw(st.sampled_from(["gini", "variance"]))
        if criterion == "gini":
            k = draw(st.integers(2, 4))
            y = np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        else:
            k = None
            y = np.asarray(draw(st.lists(
                st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
        # A node: some rows of the fit, repeats allowed (a bootstrap), in any order.
        rows = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        subset = draw(st.none() | st.lists(st.integers(0, d - 1), min_size=1, unique=True))
        allow_zero = draw(st.booleans())
        bins = FeatureBins(X, max_bins)
        got = best_split(bins, y[rows], subset, max_bins, criterion, k,
                         allow_zero_gain=allow_zero, rows=rows)
        want = per_node_best_split(X[rows], y[rows], subset, max_bins, criterion, k,
                                   allow_zero_gain=allow_zero)
        if criterion == "gini":
            assert got == want
        elif want is None:
            assert got is None
        else:
            assert got is not None
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-12)

    def test_blocked_histograms_give_the_same_split(self, rng, monkeypatch):
        X = rng.integers(0, 9, (60, 5)).astype(float)
        for criterion, y in (("gini", rng.integers(0, 3, 60)),
                             ("variance", rng.normal(0, 1, 60))):
            whole = best_split(X, y, criterion=criterion)
            # One feature per bincount block.
            monkeypatch.setattr(tree, "HISTOGRAM_BLOCK", 100)
            assert best_split(X, y, criterion=criterion) == whole
            monkeypatch.undo()

    def test_codes_are_compact(self, rng):
        X = rng.normal(0, 1, (500, 3))
        X[:, 1] = rng.integers(0, 5, 500)
        bins = FeatureBins(X, 32)
        assert bins.codes.dtype == np.uint8
        assert bins.codes.shape == (3, 500)
        assert bins.values[1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        np.testing.assert_array_equal(bins.cuts[0], candidate_thresholds(X[:, 0], 32))
        assert FeatureBins(X, 300).codes.dtype == np.uint16

    def test_cut_codes_follow_the_threshold_rule(self, rng):
        X = rng.normal(0, 1, (400, 1))
        bins = FeatureBins(X, 8)
        for c, cut in enumerate(bins.cuts[0]):
            np.testing.assert_array_equal(bins.codes[0] <= c, X[:, 0] <= cut)

    def test_adjacent_float_values_split_apart(self):
        # The midpoint of two adjacent floats can round up to the larger
        # one; the threshold must still send the larger value right.
        lo = 1.0 + 2.0**-52
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        X = np.array([[lo], [hi], [lo], [hi]])
        y = np.array([0, 1, 0, 1])
        tree, _ = grow_tree(X, y, max_depth=1)
        assert not is_leaf(tree, 0) and lo <= tree.threshold[0] < hi
        assert DecisionTreeClassifier(max_depth=1).fit(X, y).predict(X).tolist() == [0, 1, 0, 1]


class TestRouteRows:
    def test_matches_per_row_walk_including_threshold_ties(self, rng):
        X = rng.integers(0, 6, (200, 3)).astype(float)
        y = rng.integers(0, 3, 200)
        tree, _ = grow_tree(X, y, max_depth=5)
        splits = np.flatnonzero(tree.feature >= 0)
        probes = rng.uniform(-1, 6, (300, 3))
        # Rows sitting exactly on a threshold must go left.
        for i, node in enumerate(splits):
            probes[i, tree.feature[node]] = tree.threshold[node]
        for row, node in zip(probes, apply(tree, probes)):
            assert node == walk(tree, row)

    def test_unreached_leaves_and_empty_input(self):
        assert apply(stump(), np.array([[0.0], [0.2]])).tolist() == [1, 1]
        assert tree_predict_matrix(stump(), np.array([[0.0], [0.2]])).tolist() == [[1.0, 0.0]] * 2
        assert apply(stump(), np.empty((0, 1))).shape == (0,)

    def test_grower_leaves_match_routing(self, rng):
        # The grower's leaf for each training row is where routing sends it;
        # a row left out of a bootstrap sample gets -1.
        X = rng.integers(0, 6, (120, 3)).astype(float)
        y = rng.integers(0, 3, 120)
        rows = rng.integers(0, 120, 120)
        tree, leaf = grow_tree(X, y, max_depth=4, rows=rows)
        drawn = np.zeros(120, dtype=bool)
        drawn[rows] = True
        np.testing.assert_array_equal(leaf[drawn], apply(tree, X)[drawn])
        assert np.all(leaf[~drawn] == -1)
        assert np.all(tree.feature[leaf[drawn]] < 0)


def test_gbt_leaf_values_match_per_row_reference(rng):
    X = rng.normal(0, 1, (150, 3))
    y = (X[:, 0] + 0.5 * rng.normal(0, 1, 150) > 0).astype(int)
    model = GradientBoostedTreesClassifier(num_iters=6, max_depth=3).fit(X, y)
    yf = y.astype(float)
    scores = np.full(X.shape[0], model.initial_score_)
    for tree in model.trees_:
        prob = 1.0 / (1.0 + np.exp(-scores))
        resid = yf - prob
        reached = [walk(tree, X[i]) for i in range(X.shape[0])]
        num, den = {}, {}
        for leaf, r, q in zip(reached, resid, prob):
            num[leaf] = num.get(leaf, 0.0) + r
            den[leaf] = den.get(leaf, 0.0) + q * (1.0 - q)
        for leaf in np.flatnonzero(tree.feature < 0):
            want = num[leaf] / den[leaf] if leaf in den and den[leaf] > 1e-12 else 0.0
            assert tree.value[leaf] == want
        scores = scores + model.learning_rate * tree.value[reached]
    np.testing.assert_array_equal(model.decision_function(X), scores)
