import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bookml import DataError, LinearSVC, LogisticRegressionClassifier, logistic_objective
from bookml import linear
from bookml.linear import hinge_objective, softmax

from conftest import make_blobs


def finite_difference_gradient(weights, intercepts, X, y, l2, eps=1e-6):
    """Central differences on the logistic loss, coordinate by coordinate."""
    gw = np.zeros_like(weights)
    gb = np.zeros_like(intercepts)
    for idx in np.ndindex(weights.shape):
        w_plus, w_minus = weights.copy(), weights.copy()
        w_plus[idx] += eps
        w_minus[idx] -= eps
        lp = logistic_objective(w_plus, intercepts, X, y, l2)[0]
        lm = logistic_objective(w_minus, intercepts, X, y, l2)[0]
        gw[idx] = (lp - lm) / (2 * eps)
    for i in range(intercepts.shape[0]):
        b_plus, b_minus = intercepts.copy(), intercepts.copy()
        b_plus[i] += eps
        b_minus[i] -= eps
        lp = logistic_objective(weights, b_plus, X, y, l2)[0]
        lm = logistic_objective(weights, b_minus, X, y, l2)[0]
        gb[i] = (lp - lm) / (2 * eps)
    return gw, gb


SEPARABLE_X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
SEPARABLE_Y = np.array([0] * 10 + [1] * 10)


class TestLogisticObjective:
    def test_zero_model_two_classes(self):
        loss, _, _ = logistic_objective(
            np.zeros((2, 3)), np.zeros(2), np.ones((4, 3)), np.array([0, 0, 1, 1]), 0.0
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_model_three_classes(self):
        loss, _, _ = logistic_objective(
            np.zeros((3, 2)), np.zeros(3), np.ones((6, 2)), np.array([0, 1, 2] * 2), 0.0
        )
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            k, d, n = 3, 4, 10
            W = rng.normal(0, 0.5, (k, d))
            b = rng.normal(0, 0.5, k)
            X = rng.normal(0, 1, (n, d))
            y = rng.integers(0, k, n)
            if np.unique(y).shape[0] < 2:
                continue
            _, gw, gb = logistic_objective(W, b, X, y, 0.05)
            fw, fb = finite_difference_gradient(W, b, X, y, 0.05)
            assert np.abs(gw - fw).max() / max(np.abs(fw).max(), 1e-8) < 1e-5
            assert np.abs(gb - fb).max() / max(np.abs(fb).max(), 1e-8) < 1e-5

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            logistic_objective(np.zeros((2, 1)), np.zeros(2), np.ones((1, 1)), [5], 0.0)


class TestLogisticTraining:
    def test_separable_reaches_perfect_accuracy(self):
        m = LogisticRegressionClassifier(l2_reg=0.01, max_iters=300).fit(
            SEPARABLE_X, SEPARABLE_Y
        )
        assert (m.predict(SEPARABLE_X) == SEPARABLE_Y).mean() == 1.0

    def test_three_blobs(self, rng):
        X, y = make_blobs(rng, [0.0, 5.0, 10.0], 60)
        m = LogisticRegressionClassifier(num_classes=3, max_iters=300).fit(X, y)
        assert (m.predict(X) == y).mean() >= 0.99

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            LogisticRegressionClassifier().fit(np.ones((3, 1)), np.zeros(3, dtype=int))

    def test_objective_trace_non_increasing(self, rng):
        X = rng.normal(0, 1, (60, 4))
        y = rng.integers(0, 3, 60)
        m = LogisticRegressionClassifier(num_classes=3, max_iters=120).fit(X, y)
        diffs = np.diff(m.loss_trace_)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self, rng):
        X = rng.normal(0, 1, (40, 3))
        y = rng.integers(0, 2, 40)
        a = LogisticRegressionClassifier(max_iters=50).fit(X, y)
        b = LogisticRegressionClassifier(max_iters=50).fit(X, y)
        np.testing.assert_array_equal(a.weights_, b.weights_)
        np.testing.assert_array_equal(a.intercepts_, b.intercepts_)


class TestLogisticPrediction:
    def test_zero_model_tie_goes_low(self):
        m = LogisticRegressionClassifier(num_classes=2, max_iters=1)
        m.fit(SEPARABLE_X, SEPARABLE_Y)
        m.weights_ = np.zeros_like(m.weights_)
        m.intercepts_ = np.zeros_like(m.intercepts_)
        row = np.array([[3.0]])
        label, probs = m.predict(row)[0], m.predict_proba(row)[0]
        assert label == 0
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_large_margin_probability(self):
        m = LogisticRegressionClassifier(num_classes=2, max_iters=1).fit(
            SEPARABLE_X, SEPARABLE_Y
        )
        m.weights_ = np.array([[0.0], [10.0]])
        m.intercepts_ = np.zeros(2)
        row = np.array([[1.0]])
        label, probs = m.predict(row)[0], m.predict_proba(row)[0]
        assert label == 1
        assert probs[1] > 0.9999

    def test_probabilities_valid_on_random_models(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            scores = rng.normal(0, 5, (3, k))
            probs = softmax(scores)
            assert np.all(probs >= 0) and np.all(probs <= 1)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self, rng):
        scores = rng.normal(0, 2, (5, 4))
        np.testing.assert_allclose(softmax(scores), softmax(scores + 7.5), atol=1e-12)

    def test_binary_softmax_agrees_with_sigmoid(self, rng):
        W = rng.normal(0, 1, (2, 3))
        b = rng.normal(0, 1, 2)
        X = rng.normal(0, 1, (200, 3))
        scores = X @ W.T + b
        softmax_labels = np.argmax(softmax(scores), axis=1)
        sigmoid_p1 = 1.0 / (1.0 + np.exp(-((W[1] - W[0]) @ X.T + (b[1] - b[0]))))
        sigmoid_labels = (sigmoid_p1 > 0.5).astype(int)
        np.testing.assert_array_equal(softmax_labels, sigmoid_labels)


class TestLinearSVC:
    def test_separable(self):
        m = LinearSVC(l2_reg=0.01, max_iters=500).fit(SEPARABLE_X, SEPARABLE_Y)
        assert (m.predict(SEPARABLE_X) == SEPARABLE_Y).mean() == 1.0
        hinge, _ = hinge_objective(
            m.weights_[0], m.intercepts_[0], SEPARABLE_X,
            np.where(SEPARABLE_Y == 1, 1.0, -1.0), 0.0,
        )
        assert hinge < 0.1

    def test_best_iterate_never_worse_than_zero_model(self, rng):
        X = rng.normal(0, 1, (50, 4))
        y = rng.integers(0, 2, 50)
        m = LinearSVC(max_iters=40).fit(X, y)
        assert m.final_objective_ <= 1.0

    def test_constant_features_predict_majority(self):
        X = np.ones((10, 1))
        y = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        m = LinearSVC(max_iters=300, step_size=0.5).fit(X, y)
        assert np.all(m.predict(X) == 0)
        # brute-force over a (w, b) grid: the objective can never drop below
        # the minority share on constant inputs
        grid = np.linspace(-3, 3, 61)
        ysign = np.where(y == 1, 1.0, -1.0)
        best = min(
            hinge_objective(np.array([w]), b, X, ysign, 0.0)[0]
            for w in grid
            for b in grid
        )
        assert best >= 0.3 - 1e-9
        assert m.final_objective_ >= 0.3 - 1e-9

    def test_zero_margin_label_is_zero(self):
        m = LinearSVC(max_iters=1).fit(SEPARABLE_X, SEPARABLE_Y)
        m.weights_ = np.zeros_like(m.weights_)
        m.intercepts_ = np.zeros_like(m.intercepts_)
        row = np.array([[2.0]])
        label, margin = m.predict(row)[0], m.decision_function(row)[0]
        assert (label, margin) == (0, 0.0)

    def test_margin_arithmetic(self):
        m = LinearSVC(max_iters=1).fit(SEPARABLE_X, SEPARABLE_Y)
        m.weights_ = np.array([[1.0]])
        m.intercepts_ = np.array([0.0])
        row = np.array([[2.0]])
        label, margin = m.predict(row)[0], m.decision_function(row)[0]
        assert (label, margin) == (1, 2.0)

    def test_decision_invariant_under_positive_scaling(self, rng):
        m = LinearSVC(max_iters=60).fit(
            rng.normal(0, 1, (30, 3)), rng.integers(0, 2, 30)
        )
        X = rng.normal(0, 1, (20, 3))
        before = m.predict(X)
        m.weights_ = m.weights_ * 13.0
        m.intercepts_ = m.intercepts_ * 13.0
        np.testing.assert_array_equal(before, m.predict(X))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            LinearSVC().fit(np.ones((3, 1)), np.ones(3, dtype=int))


# Reference implementations: the row-major logistic objective (scores as an
# n x k array, separate log-softmax and softmax passes) and the SVC loop
# that transposed X on every iteration, as the library had them before the
# class-major layout. The library must reproduce them bit for bit.


def row_major_objective(weights, intercepts, X, y, l2_reg):
    n = X.shape[0]
    scores = np.asarray(X @ weights.T) + intercepts
    z = scores - scores.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), y].mean() + 0.5 * l2_reg * float((weights**2).sum())
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    resid = e / e.sum(axis=1, keepdims=True)
    resid[np.arange(n), y] -= 1.0
    resid /= n
    grad_w = np.asarray((X.T @ resid).T) + l2_reg * weights
    grad_b = resid.sum(axis=0)
    return loss, grad_w, grad_b


def reference_svc_fit(X, y, l2_reg, step_size=1.0, max_iters=200, tol=1e-9):
    """(weights, intercept, objective trace) of the per-iteration-transpose loop."""
    n, d = X.shape
    ysign = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(d)
    b = 0.0
    obj, margins = hinge_objective(w, b, X, ysign, l2_reg)
    best_obj, best_w, best_b = obj, w.copy(), b
    trace = [obj]
    for t in range(1, max_iters + 1):
        viol = margins < 1.0
        if viol.any():
            coef = np.where(viol, ysign, 0.0) / n
            grad_w = l2_reg * w - np.asarray(X.T @ coef).ravel()
            grad_b = -float(coef.sum())
        else:
            grad_w = l2_reg * w
            grad_b = 0.0
        if float(np.sqrt(grad_w @ grad_w + grad_b**2)) < tol:
            break
        eta = step_size / np.sqrt(t)
        w = w - eta * grad_w
        b = b - eta * grad_b
        obj, margins = hinge_objective(w, b, X, ysign, l2_reg)
        trace.append(obj)
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
    return best_w, best_b, np.asarray(trace)


def objective_case(k, n, d, seed, ties, scale, sparse):
    """Weights, intercepts, features and labels for one objective evaluation.

    About a quarter of the rows are all zeros, so their scores are the
    intercepts alone. ties "pair" gives classes 0 and 1 equal scores on
    every row; "all" zeroes the intercepts, so every class ties on the zero
    rows. scale sets the score magnitude (30 underflows some exps).
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
    X[rng.random(n) < 0.25] = 0.0
    W = rng.normal(size=(k, d)) * scale
    b = rng.normal(size=k) * scale
    if ties == "pair":
        W[1], b[1] = W[0], b[0]
    elif ties == "all":
        b[:] = 0.0
    y = rng.integers(0, k, n)
    return W, b, sp.csr_matrix(X) if sparse else X, y


CASES = dict(n=st.integers(1, 300), d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
             ties=st.sampled_from(["none", "pair", "all"]), scale=st.sampled_from([0.1, 1.0, 30.0]),
             sparse=st.booleans())


class TestClassMajorObjective:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 7), **CASES)
    def test_bit_identical_to_row_major_up_to_7_classes(self, k, n, d, seed, ties, scale,
                                                         sparse):
        W, b, X, y = objective_case(k, n, d, seed, ties, scale, sparse)
        loss, gw, gb = logistic_objective(W, b, X, y, 0.01)
        ref_loss, ref_gw, ref_gb = row_major_objective(W, b, X, y, 0.01)
        assert loss == ref_loss
        assert np.array_equal(gw, ref_gw)
        assert np.array_equal(gb, ref_gb)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(8, 12), **CASES)
    def test_within_1e12_of_row_major_from_8_classes(self, k, n, d, seed, ties, scale,
                                                      sparse):
        # numpy sums an n x k row pairwise from 8 wide, the class-major
        # layout adds the classes in order: only the last bits may differ.
        W, b, X, y = objective_case(k, n, d, seed, ties, scale, sparse)
        got = logistic_objective(W, b, X, y, 0.01)
        ref = row_major_objective(W, b, X, y, 0.01)
        for a, r in zip(got, ref):
            assert np.abs(a - r).max() <= 1e-12 * max(np.abs(r).max(), 1e-300)


def fit_case(k, sparse, seed=7, n=500, d=30):
    """A sparse nonnegative matrix with labels from a noisy linear rule."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) * (rng.random((n, d)) < 0.25)
    y = np.argmax(X @ rng.normal(size=(d, k)) + rng.normal(scale=0.5, size=(n, k)), axis=1)
    return (sp.csr_matrix(X) if sparse else X), y


class TestFitsMatchReference:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    def test_logistic_fit(self, monkeypatch, k, sparse):
        X, y = fit_case(k, sparse)

        def fit():
            return LogisticRegressionClassifier(num_classes=k, l2_reg=0.01,
                                                max_iters=150).fit(X, y)

        model = fit()
        monkeypatch.setattr(linear, "logistic_objective", row_major_objective)
        ref = fit()
        assert model.n_iters_ == ref.n_iters_ > 0
        assert np.array_equal(model.weights_, ref.weights_)
        assert np.array_equal(model.intercepts_, ref.intercepts_)
        assert np.array_equal(model.loss_trace_, ref.loss_trace_)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("l2_reg", [0.0, 0.01, 0.1])
    def test_svc_fit(self, l2_reg, sparse):
        X, y = fit_case(2, sparse)
        model = LinearSVC(l2_reg=l2_reg).fit(X, y)
        w, b, trace = reference_svc_fit(X, y, l2_reg)
        assert np.array_equal(model.weights_[0], w)
        assert np.array_equal(model.intercepts_, [b])
        assert np.array_equal(model.objective_trace_, trace)
