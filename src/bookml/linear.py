"""Linear classifiers trained by deterministic first-order optimization.

Multinomial logistic regression minimizes mean softmax cross-entropy plus
an L2 penalty on the weights (never the intercepts) by full-batch gradient
descent with backtracking step halving. The linear SVC minimizes mean hinge
loss plus the same penalty by subgradient descent on a step/sqrt(t)
schedule, returning the best iterate visited. Both accept dense or CSR
feature matrices and are bitwise deterministic for fixed inputs.

The logistic objective holds its scores class-major (a C-ordered k x n
array), so one max, one exp and one sum over the classes serve both the
loss and the residual. For k <= 7 classes its loss and gradients are bit
for bit those of the row-major n x k form; from k = 8 numpy sums a row of
the n x k form pairwise, and the last bit can differ. The SVC builds the
CSR transpose of a sparse X once per fit.
"""

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .errors import DataError, NumericError
from .persist import finite_array, is_count, is_finite_number, is_int, model_from_doc
from .validation import (
    as_feature_matrix,
    as_label_array,
    check_labels_in_range,
    check_matching_dim,
    row_scores,
)

MODEL_FORMAT_VERSION = 1


def softmax(scores):
    """Row-wise softmax, invariant to per-row score shifts."""
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_objective(weights, intercepts, X, y, l2_reg):
    """Mean negative log-likelihood plus (l2/2)*||W||^2, with its gradient.

    Returns (loss, grad_weights, grad_intercepts); the gradient is the
    exact analytic gradient of the returned loss. Intercepts carry no
    penalty.
    """
    X = as_feature_matrix(X)
    y = as_label_array(y, X.shape[0])
    n, k = X.shape[0], weights.shape[0]
    check_labels_in_range(y, k)
    check_matching_dim(weights.shape[1], X)
    # Class-major: z[c, i] is row i's score for class c less the row's
    # largest score, so each reduction over the classes adds whole rows.
    z = np.ascontiguousarray((X @ weights.T).T)
    z += intercepts[:, None]
    z -= z.max(axis=0)
    resid = np.exp(z)
    total = resid.sum(axis=0)
    rows = np.arange(n)
    loss = -(z[y, rows] - np.log(total)).mean() + 0.5 * l2_reg * float((weights**2).sum())
    resid /= total
    resid[y, rows] -= 1.0
    resid /= n
    # Back to row-major for the products, so grad_b adds the rows in order.
    resid = np.ascontiguousarray(resid.T)
    grad_w = np.asarray((X.T @ resid).T) + l2_reg * weights
    grad_b = resid.sum(axis=0)
    return loss, grad_w, grad_b


class LogisticRegressionClassifier(BaseEstimator):
    """Softmax regression for K >= 2 classes.

    Training is full-batch gradient descent; a trial step is halved until
    it satisfies a sufficient-decrease test, so the recorded objective
    trace is strictly non-increasing. Stops when the gradient norm falls
    below tol or max_iters is reached.
    """

    def __init__(self, num_classes=None, l2_reg=0.0, step_size=1.0,
                 max_iters=100, tol=1e-6, seed=0):
        self.num_classes = num_classes
        self.l2_reg = l2_reg
        self.step_size = step_size
        self.max_iters = max_iters
        self.tol = tol
        self.seed = seed
        self.weights_ = None

    def check_params(self):
        if self.max_iters < 1 or self.step_size <= 0 or self.tol <= 0 or self.l2_reg < 0:
            raise DataError("invalid training configuration")

    def fit(self, X, y):
        X = as_feature_matrix(X)
        y = as_label_array(y, X.shape[0])
        if X.shape[0] == 0:
            raise DataError("cannot fit on zero rows")
        self.check_params()
        k = int(self.num_classes) if self.num_classes else int(y.max()) + 1
        if k < 2:
            raise DataError("need at least 2 classes")
        check_labels_in_range(y, k)
        if np.unique(y).shape[0] < 2:
            raise DataError("training labels contain a single class")
        d = X.shape[1]
        w = np.zeros((k, d))
        b = np.zeros(k)
        loss, gw, gb = logistic_objective(w, b, X, y, self.l2_reg)
        if not np.isfinite(loss):
            raise NumericError("non-finite initial objective")
        trace = [loss]
        step = float(self.step_size)
        iters = 0
        for _ in range(self.max_iters):
            gnorm = float(np.sqrt((gw**2).sum() + (gb**2).sum()))
            if gnorm < self.tol:
                break
            trial = min(step * 2.0, float(self.step_size))
            accepted = False
            while trial > 1e-18:
                w2 = w - trial * gw
                b2 = b - trial * gb
                loss2, gw2, gb2 = logistic_objective(w2, b2, X, y, self.l2_reg)
                if np.isfinite(loss2) and loss2 <= loss - 1e-4 * trial * gnorm**2:
                    w, b, loss, gw, gb = w2, b2, loss2, gw2, gb2
                    step = trial
                    accepted = True
                    break
                trial *= 0.5
            if not accepted:
                break
            trace.append(loss)
            iters += 1
        self.num_classes_ = k
        self.dim_ = d
        self.weights_ = w
        self.intercepts_ = b
        self.loss_trace_ = np.asarray(trace)
        self.n_iters_ = iters
        self.final_objective_ = loss
        return self

    def decision_function(self, X):
        check_is_fitted(self, "weights_")
        X = as_feature_matrix(X)
        check_matching_dim(self.dim_, X)
        return row_scores(X, self.weights_, self.intercepts_)

    def predict_proba(self, X):
        return softmax(self.decision_function(X))

    def predict(self, X):
        return np.argmax(self.decision_function(X), axis=1)

    def to_json(self):
        check_is_fitted(self, "weights_")
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "logistic",
            "num_classes": self.num_classes_,
            "dim": self.dim_,
            "weights": self.weights_.tolist(),
            "intercepts": self.intercepts_.tolist(),
            "params": self.get_params(),
            "training": {
                "iterations": self.n_iters_,
                "final_objective": self.final_objective_,
            },
        }

    @classmethod
    def from_json(cls, doc):
        model = linear_from_json(cls, doc)
        model.loss_trace_ = None
        return model


def hinge_objective(w, b, X, ysign, l2_reg):
    """Mean hinge loss max(0, 1 - y*(Xw + b)) plus (l2/2)*||w||^2."""
    margins = ysign * (np.asarray(X @ w).ravel() + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(hinge.mean() + 0.5 * l2_reg * float(w @ w)), margins


class LinearSVC(BaseEstimator):
    """Binary linear SVM trained by deterministic subgradient descent.

    The step at iteration t is step_size/sqrt(t); the fitted parameters are
    those of the lowest-objective iterate visited, which is never worse
    than the all-zero start (objective 1.0).
    """

    def __init__(self, l2_reg=0.0, step_size=1.0, max_iters=200, tol=1e-9, seed=0):
        self.l2_reg = l2_reg
        self.step_size = step_size
        self.max_iters = max_iters
        self.tol = tol
        self.seed = seed
        self.weights_ = None

    def check_params(self):
        if self.max_iters < 1 or self.step_size <= 0 or self.l2_reg < 0:
            raise DataError("invalid training configuration")

    def fit(self, X, y):
        X = as_feature_matrix(X)
        y = as_label_array(y, X.shape[0])
        if X.shape[0] == 0:
            raise DataError("cannot fit on zero rows")
        check_labels_in_range(y, 2)
        if np.unique(y).shape[0] < 2:
            raise DataError("training labels contain a single class")
        self.check_params()
        n, d = X.shape
        # As CSR, X.T @ coef adds each feature's terms in row order, as a
        # product with the CSC view X.T does.
        XT = X.T.tocsr() if hasattr(X, "tocsr") else X.T
        ysign = np.where(y == 1, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        obj, margins = hinge_objective(w, b, X, ysign, self.l2_reg)
        best_obj, best_w, best_b = obj, w.copy(), b
        trace = [obj]
        for t in range(1, self.max_iters + 1):
            viol = margins < 1.0
            if viol.any():
                coef = np.where(viol, ysign, 0.0) / n
                grad_w = self.l2_reg * w - XT @ coef
                grad_b = -float(coef.sum())
            else:
                grad_w = self.l2_reg * w
                grad_b = 0.0
            gnorm = float(np.sqrt(grad_w @ grad_w + grad_b**2))
            if gnorm < self.tol:
                break
            eta = self.step_size / np.sqrt(t)
            w = w - eta * grad_w
            b = b - eta * grad_b
            obj, margins = hinge_objective(w, b, X, ysign, self.l2_reg)
            if not np.isfinite(obj):
                raise NumericError("non-finite objective; lower step_size")
            trace.append(obj)
            if obj < best_obj:
                best_obj, best_w, best_b = obj, w.copy(), b
        self.dim_ = d
        self.num_classes_ = 2
        self.weights_ = best_w.reshape(1, -1)
        self.intercepts_ = np.array([best_b])
        self.objective_trace_ = np.asarray(trace)
        self.n_iters_ = len(trace) - 1
        self.final_objective_ = best_obj
        return self

    def decision_function(self, X):
        check_is_fitted(self, "weights_")
        X = as_feature_matrix(X)
        check_matching_dim(self.dim_, X)
        return np.asarray(X @ self.weights_[0]).ravel() + self.intercepts_[0]

    def predict(self, X):
        return (self.decision_function(X) > 0).astype(np.int64)

    def to_json(self):
        check_is_fitted(self, "weights_")
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "svc",
            "num_classes": 2,
            "dim": self.dim_,
            "weights": self.weights_.tolist(),
            "intercepts": self.intercepts_.tolist(),
            "params": self.get_params(),
            "training": {
                "iterations": self.n_iters_,
                "final_objective": self.final_objective_,
            },
        }

    @classmethod
    def from_json(cls, doc):
        model = linear_from_json(cls, doc)
        model.objective_trace_ = None
        return model


def linear_from_json(cls, doc):
    """A fitted logistic or svc model of cls from its document, checked first.

    The document needs format_version 1, params naming exactly cls's
    parameters, an int dim >= 1 and an int num_classes >= 2 (exactly 2 for
    the SVC, which keeps one weight row). weights must be rows x dim and
    intercepts rows long, with rows = num_classes for logistic regression,
    all finite numbers; training needs an int iterations >= 0 and a finite
    final_objective. Any violation raises DataError.
    """
    model = model_from_doc(cls, doc, "format_version", "num_classes", "weights",
                           "intercepts", "training")
    if not is_int(doc["format_version"]) or doc["format_version"] != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported linear model format {doc['format_version']!r}")
    k = doc["num_classes"]
    if not (is_count(k) and k >= 2) or cls is LinearSVC and k != 2:
        raise DataError(f"{cls.__name__} num_classes {k!r} is not a valid class count")
    rows = 1 if cls is LinearSVC else k
    model.num_classes_ = k
    model.weights_ = finite_array(doc["weights"], "weights", (rows, model.dim_))
    model.intercepts_ = finite_array(doc["intercepts"], "intercepts", (rows,))
    training = doc["training"]
    if not (isinstance(training, dict) and sorted(training) == ["final_objective", "iterations"]
            and is_int(training["iterations"]) and training["iterations"] >= 0
            and is_finite_number(training["final_objective"])):
        raise DataError("training must hold an int iterations >= 0 and a finite "
                        "final_objective")
    model.n_iters_ = training["iterations"]
    model.final_objective_ = training["final_objective"]
    return model
