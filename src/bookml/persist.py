"""Model artifact persistence: one JSON document per fitted experiment.

Artifacts embed a small probe block (inputs plus expected outputs) so a
saved model can be re-verified after deserialization without the original
data. JSON keeps float64 values bit-exact through the repr round trip.
The checks that model and pipeline readers make on their documents live
here too, so every artifact is checked by the same rules.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError

ARTIFACT_FORMAT_VERSION = 1

# Model kind -> "module:class" within bookml. The class is imported when a
# model of its kind is loaded, so importing this module loads no estimator.
MODEL_TYPES = {
    "logistic": "linear:LogisticRegressionClassifier",
    "svc": "linear:LinearSVC",
    "dtree": "tree:DecisionTreeClassifier",
    "rforest": "ensemble:RandomForestClassifier",
    "gbt": "ensemble:GradientBoostedTreesClassifier",
    "als": "recommend:ALSExplicit",
    "als_implicit": "recommend:ALSImplicit",
}


def model_to_json(model):
    doc = model.to_json()
    if doc.get("kind") not in MODEL_TYPES:
        raise DataError(f"unknown model kind {doc.get('kind')!r}")
    return doc


def model_class(kind):
    """The estimator class of a model kind, imported on first use."""
    target = MODEL_TYPES.get(kind) if isinstance(kind, str) else None
    if target is None:
        raise DataError(f"unknown model kind {kind!r}")
    module, name = target.split(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def model_from_json(doc):
    return model_class(doc.get("kind")).from_json(doc)


def save_artifact(path, doc):
    doc = dict(doc)
    doc["format_version"] = ARTIFACT_FORMAT_VERSION
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_artifact(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: artifact not found")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: corrupt artifact ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: artifact is not a JSON object")
    if doc.get("format_version") != ARTIFACT_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported artifact version {doc.get('format_version')!r}"
        )
    return doc


def is_int(value):
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value):
    """An int in [1, 2**63): a row count, a dimension or a rank."""
    return is_int(value) and 1 <= value < 2**63


def is_finite_number(value):
    """A JSON number that is a finite float64."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


def finite_array(value, what, shape):
    """value as a float64 array of the given shape (None: any 1-d length).

    Only JSON numbers are accepted: ragged lists, strings, booleans and
    nulls are rejected, as are NaN and infinities.
    """
    try:
        arr = np.array(value)
    except (ValueError, TypeError) as exc:
        raise DataError(f"{what} is not a rectangular array of numbers") from exc
    want = (arr.ndim == 1) if shape is None else (arr.shape == shape)
    if arr.dtype.kind not in "if" or not want:
        expected = "a list of numbers" if shape is None else f"of shape {shape}"
        raise DataError(f"{what} must be {expected}, got {arr.dtype} {arr.shape}")
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} has non-finite values")
    return arr


def model_from_doc(cls, doc, *keys):
    """An unfitted cls built from a model document's params, with dim_ set.

    The document must be an object holding params, dim and keys; params
    must name exactly cls's parameters, and dim must be an int >= 1.
    """
    if not isinstance(doc, dict) or any(key not in doc for key in ("params", "dim", *keys)):
        raise DataError(f"{cls.__name__} document needs keys {['params', 'dim', *keys]}")
    params, names = doc["params"], cls._param_names()
    if not isinstance(params, dict) or sorted(params) != sorted(names):
        got = sorted(params) if isinstance(params, dict) else type(params).__name__
        raise DataError(f"{cls.__name__} params must be exactly {sorted(names)}, got {got}")
    if not is_count(doc["dim"]):
        raise DataError(f"{cls.__name__} dim must be an int >= 1, got {doc['dim']!r}")
    model = cls(**params)
    model.dim_ = doc["dim"]
    return model
