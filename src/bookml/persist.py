"""Model artifact persistence: one JSON document per fitted experiment.

Artifacts embed a small probe block (inputs plus expected outputs) so a
saved model can be re-verified after deserialization without the original
data. JSON keeps float64 values bit-exact through the repr round trip.
"""

import importlib
import json
from pathlib import Path

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


def model_from_json(doc):
    kind = doc.get("kind")
    target = MODEL_TYPES.get(kind) if isinstance(kind, str) else None
    if target is None:
        raise DataError(f"unknown model kind {kind!r}")
    module, name = target.split(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name).from_json(doc)


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
