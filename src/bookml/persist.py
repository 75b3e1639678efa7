"""Model artifact persistence: one JSON document per fitted experiment.

Artifacts embed a small probe block (inputs plus expected outputs) so a
saved model can be re-verified after deserialization without the original
data. JSON keeps float64 values bit-exact through the repr round trip.
"""

import json
from pathlib import Path

from .ensemble import GradientBoostedTreesClassifier, RandomForestClassifier
from .errors import DataError
from .linear import LinearSVC, LogisticRegressionClassifier
from .recommend import ALSExplicit, ALSImplicit
from .tree import DecisionTreeClassifier

ARTIFACT_FORMAT_VERSION = 1

MODEL_TYPES = {
    "logistic": LogisticRegressionClassifier,
    "svc": LinearSVC,
    "dtree": DecisionTreeClassifier,
    "rforest": RandomForestClassifier,
    "gbt": GradientBoostedTreesClassifier,
    "als": ALSExplicit,
    "als_implicit": ALSImplicit,
}


def model_to_json(model):
    doc = model.to_json()
    if doc.get("kind") not in MODEL_TYPES:
        raise DataError(f"unknown model kind {doc.get('kind')!r}")
    return doc


def model_from_json(doc):
    kind = doc.get("kind")
    cls = MODEL_TYPES.get(kind)
    if cls is None:
        raise DataError(f"unknown model kind {kind!r}")
    return cls.from_json(doc)


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
    if not isinstance(doc, dict) or doc.get("format_version") != ARTIFACT_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported artifact version {doc.get('format_version')!r}"
        )
    return doc
