"""Model artifact persistence: one JSON document per fitted experiment.

Artifacts embed a small probe block (inputs plus expected outputs) so a
saved model can be re-verified after deserialization without the original
data. JSON keeps float64 values bit-exact through the repr round trip.
Each document's shape is declared once (see docspec); a model's
declaration, its class's doc_spec(), also writes and reads it.
"""

import importlib
import json
from pathlib import Path

from .docspec import Const, Doc, check, load_json

ARTIFACT_FORMAT_VERSION = 1

# What every artifact holds; verify-model declares the rest of each kind.
ARTIFACT_HEAD = Doc({"format_version": Const(ARTIFACT_FORMAT_VERSION),
                     "artifact": Const("classifier", "recommender")}, open=True)

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


def model_class(kind):
    """The estimator class of a model kind, imported on first use."""
    module, name = MODEL_TYPES[check(kind, Const(*MODEL_TYPES), "kind")].split(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def model_from_json(doc):
    """The fitted model of a model document, read by its kind's from_json."""
    kind = check(doc, Doc({"kind": Const(*MODEL_TYPES)}, open=True), "model")["kind"]
    return model_class(kind).from_json(doc)


def save_artifact(path, doc):
    doc = dict(doc)
    doc["format_version"] = ARTIFACT_FORMAT_VERSION
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_artifact(path):
    return load_json(path, ARTIFACT_HEAD)
