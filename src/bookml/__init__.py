"""bookml: book-review rating prediction and recommendation toolkit.

Columnar CSV ingestion, TF-IDF feature pipelines, from-scratch linear and
tree classifiers, ALS recommenders, cross-validated model selection, and a
batch CLI, all with deterministic seeding.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a command that
needs no sparse features never loads scipy.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "base": ("BaseEstimator", "check_is_fitted"),
    "ensemble": (
        "BlockImportances",
        "GradientBoostedTreesClassifier",
        "RandomForestClassifier",
        "block_importances",
    ),
    "errors": ("BookmlError", "ConfigError", "DataError", "NotFittedError", "NumericError"),
    "linear": ("LinearSVC", "LogisticRegressionClassifier", "logistic_objective"),
    "metrics": ("MetricsReport", "evaluate_multiclass", "evaluate_regression"),
    "pipeline": (
        "AssembleColumns",
        "CountTokens",
        "FilterStopwords",
        "Pipeline",
        "ScaleMinMax",
        "Stage",
        "TokenizeText",
        "WeightIdf",
    ),
    "recommend": (
        "ALSExplicit",
        "ALSImplicit",
        "InteractionSet",
        "build_interactions",
        "evaluate_holdout",
        "per_user_holdout",
    ),
    "selection": (
        "TuneResult",
        "cross_validate",
        "expand_grid",
        "kfold_indices",
        "train_validation_split",
    ),
    "table": (
        "Table",
        "join_inner",
        "load_table",
        "parse_csv",
        "save_table",
        "split_random",
    ),
    "text": ("Vocabulary", "fit_count_vectorizer", "idf_weights", "remove_stopwords", "tokenize"),
    "tree": ("DecisionTreeClassifier", "best_split", "gini"),
    "vectors": ("BlockMap", "stack_vectors"),
}

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
