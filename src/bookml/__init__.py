"""bookml: book-review rating prediction and recommendation toolkit.

Columnar CSV ingestion, TF-IDF feature pipelines, from-scratch linear and
tree classifiers, ALS recommenders, cross-validated model selection, and a
batch CLI, all with deterministic seeding.
"""

from .base import BaseEstimator, check_is_fitted
from .ensemble import (
    BlockImportances,
    GradientBoostedTreesClassifier,
    RandomForestClassifier,
    block_importances,
)
from .errors import (
    BookmlError,
    ConfigError,
    DataError,
    NotFittedError,
    NumericError,
)
from .linear import LinearSVC, LogisticRegressionClassifier, logistic_objective
from .metrics import (
    MetricsReport,
    evaluate_binary,
    evaluate_multiclass,
    evaluate_regression,
)
from .pipeline import (
    AssembleColumns,
    CountTokens,
    FilterStopwords,
    Pipeline,
    ScaleMinMax,
    Stage,
    TokenizeText,
    WeightIdf,
    pipeline_fit_transform,
)
from .recommend import (
    ALSExplicit,
    ALSImplicit,
    InteractionSet,
    build_interactions,
    evaluate_holdout,
    per_user_holdout,
)
from .scaling import MinMaxState, binarize_label, fit_minmax, transform_minmax
from .selection import (
    TuneResult,
    cross_validate,
    expand_grid,
    kfold_indices,
    train_validation_split,
)
from .table import (
    Field,
    IngestOptions,
    Schema,
    Table,
    column_stats,
    join_inner,
    load_table,
    parse_csv,
    save_table,
    split_random,
    write_csv,
)
from .text import (
    Vocabulary,
    fit_count_vectorizer,
    idf_weights,
    remove_stopwords,
    tokenize,
)
from .tree import DecisionTreeClassifier, TreeNode, best_split, gini, predict_tree
from .vectors import BlockMap, FeatureVector, stack_vectors

__version__ = "0.1.0"

__all__ = [
    "ALSExplicit",
    "ALSImplicit",
    "AssembleColumns",
    "BaseEstimator",
    "BlockImportances",
    "BlockMap",
    "BookmlError",
    "ConfigError",
    "CountTokens",
    "DataError",
    "DecisionTreeClassifier",
    "FeatureVector",
    "Field",
    "FilterStopwords",
    "GradientBoostedTreesClassifier",
    "IngestOptions",
    "InteractionSet",
    "LinearSVC",
    "LogisticRegressionClassifier",
    "MetricsReport",
    "MinMaxState",
    "NotFittedError",
    "NumericError",
    "Pipeline",
    "RandomForestClassifier",
    "ScaleMinMax",
    "Schema",
    "Stage",
    "Table",
    "TokenizeText",
    "TreeNode",
    "TuneResult",
    "Vocabulary",
    "WeightIdf",
    "best_split",
    "binarize_label",
    "block_importances",
    "build_interactions",
    "check_is_fitted",
    "column_stats",
    "cross_validate",
    "evaluate_binary",
    "evaluate_holdout",
    "evaluate_multiclass",
    "evaluate_regression",
    "expand_grid",
    "fit_count_vectorizer",
    "fit_minmax",
    "gini",
    "idf_weights",
    "join_inner",
    "kfold_indices",
    "load_table",
    "logistic_objective",
    "parse_csv",
    "per_user_holdout",
    "pipeline_fit_transform",
    "predict_tree",
    "remove_stopwords",
    "save_table",
    "split_random",
    "stack_vectors",
    "tokenize",
    "train_validation_split",
    "transform_minmax",
    "write_csv",
]
