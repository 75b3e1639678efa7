"""Import boundaries: what a command or a public name loads, and what it does not."""

import importlib

import pytest

import bookml
from bookml import validation, vectors
from bookml.synth import generate_corpus

# The package's public names; the lazy __init__ must keep exactly these.
PUBLIC_NAMES = [
    "ALSExplicit", "ALSImplicit", "AssembleColumns", "BaseEstimator", "BlockImportances",
    "BlockMap", "BookmlError", "ConfigError", "CountTokens", "DataError",
    "DecisionTreeClassifier", "FilterStopwords",
    "GradientBoostedTreesClassifier", "InteractionSet", "LinearSVC",
    "LogisticRegressionClassifier", "MetricsReport", "NotFittedError",
    "NumericError", "Pipeline", "RandomForestClassifier", "ScaleMinMax", "Stage",
    "Table", "TokenizeText", "TuneResult", "Vocabulary", "WeightIdf",
    "best_split", "block_importances", "build_interactions",
    "check_is_fitted", "cross_validate",
    "evaluate_holdout", "evaluate_multiclass", "evaluate_regression", "expand_grid",
    "fit_count_vectorizer", "gini", "idf_weights", "join_inner",
    "kfold_indices", "load_table", "logistic_objective", "parse_csv", "per_user_holdout",
    "remove_stopwords", "save_table",
    "split_random", "stack_vectors", "tokenize", "train_validation_split",
]


class TestLazyPackage:
    def test_public_names_unchanged(self):
        assert bookml.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_module_attribute(self, name):
        module = importlib.import_module(f"bookml.{bookml._EXPORTS[name]}")
        assert getattr(bookml, name) is getattr(module, name)

    def test_dir_lists_public_names(self):
        listed = dir(bookml)
        assert set(PUBLIC_NAMES) <= set(listed)
        assert "__version__" in listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bookml.no_such_name
        assert not hasattr(bookml, "stack")

    def test_submodule_import_from_package(self):
        from bookml import tree

        assert tree is importlib.import_module("bookml.tree")

    def test_package_import_loads_no_module(self, fresh_python):
        out = fresh_python(
            "import sys, bookml\n"
            "print(sorted(m for m in sys.modules if m.startswith('bookml.')))\n"
            "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        )
        assert out.split("\n")[:2] == ["[]", "False False"]

    def test_validation_stack_vectors_is_bound_once(self):
        assert validation.stack_vectors is vectors.stack_vectors
        assert vars(validation)["stack_vectors"] is vectors.stack_vectors
        with pytest.raises(AttributeError):
            validation.no_such_name


class TestWithoutScipy:
    def test_dense_inputs_need_no_scipy(self, fresh_python):
        out = fresh_python(
            "import sys\n"
            "import numpy as np\n"
            "from bookml.linear import LogisticRegressionClassifier\n"
            "from bookml.validation import as_feature_matrix, row_scores, take_rows\n"
            "X = as_feature_matrix([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])\n"
            "assert isinstance(X, np.ndarray) and X.shape == (3, 2)\n"
            "assert take_rows(X, [2, 0]).tolist() == [[0.5, 0.5], [0.0, 1.0]]\n"
            "assert row_scores(X, np.eye(2), 1.0).tolist() == [[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]]\n"
            "model = LogisticRegressionClassifier(num_classes=2, max_iters=20).fit(X, [1, 0, 1])\n"
            "assert model.predict(X).shape == (3,)\n"
            "print('scipy' in sys.modules)\n"
        )
        assert out.strip() == "False"

    def test_recommender_commands_load_no_scipy(self, cli_subprocess, tmp_path):
        stats = generate_corpus(tmp_path / "corpus", n_ratings=400, seed=5)
        out = str(tmp_path / "run")
        commands = [
            ["synth", "--out", str(tmp_path / "synth"), "--rows", "200", "--seed", "3"],
            ["prepare", "--ratings-csv", stats.ratings_path, "--books-csv",
             stats.books_path, "--out", out, "--seed", "5"],
            ["train", "--out", out, "--model", "als_implicit", "--rank", "3",
             "--sweeps", "2", "--seed", "5"],
            ["verify-model", "--out", out],
            ["train", "--out", out, "--model", "als", "--rank", "3", "--sweeps", "2",
             "--seed", "5"],
            ["recommend", "--out", out, "--user", "U000001", "--n", "3"],
            ["verify-model", "--out", out],
        ]
        for argv in commands:
            assert cli_subprocess(argv) == (0, False), argv
        # The probe sees scipy when a command does load it.
        assert cli_subprocess(["compare", "--out", out, "--seed", "5",
                               "--vocab-size", "32"]) == (0, True)
