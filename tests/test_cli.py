import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bookml.cli import CLASSIFIER_MODELS, RECOMMENDER_MODELS, main
from bookml.errors import NotFittedError
from bookml.persist import MODEL_TYPES
from bookml.synth import generate_corpus

from fingerprint import fingerprints

# Checked-in artifacts; see data/README.md.
FIXTURES = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    stats = generate_corpus(root, n_ratings=900, seed=21, correlation=0.7,
                            missing_price_rate=0.05, stress_rate=0.05)
    return root, stats


@pytest.fixture(scope="module")
def prepared(corpus, tmp_path_factory):
    root, stats = corpus
    out = tmp_path_factory.mktemp("run")
    code = main([
        "prepare",
        "--ratings-csv", stats.ratings_path,
        "--books-csv", stats.books_path,
        "--out", str(out),
        "--seed", "5",
    ])
    assert code == 0
    return out


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


RATINGS_HEADER = ("id,title,price,user_id,profile_name,r_helpfulness,"
                  "r_score,r_time,r_summary,r_review")
BOOKS_HEADER = ("title,description,authors,image,preview,publisher,"
                "publish_date,info_link,categories,ratings_count")


def prepare_rows(tmp_path, rows):
    """Run prepare on a hand-made corpus: one rating per (title, price, score,
    time, summary) row and one book per title. Returns (exit code, out dir)."""
    ratings, books, out = tmp_path / "ratings.csv", tmp_path / "books.csv", tmp_path / "out"
    ratings.write_text("".join(
        [RATINGS_HEADER + "\n"]
        + [f"{i},{title},{price},U1,Reader,1/2,{score},{time},{summary},text\n"
           for i, (title, price, score, time, summary) in enumerate(rows, 1)]),
        encoding="utf-8")
    books.write_text("".join(
        [BOOKS_HEADER + "\n"] + [f"{row[0]},d,a,i,p,pub,2000,l,Fiction,1\n" for row in rows]),
        encoding="utf-8")
    code = main(["prepare", "--ratings-csv", str(ratings), "--books-csv", str(books),
                 "--out", str(out)])
    return code, out


def strip_wall_times(doc):
    if isinstance(doc, dict):
        return {k: strip_wall_times(v) for k, v in doc.items()
                if "wall_time" not in k}
    if isinstance(doc, list):
        return [strip_wall_times(v) for v in doc]
    return doc


class TestPrepare:
    def test_accounting_balances(self, prepared):
        summary = read_json(prepared / "prepare_summary.json")
        drops = sum(summary["drop_reasons"].values())
        assert summary["rows_in"] == summary["rows_kept"] + drops
        assert summary["drop_reasons"]["missing_price"] > 0
        assert (prepared / "prepare.done").exists()

    def test_sample_rows_reproducible(self, corpus, tmp_path):
        root, stats = corpus
        rows = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main([
                "prepare",
                "--ratings-csv", stats.ratings_path,
                "--books-csv", stats.books_path,
                "--out", str(out),
                "--seed", "9",
                "--sample-rows", "200",
            ])
            assert code == 0
            summary = read_json(out / "prepare_summary.json")
            assert summary["rows_after_sampling"] == 200
            rows.append((out / "prepared" / "c0.offsets.npy").read_bytes())
        assert rows[0] == rows[1]

    def test_join_zero_rows_fails_with_data_error(self, corpus, tmp_path):
        root, stats = corpus
        lonely_books = tmp_path / "books.csv"
        header = Path(stats.books_path).read_text(encoding="utf-8").splitlines()[0]
        lonely_books.write_text(
            header + "\nUnmatched,d,a,i,p,pub,2000,l,Fiction,1\n", encoding="utf-8"
        )
        code = main([
            "prepare",
            "--ratings-csv", stats.ratings_path,
            "--books-csv", str(lonely_books),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_each_dropped_row_counts_under_its_first_failed_reason(self, tmp_path):
        from bookml.table import load_table

        code, out = prepare_rows(tmp_path, [
            ("kept-a", "9.99", "5", "100", "fine"),
            ("no-price", "", "4", "100", "fine"),
            ("bad-price", "cheap", "4", "100", "fine"),
            ("no-score", "9.99", "", "100", "fine"),
            ("score-7", "9.99", "7", "100", "fine"),
            ("score-0", "9.99", "0", "100", "fine"),
            ("no-time", "9.99", "3", "", "fine"),
            ("no-summary", "9.99", "3", "100", ""),
            ("no-price-no-score", "", "", "100", "fine"),
            ("score-7-no-time", "9.99", "7", "", "fine"),
            ("no-time-no-summary", "9.99", "2", "", ""),
            ("kept-b", "1.50", "1", "200", "also fine"),
        ])
        assert code == 0
        summary = read_json(out / "prepare_summary.json")
        assert summary["drop_reasons"] == {"missing_price": 3, "missing_score": 1,
                                           "invalid_score": 3, "missing_time": 2,
                                           "missing_summary": 1}
        assert (summary["rows_in"], summary["rows_kept"]) == (12, 2)
        table = load_table(out / "prepared")
        assert list(table.column("title").values) == ["kept-a", "kept-b"]
        assert table.column("price").values.tolist() == [9.99, 1.5]

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_price_counts_as_missing(self, tmp_path, price):
        code, out = prepare_rows(tmp_path, [("kept", "9.99", "5", "100", "fine"),
                                            ("odd", price, "4", "100", "fine")])
        assert code == 0
        summary = read_json(out / "prepare_summary.json")
        assert summary["drop_reasons"]["missing_price"] == 1
        assert summary["rows_kept"] == 1

    @pytest.mark.parametrize("missing", ["ratings", "books"])
    def test_missing_csv_is_data_error_before_parsing(self, corpus, tmp_path,
                                                      monkeypatch, missing):
        root, stats = corpus
        paths = {"ratings": stats.ratings_path, "books": stats.books_path}
        paths[missing] = str(tmp_path / "missing.csv")

        def parse_csv(*args, **kwargs):
            raise AssertionError("a CSV was parsed before both paths were checked")

        monkeypatch.setattr("bookml.cli.parse_csv", parse_csv)
        code = main([
            "prepare",
            "--ratings-csv", paths["ratings"],
            "--books-csv", paths["books"],
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert not (tmp_path / "out").exists()


class TestTrain:
    @pytest.mark.parametrize("model,label_mode", [
        ("logistic", "multiclass"),
        ("svc", "binary"),
        ("dtree", "binary"),
    ])
    def test_models_train_and_report(self, prepared, model, label_mode):
        code = main([
            "train", "--out", str(prepared), "--model", model,
            "--label-mode", label_mode, "--tuning", "tvs",
            "--vocab-size", "128", "--seed", "5",
        ])
        assert code == 0
        text = (prepared / "train_report.txt").read_text(encoding="utf-8")
        assert re.search(r"Model Name\s+Accuracy\s+Precision\s+Recall\s+F1\s+Time", text)
        report = read_json(prepared / "train_report.json")
        assert report["config"]["model"] == model
        assert report["config"]["grid"]
        assert (prepared / "model.json").exists()

    def test_tree_report_includes_importances(self, prepared):
        code = main([
            "train", "--out", str(prepared), "--model", "dtree",
            "--label-mode", "binary", "--tuning", "cv", "--k", "2",
            "--vocab-size", "64", "--seed", "5",
        ])
        assert code == 0
        report = read_json(prepared / "train_report.json")
        imp = report["feature_importances"]
        assert imp["blocks"] == ["price_norm", "time_norm", "summary_tfidf"]
        assert sum(imp["values"]) == pytest.approx(1.0, abs=1e-9) or imp["degenerate"]
        text = (prepared / "train_report.txt").read_text(encoding="utf-8")
        assert re.search(r"Feature\s+Importance", text)

    def test_review_text_opt_in_adds_fourth_block(self, prepared):
        code = main([
            "train", "--out", str(prepared), "--model", "dtree",
            "--label-mode", "binary", "--tuning", "tvs",
            "--vocab-size", "64", "--use-review-text", "--seed", "5",
        ])
        assert code == 0
        report = read_json(prepared / "train_report.json")
        assert report["feature_importances"]["blocks"] == [
            "price_norm", "time_norm", "summary_tfidf", "review_tfidf",
        ]

    def test_gbt_multiclass_rejected_as_config_error(self, prepared):
        code = main([
            "train", "--out", str(prepared), "--model", "gbt",
            "--label-mode", "multiclass",
        ])
        assert code == 2

    def test_train_without_prepare_is_data_error(self, tmp_path):
        code = main(["train", "--out", str(tmp_path / "fresh"), "--model", "logistic"])
        assert code == 3

    @pytest.mark.parametrize("command", [
        ["train", "--model", "logistic"],
        ["train", "--model", "als"],
        ["compare"],
    ])
    def test_run_without_prepare_creates_nothing(self, tmp_path, capsys, command):
        # A run that fails to load its prepared table leaves no run directory behind.
        code = main([*command, "--out", str(tmp_path / "fresh")])
        assert code == 3 and capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fresh").exists()

    def test_reports_reproducible_modulo_wall_time(self, corpus, tmp_path):
        # rerunning the same command into the same out dir is idempotent
        root, stats = corpus
        out = tmp_path / "idem"
        main([
            "prepare", "--ratings-csv", stats.ratings_path,
            "--books-csv", stats.books_path, "--out", str(out), "--seed", "4",
        ])
        docs = []
        for _ in range(2):
            code = main([
                "train", "--out", str(out), "--model", "logistic",
                "--label-mode", "binary", "--tuning", "tvs",
                "--vocab-size", "64", "--seed", "4",
            ])
            assert code == 0
            docs.append(strip_wall_times(read_json(out / "train_report.json")))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_als_train_reports_table8_layout(self, prepared):
        code = main([
            "train", "--out", str(prepared), "--model", "als",
            "--sweeps", "5", "--rank", "4", "--seed", "5",
        ])
        assert code == 0
        text = (prepared / "train_report.txt").read_text(encoding="utf-8")
        assert re.search(r"Model\s+RMSE\s+R2", text)
        assert "SS_res/SS_tot" in text


class TestCompare:
    def test_direction_and_artifacts(self, prepared):
        code = main([
            "compare", "--out", str(prepared), "--vocab-size", "256", "--seed", "5",
        ])
        assert code == 0
        report = read_json(prepared / "compare_report.json")
        assert not report["inconclusive"]
        assert report["accuracy_delta"] == pytest.approx(
            report["binary"]["accuracy"] - report["multiclass"]["accuracy"]
        )
        assert len(report["multiclass"]["confusion"]) == 5
        assert len(report["binary"]["confusion"]) == 2

    def test_degenerate_single_class_marked_inconclusive(self, tmp_path):
        from bookml.table import save_table
        from bookml import Table

        rows = 40
        t = Table.build(
            [("title", "text", False), ("user_id", "text", False),
             ("r_score", "int64", False), ("r_time", "int64", False),
             ("r_summary", "text", False), ("r_review", "text", True),
             ("price", "float64", False)],
            {
                "title": [f"B{i}" for i in range(rows)],
                "user_id": [f"u{i}" for i in range(rows)],
                "r_score": [5] * rows,
                "r_time": list(range(rows)),
                "r_summary": ["all the same stars"] * rows,
                "r_review": [None] * rows,
                "price": [9.99] * rows,
            },
        )
        out = tmp_path / "degenerate"
        out.mkdir()
        save_table(t, out / "prepared")
        code = main(["compare", "--out", str(out), "--seed", "1"])
        assert code == 0
        report = read_json(out / "compare_report.json")
        assert report["inconclusive"]
        assert "single-class-dominant" in report["reason"]


class TestFeaturePasses:
    def test_each_split_transformed_once(self, prepared, monkeypatch):
        from bookml.pipeline import AssembleColumns

        rows = []
        assemble = AssembleColumns.transform

        def counting(self, table):
            rows.append(table.row_count)
            return assemble(self, table)

        monkeypatch.setattr(AssembleColumns, "transform", counting)
        assert main(["compare", "--out", str(prepared), "--vocab-size", "64",
                     "--seed", "5"]) == 0
        split = read_json(prepared / "compare_report.json")["split"]
        assert rows == [split["train_rows"], split["test_rows"]]

        rows.clear()
        assert main(["train", "--out", str(prepared), "--model", "logistic",
                     "--label-mode", "binary", "--tuning", "tvs",
                     "--vocab-size", "64", "--seed", "5"]) == 0
        split = read_json(prepared / "train_report.json")["split"]
        # the probe block transforms the first 32 training rows
        assert rows == [split["train_rows"], split["test_rows"], 32]


class TestRecommendAndVerify:
    @pytest.fixture
    def als_ready(self, prepared):
        assert main([
            "train", "--out", str(prepared), "--model", "als",
            "--sweeps", "5", "--rank", "4", "--seed", "5",
        ]) == 0
        return prepared

    def test_recommend_excludes_seen_titles(self, als_ready):
        prepared = als_ready
        from bookml import build_interactions, load_table

        table = load_table(prepared / "prepared")
        data = build_interactions(table, "user_id", "title", "r_score")
        user = data.user_ids[0]
        seen = {data.item_ids[i] for i in data.seen_items(0)}
        code = main(["recommend", "--out", str(prepared), "--user", user, "--n", "5"])
        assert code == 0
        report = read_json(prepared / "recommend_report.json")
        titles = [r["title"] for r in report["recommendations"]]
        assert len(titles) <= 5
        assert not (set(titles) & seen)
        scores = [r["score"] for r in report["recommendations"]]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_evaluate_reports_rmse_r2(self, als_ready):
        code = main([
            "recommend", "--out", str(als_ready), "--user", "U000001",
            "--n", "3", "--evaluate",
        ])
        assert code == 0
        report = read_json(als_ready / "recommend_report.json")
        assert "rmse" in report["holdout"]
        assert "r2" in report["holdout"]
        text = (als_ready / "recommend_report.txt").read_text(encoding="utf-8")
        assert re.search(r"Model\s+RMSE\s+R2", text)

    def test_unknown_user_cold_start_fallback(self, als_ready):
        code = main(["recommend", "--out", str(als_ready), "--user", "martian", "--n", "4"])
        assert code == 0
        report = read_json(als_ready / "recommend_report.json")
        assert report["cold_start"]
        assert len(report["recommendations"]) == 4

    def test_verify_model_roundtrip(self, als_ready):
        assert main(["verify-model", "--out", str(als_ready)]) == 0

    def test_verify_model_writes_done_marker(self, als_ready, tmp_path):
        marker = als_ready / "verify-model.done"
        marker.unlink(missing_ok=True)
        assert main(["verify-model", "--out", str(als_ready)]) == 0
        assert marker.exists()
        doc = read_json(als_ready / "model.json")
        doc["probes"]["pairs"][0]["score"] += 1.0
        (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        run = tmp_path / "run"
        assert main(["verify-model", "--path", str(tmp_path / "model.json"),
                     "--out", str(run)]) == 3
        assert not (run / "verify-model.done").exists()

    def test_verify_model_marker_goes_to_out(self, als_ready, tmp_path):
        run = tmp_path / "run"
        assert main(["verify-model", "--path", str(als_ready / "model.json"),
                     "--out", str(run)]) == 0
        assert (run / "verify-model.done").exists()

    @pytest.mark.parametrize("model", ["logistic", "svc", "gbt"])
    def test_verify_classifier_artifact(self, prepared, model):
        assert main([
            "train", "--out", str(prepared), "--model", model,
            "--label-mode", "binary", "--tuning", "tvs",
            "--vocab-size", "64", "--seed", "5",
        ]) == 0
        assert main(["verify-model", "--out", str(prepared)]) == 0

    def test_truncated_artifact_clean_error(self, als_ready, tmp_path):
        blob = (als_ready / "model.json").read_text(encoding="utf-8")
        broken = tmp_path / "model.json"
        broken.write_text(blob[: len(blob) // 2], encoding="utf-8")
        code = main(["verify-model", "--path", str(broken)])
        assert code == 3

    def test_tampered_artifact_fails_verification(self, prepared, tmp_path):
        assert main([
            "train", "--out", str(prepared), "--model", "logistic",
            "--label-mode", "binary", "--tuning", "tvs",
            "--vocab-size", "64", "--seed", "5",
        ]) == 0
        doc = read_json(prepared / "model.json")
        doc["model"]["intercepts"][0] += 0.25
        tampered = tmp_path / "model.json"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["verify-model", "--path", str(tampered)])
        assert code == 3


def _drop_key(doc, key):
    del doc[key]


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _drop_rows(key, k):
    def mutate(doc):
        del doc[key][-k:]
    return mutate


def _set_entry(key, value):
    def mutate(doc):
        doc[key][-1][0] = value
    return mutate


# Malformed ALS model documents: each must fail to load with a DataError.
FACTOR_DOC_MUTATIONS = {
    "missing item_ids": lambda doc: _drop_key(doc, "item_ids"),
    "classifier kind": _set("kind", "logistic"),
    "unknown kind": _set("kind", "nope"),
    "other ALS kind": _set("kind", "als_implicit"),
    "unknown param": lambda doc: doc["params"].update(extra=1),
    "missing param": lambda doc: _drop_key(doc["params"], "reg"),
    "string param": lambda doc: doc["params"].update(reg="0.1"),
    "params rank differs": lambda doc: doc["params"].update(rank=doc["rank"] + 1),
    "ragged factor row": lambda doc: doc["user_factors"][0].pop(),
    "user_factors 5 rows short": _drop_rows("user_factors", 5),
    "item_factors a row short": _drop_rows("item_factors", 1),
    "string rank": _set("rank", "4"),
    "bool rank": _set("rank", True),
    "zero rank": _set("rank", 0),
    "float rank": _set("rank", 4.0),
    "rank wider than factors": _set("rank", 5),
    "NaN factor": _set_entry("user_factors", float("nan")),
    "infinite factor": _set_entry("item_factors", float("inf")),
    "string factor": _set_entry("item_factors", "0.5"),
    "null factor": _set_entry("user_factors", None),
    "NaN global_mean": _set("global_mean", float("nan")),
    "string global_mean": _set("global_mean", "3.5"),
    "NaN objective": lambda doc: doc["objective_trace"].append(float("nan")),
    "duplicate user id": lambda doc: doc["user_ids"].__setitem__(1, doc["user_ids"][0]),
    "numeric item id": lambda doc: doc["item_ids"].__setitem__(0, 7),
    "ids not a list": _set("user_ids", "U000001"),
    "list kind": lambda doc: doc.clear() or doc.update(kind=["als"]),
}


class TestRecommenderArtifactChecks:
    @pytest.fixture(scope="class")
    def als_doc(self, prepared, tmp_path_factory):
        # Its own run directory, sharing the prepared table, so that the
        # mutated artifacts never replace the fixture's model.json.
        run = tmp_path_factory.mktemp("als-checks")
        (run / "prepared").symlink_to(prepared / "prepared", target_is_directory=True)
        assert main(["train", "--out", str(run), "--model", "als", "--sweeps", "3",
                     "--rank", "4", "--seed", "5"]) == 0
        return run, read_json(run / "model.json")

    @staticmethod
    def run_both(run, artifact):
        (run / "model.json").write_text(json.dumps(artifact), encoding="utf-8")
        user = artifact["probes"]["top_n"][0]["user"]
        return (main(["recommend", "--out", str(run), "--user", user, "--n", "3"]),
                main(["verify-model", "--out", str(run)]))

    def test_valid_artifact_passes(self, als_doc):
        run, doc = als_doc
        assert self.run_both(run, doc) == (0, 0)

    @pytest.mark.parametrize("name", sorted(FACTOR_DOC_MUTATIONS))
    def test_malformed_model_is_data_error(self, als_doc, name):
        run, doc = als_doc
        artifact = copy.deepcopy(doc)
        FACTOR_DOC_MUTATIONS[name](artifact["model"])
        assert self.run_both(run, artifact) == (3, 3)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_is_data_error(self, als_doc, data):
        run, doc = als_doc
        artifact = copy.deepcopy(doc)
        model = artifact["model"]
        action = data.draw(st.sampled_from(["drop", "retype", "truncate", "ragged", "nonfinite"]))
        if action == "drop":
            del model[data.draw(st.sampled_from(sorted(model)))]
        elif action == "retype":
            key = data.draw(st.sampled_from(sorted(model)))
            model[key] = data.draw(st.sampled_from(
                [None, True, "x", {"a": 1}, [[1.0]]]).filter(lambda v: v != model[key]))
        else:
            key = data.draw(st.sampled_from(["user_factors", "item_factors"]))
            rows = model[key]
            i = data.draw(st.integers(0, len(rows) - 1))
            if action == "truncate":
                del rows[i]
            elif action == "ragged":
                rows[i] = rows[i][:data.draw(st.integers(0, len(rows[i]) - 1))]
            else:
                j = data.draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        assert self.run_both(run, artifact) == (3, 3)


def _probes(mutate):
    def apply(artifact):
        mutate(artifact["probes"])
    return apply


# Malformed recommender probe blocks: verify-model must exit 3.
RECOMMENDER_PROBE_MUTATIONS = {
    "missing probes": lambda a: _drop_key(a, "probes"),
    "probes not a dict": _set("probes", []),
    "missing pairs": _probes(lambda p: _drop_key(p, "pairs")),
    "empty pairs": _probes(_set("pairs", [])),
    "pairs not a list": _probes(_set("pairs", {"user": "U000001"})),
    "pair not a dict": _probes(lambda p: p["pairs"].__setitem__(0, "U000001")),
    "numeric pair user": _probes(lambda p: p["pairs"][0].update(user=7)),
    "missing pair item": _probes(lambda p: _drop_key(p["pairs"][0], "item")),
    "string pair score": _probes(lambda p: p["pairs"][0].update(score="0.5")),
    "null pair score": _probes(lambda p: p["pairs"][0].update(score=None)),
    "bool pair score": _probes(lambda p: p["pairs"][0].update(score=True)),
    "missing top_n": _probes(lambda p: _drop_key(p, "top_n")),
    "empty top_n": _probes(_set("top_n", [])),
    "string n": _probes(lambda p: p["top_n"][0].update(n="5")),
    "bool n": _probes(lambda p: p["top_n"][0].update(n=True)),
    "float n": _probes(lambda p: p["top_n"][0].update(n=5.0)),
    "zero n": _probes(lambda p: p["top_n"][0].update(n=0)),
    "numeric top_n user": _probes(lambda p: p["top_n"][0].update(user=1)),
    "items not a list": _probes(lambda p: p["top_n"][0].update(items="Book")),
    "numeric item in items": _probes(lambda p: p["top_n"][0]["items"].append(3)),
}

def _inputs(mutate):
    return _probes(lambda p: mutate(p["inputs"]))


def _no_probe_rows(probes):
    for key in ("expected_features", "expected_labels", "expected_scores"):
        probes[key] = []
    for col in probes["inputs"].values():
        col["values"] = []


# Malformed classifier probe blocks: verify-model must exit 3.
CLASSIFIER_PROBE_MUTATIONS = {
    "missing probes": lambda a: _drop_key(a, "probes"),
    "probes not a dict": _set("probes", "probes"),
    "empty expected_features": _probes(_set("expected_features", [])),
    "expected_features a row short": _probes(_drop_rows("expected_features", 1)),
    "missing expected_features": _probes(lambda p: _drop_key(p, "expected_features")),
    "empty expected_labels": _probes(_set("expected_labels", [])),
    "expected_labels a row short": _probes(_drop_rows("expected_labels", 1)),
    "expected_labels a row long": _probes(lambda p: p["expected_labels"].append(0)),
    "expected_scores a row short": _probes(_drop_rows("expected_scores", 1)),
    "expected_scores not a list": _probes(_set("expected_scores", 0.5)),
    "missing inputs": _probes(lambda p: _drop_key(p, "inputs")),
    "empty inputs": _probes(_set("inputs", {})),
    "inputs not a dict": _probes(_set("inputs", [])),
    "vector input": _inputs(lambda i: i["price"].update(dtype="vector")),
    "tokens input": _inputs(lambda i: i["r_summary"].update(dtype="tokens")),
    "unknown input dtype": _inputs(lambda i: i["price"].update(dtype="float32")),
    "list input dtype": _inputs(lambda i: i["price"].update(dtype=["float64"])),
    "input not a dict": _inputs(lambda i: i.update(price=[1.0])),
    "missing input values": _inputs(lambda i: _drop_key(i["price"], "values")),
    "ragged inputs": _inputs(lambda i: i["price"]["values"].pop()),
    "string in int64 input": _inputs(lambda i: i["r_time"]["values"].__setitem__(0, "x")),
    "float in int64 input": _inputs(lambda i: i["r_time"]["values"].__setitem__(0, 1.5)),
    "bool in float64 input": _inputs(lambda i: i["price"]["values"].__setitem__(0, True)),
    "int64 input out of range": _inputs(lambda i: i["r_time"]["values"].__setitem__(0, 2**70)),
    "float64 input out of range": _inputs(
        lambda i: i["price"]["values"].__setitem__(0, 10**400)),
    "number in text input": _inputs(lambda i: i["r_summary"]["values"].__setitem__(0, 3)),
    "empty input name": _inputs(lambda i: i.update({"": i.pop("r_review")})),
    "no probe rows": _probes(_no_probe_rows),
}


class TestProbeBlockChecks:
    @staticmethod
    def verify(tmp_path, capsys, artifact):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        capsys.readouterr()
        code = main(["verify-model", "--path", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("name", sorted(CLASSIFIER_PROBE_MUTATIONS))
    def test_malformed_classifier_probes_are_data_errors(self, tmp_path, capsys, name):
        artifact = read_json(FIXTURES / "logistic_v1.model.json")
        CLASSIFIER_PROBE_MUTATIONS[name](artifact)
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ")

    def test_null_expected_scores_verifies(self, tmp_path, capsys):
        artifact = read_json(FIXTURES / "logistic_v1.model.json")
        artifact["probes"]["expected_scores"] = None
        assert self.verify(tmp_path, capsys, artifact)[0] == 0

    @pytest.fixture(scope="class")
    def als_artifact(self, prepared, tmp_path_factory):
        run = tmp_path_factory.mktemp("als-probes")
        (run / "prepared").symlink_to(prepared / "prepared", target_is_directory=True)
        assert main(["train", "--out", str(run), "--model", "als", "--sweeps", "3",
                     "--rank", "4", "--seed", "5"]) == 0
        return read_json(run / "model.json")

    @pytest.mark.parametrize("name", sorted(RECOMMENDER_PROBE_MUTATIONS))
    def test_malformed_recommender_probes_are_data_errors(self, tmp_path, capsys,
                                                          als_artifact, name):
        artifact = copy.deepcopy(als_artifact)
        RECOMMENDER_PROBE_MUTATIONS[name](artifact)
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ")


# tests/data/*_v1.model.json were written with this recipe: logistic and dtree
# by the code before feature rows became plain dicts, rforest and gbt by the
# code before trees became flat arrays, svc, als and als_implicit by the code
# before min-max scaling moved into its stage; see tests/data/README.md.
FIXTURE_SYNTH = ["--rows", "400", "--seed", "3"]
FIXTURE_TRAIN = ["--tuning", "tvs", "--vocab-size", "32", "--seed", "3"]
FIXTURE_TREE_MODELS = ["dtree", "rforest", "gbt"]
FIXTURE_LINEAR_MODELS = ["logistic", "svc"]
FIXTURE_CLASSIFIERS = [*FIXTURE_LINEAR_MODELS, *FIXTURE_TREE_MODELS]
FIXTURE_MODELS = [*FIXTURE_CLASSIFIERS, "als", "als_implicit"]
# Checked-in reports: the command that writes each (run on the recipe's
# prepared table) and the report file it writes.
FIXTURE_REPORTS = {
    "compare_v1.report.json": (["compare"], "compare_report.json"),
    "svc_cv_v1.report.json": (["train", "--model", "svc", "--tuning", "cv"],
                              "train_report.json"),
}


def strip_report(doc):
    """A report without its wall times and the paths its config echoes."""
    doc = strip_wall_times(doc)
    for key in ("ratings_csv", "books_csv", "out_dir"):
        del doc["config"][key]
    return doc


class TestCheckedInArtifacts:
    @pytest.fixture(scope="class")
    def recipe_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fixture-recipe")
        assert main(["synth", "--out", str(root / "corpus"), *FIXTURE_SYNTH]) == 0
        assert main(["prepare", "--ratings-csv", str(root / "corpus" / "Books_rating.csv"),
                     "--books-csv", str(root / "corpus" / "books_data.csv"),
                     "--out", str(root / "run"), "--seed", "3"]) == 0
        return root / "run"

    @pytest.fixture(scope="class")
    def fresh_artifact(self, recipe_run):
        """The artifact a fresh recipe train writes for a model kind, trained once per kind."""
        written = {}

        def train(model):
            if model not in written:
                assert main(["train", "--out", str(recipe_run), "--model", model,
                             *FIXTURE_TRAIN]) == 0
                written[model] = read_json(recipe_run / "model.json")
            return written[model]

        return train

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_fixture_verifies(self, tmp_path, model):
        assert main(["verify-model", "--path", str(FIXTURES / f"{model}_v1.model.json"),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_fresh_train_writes_fixture_probes(self, fresh_artifact, model):
        fixture = read_json(FIXTURES / f"{model}_v1.model.json")
        assert fresh_artifact(model)["probes"] == fixture["probes"]

    @pytest.mark.parametrize("model", FIXTURE_CLASSIFIERS)
    def test_fresh_train_writes_fixture_pipeline(self, fresh_artifact, model):
        # Every stage's fitted state, min-max ranges included, bit for bit.
        fixture = read_json(FIXTURES / f"{model}_v1.model.json")
        assert fresh_artifact(model)["pipeline"] == fixture["pipeline"]

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_fresh_train_writes_fixture_model(self, fresh_artifact, model):
        # Training must fit the same model: trees node for node, weights and
        # factors bit for bit.
        fixture = read_json(FIXTURES / f"{model}_v1.model.json")
        assert fresh_artifact(model)["model"] == fixture["model"]

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_REPORTS))
    def test_fresh_run_writes_fixture_report(self, recipe_run, fixture):
        # Every metric, tuning candidate and confusion count, bit for bit.
        command, report = FIXTURE_REPORTS[fixture]
        assert main([*command, "--out", str(recipe_run), "--vocab-size", "32",
                     "--seed", "3"]) == 0
        assert strip_report(read_json(recipe_run / report)) == read_json(FIXTURES / fixture)

    @pytest.mark.parametrize("model", FIXTURE_MODELS)
    def test_fixture_model_round_trips(self, model):
        from bookml.persist import model_from_json

        doc = read_json(FIXTURES / f"{model}_v1.model.json")["model"]
        assert model_from_json(doc).to_json() == doc


class TestModelKinds:
    def test_cli_kinds_are_the_persisted_kinds(self):
        from bookml.persist import MODEL_TYPES

        assert set(CLASSIFIER_MODELS + RECOMMENDER_MODELS) == set(MODEL_TYPES)

    @pytest.mark.parametrize("kind", CLASSIFIER_MODELS + RECOMMENDER_MODELS)
    def test_make_estimator_builds_its_kind(self, kind):
        from bookml.cli import RunConfig, make_estimator
        from bookml.persist import model_class

        assert type(make_estimator(RunConfig(model=kind), 2)) is model_class(kind)

    @pytest.mark.parametrize("kind", sorted(MODEL_TYPES))
    def test_unfitted_model_has_no_document(self, kind):
        from bookml.persist import model_class

        with pytest.raises(NotFittedError):
            model_class(kind)().to_json()


def _tree_nodes(model):
    """Every node of a tree model document: each tree in order, nodes in preorder."""
    stack = [model["root"]] if "root" in model else list(reversed(model["trees"]))
    nodes = []
    while stack:
        node = stack.pop()
        nodes.append(node)
        if "feature" in node:
            stack += [node["right"], node["left"]]
    return nodes


def _on_node(leaf, mutate):
    """Mutate the first leaf (leaf=True) or split node of a tree model document."""
    def apply(model):
        mutate(next(n for n in _tree_nodes(model) if ("feature" in n) != leaf))
    return apply


def _on_split(mutate):
    return _on_node(False, mutate)


def _on_leaf(mutate):
    return _on_node(True, mutate)


# Malformed tree model documents (dtree, rforest and gbt): verify-model must exit 3.
TREE_DOC_MUTATIONS = {
    "leaf without prediction": _on_leaf(lambda n: _drop_key(n, "prediction")),
    "split without left": _on_split(lambda n: _drop_key(n, "left")),
    "split without right": _on_split(lambda n: _drop_key(n, "right")),
    "split without gain": _on_split(lambda n: _drop_key(n, "gain")),
    "split without threshold": _on_split(lambda n: _drop_key(n, "threshold")),
    "feature out of range": _on_split(_set("feature", 1000000)),
    "feature equal to dim": lambda m: _on_split(_set("feature", m["dim"]))(m),
    "negative feature": _on_split(_set("feature", -1)),
    "float feature": _on_split(_set("feature", 0.0)),
    "null feature": _on_split(_set("feature", None)),
    "string threshold": _on_split(_set("threshold", "0.5")),
    "NaN threshold": _on_split(_set("threshold", float("nan"))),
    "infinite gain": _on_split(_set("gain", float("inf"))),
    "bool gain": _on_split(_set("gain", True)),
    "missing n": _on_leaf(lambda n: _drop_key(n, "n")),
    "zero n": _on_leaf(_set("n", 0)),
    "bool n": _on_split(_set("n", True)),
    "float n": _on_split(_set("n", 2.0)),
    "child not an object": _on_split(_set("left", [1.0])),
    "missing dim": lambda m: _drop_key(m, "dim"),
    "string dim": _set("dim", "64"),
    "zero dim": _set("dim", 0),
    "dim wider than the features": lambda m: m.update(dim=m["dim"] + 1),
    "params not an object": _set("params", []),
    "unknown param": lambda m: m["params"].update(extra=1),
    "missing param": lambda m: _drop_key(m["params"], "max_depth"),
}

# Malformed class-distribution trees (dtree and rforest).
DISTRIBUTION_TREE_MUTATIONS = {
    "1-long prediction": _on_leaf(_set("prediction", [1.0])),
    "number prediction": _on_leaf(_set("prediction", 0.5)),
    "NaN in prediction": _on_leaf(lambda n: n["prediction"].__setitem__(0, float("nan"))),
    "string in prediction": _on_leaf(lambda n: n["prediction"].__setitem__(0, "0.5")),
    "missing num_classes": lambda m: _drop_key(m, "num_classes"),
    "zero num_classes": _set("num_classes", 0),
}

# Malformed tree lists (rforest and gbt).
TREE_LIST_MUTATIONS = {
    "empty trees": _set("trees", []),
    "trees not a list": lambda m: m.update(trees=m["trees"][0]),
    "missing trees": lambda m: _drop_key(m, "trees"),
}

# Malformed boosted-score trees (gbt).
SCORE_TREE_MUTATIONS = {
    "list leaf score": _on_leaf(lambda n: n.update(prediction=[n["prediction"]])),
    "string leaf score": _on_leaf(_set("prediction", "0.5")),
    "NaN leaf score": _on_leaf(_set("prediction", float("nan"))),
    "missing initial_score": lambda m: _drop_key(m, "initial_score"),
    "string initial_score": _set("initial_score", "0.1"),
    "infinite initial_score": _set("initial_score", float("-inf")),
    "string learning_rate": lambda m: m["params"].update(learning_rate="0.1"),
}

CLASSIFIER_MODEL_CASES = sorted(
    [(kind, name) for kind in FIXTURE_TREE_MODELS for name in TREE_DOC_MUTATIONS]
    + [(kind, name) for kind in ("dtree", "rforest") for name in DISTRIBUTION_TREE_MUTATIONS]
    + [(kind, name) for kind in ("rforest", "gbt") for name in TREE_LIST_MUTATIONS]
    + [("gbt", name) for name in SCORE_TREE_MUTATIONS])
CLASSIFIER_MODEL_MUTATIONS = {
    **TREE_DOC_MUTATIONS, **DISTRIBUTION_TREE_MUTATIONS, **TREE_LIST_MUTATIONS,
    **SCORE_TREE_MUTATIONS,
}


def _weights(mutate):
    return lambda m: mutate(m["weights"])


# Malformed linear model documents (logistic and svc): verify-model must exit 3.
LINEAR_DOC_MUTATIONS = {
    "missing weights": lambda m: _drop_key(m, "weights"),
    "missing intercepts": lambda m: _drop_key(m, "intercepts"),
    "missing training": lambda m: _drop_key(m, "training"),
    "missing num_classes": lambda m: _drop_key(m, "num_classes"),
    "missing format_version": lambda m: _drop_key(m, "format_version"),
    "format_version 2": _set("format_version", 2),
    "bool format_version": _set("format_version", True),
    "weights row one entry short": _weights(lambda w: w[0].pop()),
    "weights a row short": _weights(lambda w: w.pop()),
    "weights a row long": _weights(lambda w: w.append(list(w[0]))),
    "weights not a list": _set("weights", 1.0),
    "NaN weight": _weights(lambda w: w[0].__setitem__(0, float("nan"))),
    "infinite weight": _weights(lambda w: w[-1].__setitem__(-1, float("-inf"))),
    "string weight": _weights(lambda w: w[0].__setitem__(0, "0.5")),
    "null weight": _weights(lambda w: w[0].__setitem__(0, None)),
    "bool weight": _weights(lambda w: w[0].__setitem__(0, True)),
    "intercepts one short": lambda m: m["intercepts"].pop(),
    "nested intercepts": lambda m: m.update(intercepts=[m["intercepts"]]),
    "NaN intercept": lambda m: m["intercepts"].__setitem__(0, float("nan")),
    "string intercept": lambda m: m["intercepts"].__setitem__(0, "1"),
    "dim wider than the weights": lambda m: m.update(dim=m["dim"] + 1),
    "dim narrower than the weights": lambda m: m.update(dim=m["dim"] - 1),
    "string dim": _set("dim", "34"),
    "zero dim": _set("dim", 0),
    "one class": _set("num_classes", 1),
    "three classes": _set("num_classes", 3),
    "float num_classes": _set("num_classes", 2.0),
    "params not an object": _set("params", None),
    "unknown param": lambda m: m["params"].update(extra=1),
    "missing param": lambda m: _drop_key(m["params"], "l2_reg"),
    "training not an object": _set("training", [100, 0.1]),
    "missing iterations": lambda m: _drop_key(m["training"], "iterations"),
    "negative iterations": lambda m: m["training"].update(iterations=-1),
    "float iterations": lambda m: m["training"].update(iterations=100.0),
    "NaN final_objective": lambda m: m["training"].update(final_objective=float("nan")),
    "string final_objective": lambda m: m["training"].update(final_objective="0.1"),
    "extra training key": lambda m: m["training"].update(extra=1),
}
LINEAR_MODEL_CASES = [(kind, name) for kind in FIXTURE_LINEAR_MODELS
                      for name in sorted(LINEAR_DOC_MUTATIONS)]


def _stages(mutate):
    def apply(artifact):
        mutate(artifact["pipeline"]["stages"])
    return apply


def _on_stage(mutate):
    return _stages(lambda stages: mutate(stages[0]))


# Malformed pipeline blocks of a classifier artifact: verify-model must exit 3.
PIPELINE_MUTATIONS = {
    "missing pipeline": lambda a: _drop_key(a, "pipeline"),
    "pipeline not an object": _set("pipeline", []),
    "missing stages": lambda a: _drop_key(a["pipeline"], "stages"),
    "stages not a list": lambda a: a["pipeline"].update(stages={"type": "tokenize"}),
    "stage not an object": _stages(lambda s: s.__setitem__(0, "tokenize")),
    "stage without type": _on_stage(lambda s: _drop_key(s, "type")),
    "list stage type": _on_stage(lambda s: s.update(type=[s["type"]])),
    "stage without params": _on_stage(lambda s: _drop_key(s, "params")),
    "params not an object": _on_stage(_set("params", [])),
    "unknown stage param": _on_stage(lambda s: s["params"].update(extra=1)),
    "missing stage param": _on_stage(lambda s: _drop_key(s["params"], "input_col")),
    "stage without state": _on_stage(lambda s: _drop_key(s, "state")),
    "state not an object": _on_stage(_set("state", [])),
}


def _state(stage_type, mutate):
    """Mutate the state of the first stage of stage_type."""
    return _stages(lambda stages: mutate(
        next(s for s in stages if s["type"] == stage_type)["state"]))


# Malformed stage states of a classifier artifact's pipeline: verify-model must exit 3.
PIPELINE_MUTATIONS.update({
    "count_tokens empty state": _state("count_tokens", dict.clear),
    "count_tokens extra key": _state("count_tokens", lambda s: s.update(extra=1)),
    "count_tokens term not a string": _state("count_tokens", lambda s: s["terms"].__setitem__(0, 7)),
    "count_tokens terms not a list": _state("count_tokens", _set("terms", "great")),
    "count_tokens duplicate term": _state(
        "count_tokens", lambda s: s["terms"].__setitem__(1, s["terms"][0])),
    "count_tokens doc_freq a term short": _state("count_tokens", lambda s: s["doc_freq"].pop()),
    "count_tokens zero doc_freq": _state("count_tokens", lambda s: s["doc_freq"].__setitem__(0, 0)),
    "count_tokens doc_freq above corpus_size": _state(
        "count_tokens", lambda s: s["doc_freq"].__setitem__(0, s["corpus_size"] + 1)),
    "count_tokens string doc_freq": _state(
        "count_tokens", lambda s: s["doc_freq"].__setitem__(0, "3")),
    "count_tokens zero corpus_size": _state("count_tokens", _set("corpus_size", 0)),
    "count_tokens float corpus_size": _state("count_tokens", _set("corpus_size", 300.0)),
    "filter_stopwords missing stopwords": _state(
        "filter_stopwords", lambda s: _drop_key(s, "stopwords")),
    "filter_stopwords stopwords not a list": _state("filter_stopwords", _set("stopwords", "the")),
    "filter_stopwords number stopword": _state(
        "filter_stopwords", lambda s: s["stopwords"].__setitem__(0, 1)),
    "weight_idf missing weights": _state("weight_idf", dict.clear),
    "weight_idf weights a term short": _state("weight_idf", lambda s: s["weights"].pop()),
    "weight_idf NaN weight": _state("weight_idf", lambda s: s["weights"].__setitem__(0, float("nan"))),
    "weight_idf string weight": _state("weight_idf", lambda s: s["weights"].__setitem__(0, "1")),
    "weight_idf weights not a list": _state("weight_idf", _set("weights", {"a": 1.0})),
    "scale_minmax min above max": _state(
        "scale_minmax", lambda s: s.update(min=s["max"] + 1.0)),
    "scale_minmax NaN min": _state("scale_minmax", _set("min", float("nan"))),
    "scale_minmax infinite max": _state("scale_minmax", _set("max", float("inf"))),
    "scale_minmax string max": _state("scale_minmax", _set("max", "10")),
    "scale_minmax missing max": _state("scale_minmax", lambda s: _drop_key(s, "max")),
    "tokenize state not empty": _state("tokenize", lambda s: s.update(vocab=[])),
    "assemble block_map not a list": _state("assemble", _set("block_map", {})),
    "assemble entry not an object": _state(
        "assemble", lambda s: s["block_map"].__setitem__(0, "price_norm")),
    "assemble entry without length": _state(
        "assemble", lambda s: _drop_key(s["block_map"][0], "length")),
    "assemble string offset": _state(
        "assemble", lambda s: s["block_map"][1].update(offset="1")),
    "assemble offset gap": _state(
        "assemble", lambda s: s["block_map"][1].update(offset=s["block_map"][1]["offset"] + 1)),
    "assemble negative length": _state(
        "assemble", lambda s: s["block_map"][0].update(length=-1)),
    "assemble block renamed": _state(
        "assemble", lambda s: s["block_map"][0].update(name="other")),
    "assemble block dropped": _state("assemble", lambda s: s["block_map"].pop()),
})


class TestClassifierArtifactChecks:
    """A classifier artifact's model and pipeline are checked as they load."""

    verify = staticmethod(TestProbeBlockChecks.verify)

    @pytest.mark.parametrize("kind,name", CLASSIFIER_MODEL_CASES)
    def test_malformed_tree_model_is_data_error(self, tmp_path, capsys, kind, name):
        artifact = read_json(FIXTURES / f"{kind}_v1.model.json")
        CLASSIFIER_MODEL_MUTATIONS[name](artifact["model"])
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.fixture(scope="class")
    def tree_artifacts(self):
        return {kind: read_json(FIXTURES / f"{kind}_v1.model.json")
                for kind in FIXTURE_TREE_MODELS}

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_tree_model_is_data_error(self, tmp_path, capsys, tree_artifacts, data):
        kind = data.draw(st.sampled_from(FIXTURE_TREE_MODELS))
        artifact = copy.deepcopy(tree_artifacts[kind])
        nodes = _tree_nodes(artifact["model"])
        # A node of a tree, or the model document itself.
        node = ([artifact["model"]] + nodes)[data.draw(st.integers(0, len(nodes)))]
        action = data.draw(st.sampled_from(["drop", "retype", "nonfinite"]))
        if action == "nonfinite":
            bad = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
            if node is artifact["model"]:
                node["initial_score" if kind == "gbt" else "dim"] = bad
            elif "feature" in node:
                node[data.draw(st.sampled_from(["threshold", "gain"]))] = bad
            elif isinstance(node["prediction"], list):
                node["prediction"][data.draw(st.integers(0, len(node["prediction"]) - 1))] = bad
            else:
                node["prediction"] = bad
        else:
            key = data.draw(st.sampled_from(sorted(node)))
            if action == "drop":
                del node[key]
            else:
                node[key] = data.draw(st.sampled_from(
                    [None, True, "x", {"a": 1}, [[1.0]]]).filter(lambda v: v != node[key]))
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ")

    @pytest.mark.parametrize("name", sorted(PIPELINE_MUTATIONS))
    def test_malformed_pipeline_is_data_error(self, tmp_path, capsys, name):
        artifact = read_json(FIXTURES / "logistic_v1.model.json")
        PIPELINE_MUTATIONS[name](artifact)
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind,name", LINEAR_MODEL_CASES)
    def test_malformed_linear_model_is_data_error(self, tmp_path, capsys, kind, name):
        artifact = read_json(FIXTURES / f"{kind}_v1.model.json")
        LINEAR_DOC_MUTATIONS[name](artifact["model"])
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.fixture(scope="class")
    def linear_artifacts(self):
        return {kind: read_json(FIXTURES / f"{kind}_v1.model.json")
                for kind in FIXTURE_LINEAR_MODELS}

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_linear_model_is_data_error(self, tmp_path, capsys, linear_artifacts, data):
        kind = data.draw(st.sampled_from(FIXTURE_LINEAR_MODELS))
        artifact = copy.deepcopy(linear_artifacts[kind])
        model = artifact["model"]
        action = data.draw(st.sampled_from(["drop", "retype", "truncate", "ragged", "nonfinite"]))
        if action in ("drop", "retype"):
            # A key of the model document or of its training block.
            doc = data.draw(st.sampled_from([model, model["training"]]))
            key = data.draw(st.sampled_from(sorted(doc)))
            if action == "drop":
                del doc[key]
            else:
                doc[key] = data.draw(st.sampled_from(
                    [None, True, "x", {"a": 1}, [[1.0]]]).filter(lambda v: v != doc[key]))
        else:
            rows = data.draw(st.sampled_from([model["weights"], [model["intercepts"]]]))
            i = data.draw(st.integers(0, len(rows) - 1))
            if action == "truncate":
                del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
            elif action == "ragged":
                rows[i].append(0.5)
            else:
                j = data.draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        code, err = self.verify(tmp_path, capsys, artifact)
        assert code == 3 and err.startswith("error: ")


class TestRequestPath:
    def test_client_rows_score_like_the_feature_matrix(self, prepared, tmp_path):
        # The benchmark's request client scores 32-row requests by stacking
        # value_at rows with validation.stack_vectors.
        from bookml import validation
        from bookml.persist import load_artifact, model_from_json
        from bookml.pipeline import Pipeline
        from bookml.table import load_table

        run = tmp_path / "run"
        run.mkdir()
        (run / "prepared").symlink_to(prepared / "prepared", target_is_directory=True)
        assert main(["train", "--out", str(run), "--model", "logistic",
                     "--vocab-size", "64", "--seed", "5"]) == 0
        artifact = load_artifact(run / "model.json")
        pipe = Pipeline.from_json(artifact["pipeline"])
        model = model_from_json(artifact["model"])
        table = load_table(run / "prepared")
        for start in range(0, min(table.row_count, 128), 32):
            out = pipe.transform(table.take(np.arange(start, min(start + 32, table.row_count))))
            col = out.column("features")
            X = validation.stack_vectors([col.value_at(i) for i in range(out.row_count)])
            want = col.values
            assert type(X) is type(want)
            np.testing.assert_array_equal(model.decision_function(X),
                                          model.decision_function(want))


class TestConfigFile:
    def test_flags_override_file(self, corpus, tmp_path):
        root, stats = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ratings_csv": stats.ratings_path,
            "books_csv": stats.books_path,
            "out_dir": str(tmp_path / "from-file"),
            "seed": 1,
        }), encoding="utf-8")
        code = main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "flag-wins")])
        assert code == 0
        assert (tmp_path / "flag-wins" / "prepare.done").exists()
        assert not (tmp_path / "from-file").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert main(["prepare", "--config", "/definitely/not/here.json"]) == 2

    @pytest.mark.parametrize("doc", [
        {"cv_k": "3", "tuning": "cv"},
        {"cv_k": True},
        {"use_review_text": 1},
        {"tvs_ratio": "0.8"},
        {"grid": [1, 2]},
    ])
    def test_config_value_types_checked(self, prepared, tmp_path, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["train", "--out", str(prepared), "--model", "logistic",
                     "--config", str(cfg)])
        assert code == 2

    def test_int_accepted_for_float_field(self, tmp_path):
        from bookml.cli import load_config

        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"als_reg": 1, "sample_rows": None}), encoding="utf-8")
        assert load_config(str(cfg), {}).als_reg == 1

    @pytest.mark.parametrize("flag", ["--vocab-size", "--min-df"])
    def test_nonpositive_vocab_settings_rejected_before_loading(self, tmp_path, flag):
        # No prepared table exists here: a config error must come first.
        code = main(["train", "--out", str(tmp_path / "fresh"), "--model", "logistic",
                     flag, "0"])
        assert code == 2

    def test_sample_rows_rejected_outside_prepare(self, prepared):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(prepared), "--model", "logistic",
                  "--sample-rows", "10"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("flags", [
        ["--model", "logistic", "--tuning", "cv", "--k", "1"],
        ["--model", "logistic", "--ratio", "1.0"],
        ["--model", "logistic", "--ratio", "0"],
        ["--model", "logistic", "--metric", "auc"],
        ["--model", "als", "--rank", "0"],
        ["--model", "als", "--reg", "-0.5"],
        ["--model", "als", "--sweeps", "-1"],
        ["--model", "als_implicit", "--alpha", "0"],
    ])
    def test_range_errors_rejected_before_loading(self, tmp_path, flags):
        # No prepared table exists here: a config error must come first.
        code = main(["train", "--out", str(tmp_path / "fresh"), *flags])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["train", "--model", "logistic"],
        ["compare"],
        ["recommend", "--user", "u1"],
        ["verify-model"],
    ])
    def test_sample_rows_in_config_rejected_outside_prepare(self, prepared, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_rows": 10}), encoding="utf-8")
        code = main([*command, "--out", str(prepared), "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_malformed_fraction_range_rejected_before_loading(self, tmp_path, fraction):
        # The CSVs do not exist: a config error must come before the data error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_malformed_fraction": fraction}), encoding="utf-8")
        code = main(["prepare", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--ratings-csv", str(tmp_path / "r.csv"),
                     "--books-csv", str(tmp_path / "b.csv")])
        assert code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["prepare", "--ratings-csv", "missing-r.csv", "--books-csv", "missing-b.csv"],
        ["train", "--model", "logistic"],
        ["compare"],
        ["recommend", "--user", "u1"],
        ["verify-model"],
    ])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_rejected_before_loading(self, tmp_path, capsys, command, below):
        # --out names an existing file, or a path below one; nothing is read.
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        out = taken / "run" if below else taken
        code = main([*command, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("model, grid", [
        ("logistic", {"nope": [1]}),
        ("logistic", {"l2_reg": ["a"]}),
        ("logistic", {"l2_reg": [True]}),
        ("logistic", {"max_iters": [0]}),
        ("logistic", {"max_iters": [1.5]}),
        ("logistic", {"num_classes": ["3"]}),
        ("logistic", {"tol": [0]}),
        ("logistic", {"max_iters": 100}),
        ("logistic", {"max_iters": []}),
        ("svc", {"step_size": [-1.0]}),
        ("svc", {"l2_reg": [0.0, -0.1]}),
        ("dtree", {"max_depth": ["deep"]}),
        ("rforest", {"num_trees": [-1]}),
        ("rforest", {"bootstrap": [1]}),
        ("gbt", {"learning_rate": [0]}),
        ("gbt", {"num_iters": [-1]}),
        ("dtree", {"max_bins": [1]}),
        ("dtree", {"max_bins": [0]}),
        ("dtree", {"max_depth": [-1]}),
        ("dtree", {"min_instances_per_node": [0]}),
        ("rforest", {"feature_subset_size": [0]}),
        ("rforest", {"max_bins": [1]}),
        ("gbt", {"max_depth": [-1]}),
        ("gbt", {"min_instances_per_node": [0]}),
        ("logistic", {"l2_reg": [float("nan")]}),
        ("logistic", {"l2_reg": [float("inf")]}),
        ("gbt", {"learning_rate": [float("nan")]}),
        # Factor models are not tuned: any grid, even a valid-looking one, is rejected.
        ("als", {"reg": [0.1]}),
        ("als", {"l2_reg": [float("nan")]}),
        ("als_implicit", {}),
    ])
    def test_bad_grid_rejected_before_loading(self, tmp_path, capsys, model, grid):
        # No prepared table exists here: a config error must come first.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}), encoding="utf-8")
        code = main(["train", "--out", str(tmp_path / "fresh"), "--model", model,
                     "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: grid: ")
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("flags, doc", [
        (["--model", "als"], {"als_reg": float("nan")}),
        (["--model", "als_implicit"], {"als_alpha": float("inf")}),
        (["--model", "logistic"], {"test_fraction": float("nan")}),
        (["--model", "logistic"], {"tvs_ratio": float("-inf")}),
        (["--model", "als", "--reg", "nan"], None),
        (["--model", "als_implicit", "--alpha", "inf"], None),
        (["--model", "logistic", "--ratio", "nan"], None),
    ])
    def test_nonfinite_config_rejected_before_loading(self, tmp_path, capsys, flags, doc):
        # No prepared table exists here: a config error must come first.
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        code = main(["train", "--out", str(tmp_path / "fresh"), *flags])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("argv, config", [
        (["train", "--model", "als", "--seed", "-5"], None),
        (["train", "--model", "als"], {"seed": -5}),
        (["prepare", "--ratings-csv", "r.csv", "--books-csv", "b.csv", "--seed", "-1"], None),
        (["synth", "--rows", "10", "--seed", "-1"], None),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv, config):
        # Nothing exists to load: the seed must be rejected first, and without a traceback.
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", [
        {"l2_reg": [1, 0.5], "max_iters": [10]},
        {"num_classes": [None, 5], "seed": [0]},
        {},
    ])
    def test_valid_grid_accepted(self, tmp_path, grid):
        from bookml.cli import load_config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}), encoding="utf-8")
        assert load_config(str(cfg), {}).grid == grid

    @pytest.mark.parametrize("rows", ["-3", "0"])
    def test_nonpositive_sample_rows_rejected_before_loading(self, tmp_path, capsys, rows):
        # The CSVs do not exist: a config error must come before the data error.
        code = main(["prepare", "--out", str(tmp_path / "run"), "--sample-rows", rows,
                     "--ratings-csv", str(tmp_path / "r.csv"),
                     "--books-csv", str(tmp_path / "b.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "sample_rows" in err
        assert not (tmp_path / "run").exists()

    def test_sample_rows_in_config_honoured_by_prepare(self, corpus, tmp_path):
        root, stats = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_rows": 50}), encoding="utf-8")
        out = tmp_path / "sampled"
        code = main(["prepare", "--ratings-csv", stats.ratings_path,
                     "--books-csv", stats.books_path, "--out", str(out),
                     "--config", str(cfg)])
        assert code == 0
        assert read_json(out / "prepare_summary.json")["rows_after_sampling"] == 50


class TestTreeDeterminism:
    def test_tree_flows_equal_across_directories(self, corpus, tmp_path):
        # Same corpus and seed in two directories: every JSON output of the
        # forest and boosting flows has the same fingerprint, which leaves
        # wall times and the output directory out.
        root, stats = corpus
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["prepare", "--ratings-csv", stats.ratings_path,
                         "--books-csv", stats.books_path, "--out", str(out),
                         "--seed", "7"]) == 0
            prints = {}
            for model, tuning in (("rforest", "cv"), ("gbt", "tvs")):
                assert main(["train", "--out", str(out), "--model", model,
                             "--tuning", tuning, "--seed", "7"]) == 0
                prints[model] = fingerprints(out, out)
                assert {"train_report.json", "model.json"} <= set(prints[model])
            runs.append(prints)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flow", ["compare", "recommender"])
    def test_flows_equal_across_import_states(self, corpus, tmp_path, cli_subprocess, flow):
        # One side runs each command in a fresh process, where the recommender
        # path never loads scipy; the other runs in this process, where it is
        # loaded. Every JSON output matches once wall times and the output
        # directory are taken out.
        import scipy.sparse  # noqa: F401  (loaded for the in-process side)

        root, stats = corpus
        commands = [["prepare", "--ratings-csv", stats.ratings_path,
                     "--books-csv", stats.books_path, "--seed", "7"]]
        outputs = ["prepare_summary.json"]
        if flow == "compare":
            commands.append(["compare", "--seed", "7", "--vocab-size", "64"])
            outputs.append("compare_report.json")
        else:
            commands += [
                ["train", "--model", "als", "--rank", "4", "--sweeps", "4", "--seed", "7"],
                ["recommend", "--user", "U000001", "--n", "5", "--evaluate", "--seed", "7"],
                ["verify-model"],
            ]
            outputs += ["train_report.json", "model.json", "recommend_report.json"]
        runs = []
        for side in ("fresh", "loaded"):
            out = tmp_path / side
            for argv in commands:
                argv = [*argv, "--out", str(out)]
                if side == "fresh":
                    code, scipy_loaded = cli_subprocess(argv)
                    assert scipy_loaded == (flow == "compare" and argv[0] == "compare")
                else:
                    code = main(argv)
                assert code == 0, argv
            runs.append({
                name: strip_wall_times(json.loads(
                    (out / name).read_text(encoding="utf-8").replace(str(out), "<out>")))
                for name in outputs
            })
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)


class TestSynthCommand:
    @pytest.mark.parametrize("flags", [
        ["--rows", "-5"],
        ["--rows", "0"],
        ["--correlation", "2"],
        ["--correlation", "-0.1"],
        ["--correlation", "nan"],
        ["--missing-price-rate", "1.5"],
        ["--malformed-rate", "-1"],
    ])
    def test_out_of_range_flags_rejected(self, tmp_path, capsys, flags):
        code = main(["synth", "--out", str(tmp_path / "corpus"), *flags])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")
        assert not (tmp_path / "corpus").exists()

    def test_out_naming_a_file_rejected(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["synth", "--out", str(taken), "--rows", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_accounting_exact(self, tmp_path):
        from bookml import parse_csv
        from bookml.table import RATINGS_COLUMNS

        stats = generate_corpus(tmp_path, n_ratings=2000, seed=3,
                                malformed_rate=0.005, stress_rate=0.05)
        assert stats.malformed_written > 0
        res = parse_csv(stats.ratings_path, RATINGS_COLUMNS, max_malformed_fraction=0.05)
        assert res.malformed_records == stats.malformed_written
        assert res.records_seen == stats.n_ratings
        assert res.table.row_count == stats.n_ratings - stats.malformed_written
