"""Batch CLI: prepare -> train/compare -> recommend, plus model verification.

Commands are idempotent for a fixed config and seed: reports differ only in
wall-time fields. Every report echoes the full effective configuration,
defaults included, and each command drops a ``<command>.done`` marker in
the output directory when it finishes writing (``verify-model`` only when
the artifact verifies).

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.

The feature pipeline (and with it scipy) is imported inside the classifier
code only, so ``synth``, ``prepare``, the ALS ``train`` runs, ``recommend``
and ``verify-model`` of a recommender never load scipy.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report as report_mod
from .docspec import (Any, Bool, Const, Count, Doc, Finite, Int, ListOf, Nullable, Str, check,
                      load_json)
from .ensemble import block_importances
from .errors import BookmlError, ConfigError, DataError
from .linear import LogisticRegressionClassifier
from .metrics import evaluate_multiclass
from .persist import (
    ARTIFACT_FORMAT_VERSION,
    load_artifact,
    model_class,
    model_from_json,
    save_artifact,
)
from .recommend import build_interactions, evaluate_holdout
from .selection import SELECTION_METRICS, cross_validate, train_validation_split
from .synth import generate_corpus
from .table import (
    BOOKS_COLUMNS,
    RATINGS_COLUMNS,
    Table,
    join_inner,
    load_table,
    parse_csv,
    save_table,
    split_random,
)

CLASSIFIER_MODELS = ("logistic", "svc", "dtree", "rforest", "gbt")
RECOMMENDER_MODELS = ("als", "als_implicit")
BINARY_ONLY_MODELS = ("svc", "gbt")
TREE_FAMILY = ("dtree", "rforest", "gbt")

DEFAULT_GRIDS = {
    "logistic": {"l2_reg": [0.0, 0.01, 0.1], "max_iters": [100, 300]},
    "svc": {"l2_reg": [0.0, 0.01, 0.1], "max_iters": [100, 300]},
    "dtree": {"max_depth": [3, 5, 8]},
    "rforest": {"max_depth": [3, 5], "num_trees": [10, 20]},
    "gbt": {"learning_rate": [0.05, 0.1], "num_iters": [10, 20]},
}

PROBE_ROWS = 32
# The prepared columns a classifier artifact's probes hold: each one's dtype and value spec.
PROBE_INPUTS = {"price": ("float64", Finite), "r_time": ("int64", Int(-2**63, 2**63)),
                "r_summary": ("text", Str), "r_review": ("text", Str)}
R2_EXPLANATION = (
    "R2 = 1 - SS_res/SS_tot: negative values mean the model predicts held-out "
    "ratings worse than always predicting their mean."
)


@dataclass
class RunConfig:
    ratings_csv: str = ""
    books_csv: str = ""
    out_dir: str = "out"
    sample_rows: int | None = None
    label_mode: str = "binary"
    model: str = "logistic"
    tuning: str = "tvs"
    cv_k: int = 3
    tvs_ratio: float = 0.8
    metric: str = "f1"
    grid: dict | None = None
    seed: int = 0
    test_fraction: float = 0.2
    vocab_size: int = 4096
    min_df: int = 2
    use_review_text: bool = False
    max_malformed_fraction: float = 0.01
    als_rank: int = 10
    als_reg: float = 0.1
    als_sweeps: int = 10
    als_alpha: float = 40.0

    def validate(self):
        check(dataclasses.asdict(self), CONFIG_DOC, "config", ConfigError)
        if self.model in BINARY_ONLY_MODELS and self.label_mode != "binary":
            raise ConfigError(f"model {self.model!r} supports only label_mode=binary")
        # Written so that NaN fails them too; the library checks the model's
        # ranges again, but only once the prepared table is loaded.
        if not (0.0 < self.test_fraction < 1.0 and 0.0 < self.tvs_ratio < 1.0):
            raise ConfigError("test_fraction and tvs_ratio must lie strictly between 0 and 1")
        if not 0.0 <= self.max_malformed_fraction <= 1.0:
            raise ConfigError("max_malformed_fraction must lie in [0, 1]")
        if not (self.als_reg >= 0 and self.als_alpha > 0):
            raise ConfigError("als_reg must be >= 0 and als_alpha positive")
        if self.grid is not None:
            if self.model in RECOMMENDER_MODELS:
                raise ConfigError(f"grid: model {self.model!r} is not tuned, so it takes no grid")
            _check_grid(model_class(self.model), self.grid)
        return self

    def effective(self):
        """Full effective configuration, defaults included, for report echo."""
        doc = dataclasses.asdict(self)
        if self.model in CLASSIFIER_MODELS:
            doc["grid"] = self.grid or DEFAULT_GRIDS[self.model]
        return doc


# A config file, and the effective config of every command: each key is
# optional in a file.
CONFIG_FIELDS = {
    "ratings_csv": Str, "books_csv": Str, "out_dir": Str, "sample_rows": Nullable(Count),
    "label_mode": Const("multiclass", "binary"),
    "model": Const(*CLASSIFIER_MODELS, *RECOMMENDER_MODELS), "tuning": Const("cv", "tvs"),
    "cv_k": Int(2), "tvs_ratio": Finite, "metric": Const(*SELECTION_METRICS),
    "grid": Nullable(Doc({}, open=True)), "seed": Int(0), "test_fraction": Finite,
    "vocab_size": Count, "min_df": Count, "use_review_text": Bool,
    "max_malformed_fraction": Finite, "als_rank": Count, "als_reg": Finite,
    "als_sweeps": Int(0), "als_alpha": Finite,
}
CONFIG_DOC = Doc(CONFIG_FIELDS, optional=CONFIG_FIELDS)


def _check_grid(cls, grid):
    """ConfigError unless each axis names a parameter of the estimator class
    cls and lists values that fit its spec (cls.param_spec) and pass cls.check_params."""
    params = cls.param_spec().fields
    axes = Doc({name: ListOf(spec, min_len=1) for name, spec in params.items()}, optional=params)
    check(grid, axes, "", lambda msg: ConfigError(f"grid: {msg}"))
    for name, values in grid.items():
        for value in values:
            try:
                cls(**{name: value}).check_params()
            except DataError as exc:
                raise ConfigError(f"grid: {name}={value!r}: {exc}") from None


def load_config(path, overrides):
    cfg = RunConfig()
    if path:
        for key, value in load_json(path, CONFIG_DOC, ConfigError).items():
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _check_out_dir(path):
    """ConfigError unless path is a directory or can be created as one."""
    path = Path(path).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {existing} exists and is not a directory")


def _mark_done(out_dir, command):
    (Path(out_dir) / f"{command}.done").write_text("ok\n", encoding="utf-8")


def _finish(out, command, report, lines):
    """Write <command>_report.json and <command>_report.txt, then mark the command done."""
    _write_json(out / f"{command}_report.json", report)
    (out / f"{command}_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _mark_done(out, command)


# ---------------------------------------------------------------- prepare


def _price(raw):
    """A price cell as a finite float, or None when it does not parse as one."""
    try:
        price = float(raw)
    except ValueError:
        return None
    return price if math.isfinite(price) else None


def cmd_prepare(cfg):
    """Parse, join, coerce, and persist the modeling table."""
    if not cfg.ratings_csv or not cfg.books_csv:
        raise ConfigError("prepare requires ratings_csv and books_csv")
    for path in (cfg.ratings_csv, cfg.books_csv):
        if not Path(path).is_file():
            raise DataError(f"{path}: input CSV not found")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ratings = parse_csv(cfg.ratings_csv, RATINGS_COLUMNS, cfg.max_malformed_fraction)
    books = parse_csv(cfg.books_csv, BOOKS_COLUMNS, cfg.max_malformed_fraction)
    # Join only what prepare reads: the ratings columns it keeps, price, and the key.
    kept_columns = ["title", "user_id", "r_score", "r_time", "r_summary", "r_review"]
    joined = join_inner(ratings.table.select(kept_columns + ["price"]),
                        books.table.select(["title"]), "title", "title")
    if joined.row_count == 0:
        raise DataError("join produced zero rows; do the two files share titles?")

    # Each dropped row counts under the first reason it fails, in this order.
    price_col = joined.column("price")
    price = np.array([_price(raw) for raw in price_col.values], dtype=np.float64)
    price[price_col.mask] = np.nan
    score_col = joined.column("r_score")
    fails = {
        "missing_price": np.isnan(price),
        "missing_score": score_col.mask,
        "invalid_score": (score_col.values < 1) | (score_col.values > 5),
        "missing_time": joined.column("r_time").mask,
        "missing_summary": joined.column("r_summary").mask,
    }
    dropped = np.zeros(joined.row_count, dtype=bool)
    drops = {}
    for reason, failed in fails.items():
        hit = failed & ~dropped
        drops[reason] = int(hit.sum())
        dropped |= hit
    keep = np.flatnonzero(~dropped)

    if not keep.size:
        raise DataError("every joined row was dropped during preparation")
    kept = joined.select(kept_columns).take(keep).with_column("price", "float64", price[keep])

    sampled = kept.row_count
    if cfg.sample_rows is not None and cfg.sample_rows < kept.row_count:
        rng = np.random.default_rng(cfg.seed)
        idx = np.sort(rng.choice(kept.row_count, size=cfg.sample_rows, replace=False))
        kept = kept.take(idx)
        sampled = cfg.sample_rows

    save_table(kept, out / "prepared")
    summary = {
        "config": cfg.effective(),
        "ratings_records": ratings.records_seen,
        "ratings_malformed": ratings.malformed_records,
        "books_records": books.records_seen,
        "books_malformed": books.malformed_records,
        "rows_in": joined.row_count,
        "rows_kept": joined.row_count - sum(drops.values()),
        "drop_reasons": drops,
        "rows_after_sampling": sampled,
    }
    _write_json(out / "prepare_summary.json", summary)
    _mark_done(out, "prepare")
    print(f"prepared {sampled} rows -> {out / 'prepared'}")
    print(f"  rows_in={summary['rows_in']} kept={summary['rows_kept']} drops={drops}")


# ---------------------------------------------------------------- features


def _features(cfg, train_tbl, test_tbl):
    """The feature pipeline fitted on train_tbl, and both tables' CSR feature matrices."""
    from .pipeline import (
        AssembleColumns,
        CountTokens,
        FilterStopwords,
        Pipeline,
        ScaleMinMax,
        TokenizeText,
        WeightIdf,
    )

    stages = [
        ScaleMinMax("price", "price_norm"),
        ScaleMinMax("r_time", "time_norm"),
        TokenizeText("r_summary", "summary_tokens"),
        FilterStopwords("summary_tokens", "summary_tokens_clean"),
        CountTokens("summary_tokens_clean", "summary_counts", cfg.vocab_size, cfg.min_df),
        WeightIdf("summary_counts", "summary_tfidf"),
    ]
    parts = ["price_norm", "time_norm", "summary_tfidf"]
    if cfg.use_review_text:
        stages.extend(
            [
                TokenizeText("r_review", "review_tokens"),
                FilterStopwords("review_tokens", "review_tokens_clean"),
                CountTokens("review_tokens_clean", "review_counts", cfg.vocab_size, cfg.min_df),
                WeightIdf("review_counts", "review_tfidf"),
            ]
        )
        parts.append("review_tfidf")
    pipe = Pipeline(stages + [AssembleColumns(parts, "features")])
    X_train = pipe.fit_transform(train_tbl).column("features").values
    X_test = pipe.transform(test_tbl).column("features").values
    return pipe, X_train, X_test


def make_labels(table, label_mode):
    col = table.column("r_score")
    if col.mask.any():
        raise DataError("prepared table has null scores; re-run prepare")
    scores = np.asarray(col.values, dtype=np.int64)
    if ((scores < 1) | (scores > 5)).any():
        raise DataError("scores outside 1-5 in prepared table")
    if label_mode == "binary":
        # The paper's binary task: ratings 1-3 -> 0, 4-5 -> 1.
        return np.where(scores >= 4, 1, 0), 2
    return scores - 1, 5


def make_estimator(cfg, num_classes=None):
    """An unfitted cfg.model estimator, given each of cfg's settings that its class takes."""
    cls = model_class(cfg.model)
    settings = {"num_classes": num_classes, "seed": cfg.seed, "rank": cfg.als_rank,
                "reg": cfg.als_reg, "sweeps": cfg.als_sweeps, "alpha": cfg.als_alpha}
    names = cls._param_names()
    return cls(**{name: value for name, value in settings.items() if name in names})


def _load_prepared(cfg):
    path = Path(cfg.out_dir) / "prepared"
    if not (path / "schema.json").exists():
        raise DataError(f"{path}: prepared table not found; run `prepare` first")
    return load_table(path)


def _artifact_model(artifact, kinds):
    """The artifact's model, checked to be one of kinds before it is built."""
    doc = check(artifact.get("model"), Doc({"kind": Const(*kinds)}, open=True), "model")
    return model_from_json(doc)


def _model_scores(model, X):
    """Exact per-row scores for tamper detection; shape depends on the model."""
    if hasattr(model, "decision_function"):
        return np.asarray(model.decision_function(X)).tolist()
    if hasattr(model, "predict_proba"):
        return np.asarray(model.predict_proba(X)).tolist()
    return None


def _classifier_probes(pipe, model, table):
    """The probe block of a classifier artifact: table's PROBE_INPUTS columns and what
    the pipeline and model make of them. train writes it; verify-model recomputes it."""
    out = pipe.transform(table)
    X = out.column("features").values

    def rows(col):
        return [col.value_at(i) for i in range(table.row_count)]

    columns = {name: table.column(name) for name in PROBE_INPUTS}
    return {
        "inputs": {name: {"dtype": col.dtype, "values": rows(col)} for name, col in columns.items()},
        "expected_features": rows(out.column("features")),
        "expected_labels": [int(p) for p in model.predict(X)],
        "expected_scores": _model_scores(model, X),
    }


def _class_balance(y, k):
    counts = np.bincount(y, minlength=k)
    return {str(c): int(n) for c, n in enumerate(counts)}


def _train_classifier(cfg, prepared, out):
    train_tbl, test_tbl = split_random(prepared, 1.0 - cfg.test_fraction, cfg.seed)
    pipe, X_train, X_test = _features(cfg, train_tbl, test_tbl)
    y_train, k = make_labels(train_tbl, cfg.label_mode)
    y_test, _ = make_labels(test_tbl, cfg.label_mode)
    if np.unique(y_train).shape[0] < 2:
        raise DataError("training labels contain a single class; cannot train")

    grid = cfg.grid or DEFAULT_GRIDS[cfg.model]
    estimator = make_estimator(cfg, k)
    started = time.perf_counter()
    if cfg.tuning == "cv":
        result = cross_validate(estimator, grid, X_train, y_train,
                                k=cfg.cv_k, metric=cfg.metric, seed=cfg.seed)
    else:
        result = train_validation_split(estimator, grid, X_train, y_train,
                                        train_ratio=cfg.tvs_ratio,
                                        metric=cfg.metric, seed=cfg.seed)
    tuning_seconds = time.perf_counter() - started
    model = result.best_model
    test_report = evaluate_multiclass(model.predict(X_test), y_test, k)

    importances = None
    if cfg.model in TREE_FAMILY:
        assemble_stage = pipe.stages[-1]
        importances = block_importances(model, assemble_stage.block_map_)

    artifact = {
        "artifact": "classifier",
        "config": cfg.effective(),
        "label_mode": cfg.label_mode,
        "num_classes": k,
        "pipeline": pipe.to_json(),
        "model": model.to_json(),
        "probes": _classifier_probes(pipe, model,
                                     train_tbl.head(min(PROBE_ROWS, train_tbl.row_count))),
    }
    save_artifact(out / "model.json", artifact)

    report = {
        "config": cfg.effective(),
        "split": {"train_rows": train_tbl.row_count, "test_rows": test_tbl.row_count,
                  "test_fraction": cfg.test_fraction, "seed": cfg.seed},
        "class_balance_train": _class_balance(y_train, k),
        "tuning": result.to_json(),
        "test_metrics": test_report.as_dict(),
        "wall_time_s": {"tuning": tuning_seconds},
    }
    lines = [
        f"model={cfg.model} label_mode={cfg.label_mode} tuning={cfg.tuning} "
        f"(k={cfg.cv_k}, ratio={cfg.tvs_ratio}, metric={cfg.metric}, seed={cfg.seed})",
        "",
        "tuning candidates:",
        report_mod.tuning_table(result),
        "",
        f"best params: {result.best_params} ({result.metric}={result.best_metric:.4f})",
        "",
        "held-out test metrics:",
        report_mod.metrics_table([(cfg.model, test_report, tuning_seconds)]),
        "",
        "test confusion matrix:",
        report_mod.confusion_table(test_report.confusion),
    ]
    if importances is not None:
        report["feature_importances"] = {
            "blocks": importances.names,
            "values": importances.values.tolist(),
            "degenerate": importances.degenerate,
        }
        lines += ["", "feature importances:", report_mod.importance_table(importances)]
    return report, lines


def _recommender_probes(model, pairs, users):
    """The probe block of a recommender artifact: the model's score of each (user, item)
    pair and its top 5 for each user. train writes it; verify-model recomputes it."""
    return {
        "pairs": [{"user": u, "item": v, "score": model.score(u, v).value} for u, v in pairs],
        "top_n": [
            {"user": u, "n": 5,
             "items": [item for item, _ in model.recommend_top_n(u, 5, exclude_seen=False)[0]]}
            for u in users
        ],
    }


def _train_recommender(cfg, prepared, out):
    data = build_interactions(prepared, "user_id", "title", "r_score")
    estimator = make_estimator(cfg)
    started = time.perf_counter()
    rmse, r2, n_test = evaluate_holdout(estimator, data, cfg.seed)
    model = estimator.clone().fit(data)
    train_seconds = time.perf_counter() - started

    rng = np.random.default_rng(cfg.seed)
    n_pairs = min(64, data.num_triples)
    pick = rng.choice(data.num_triples, size=n_pairs, replace=False)
    pairs = [
        (data.user_ids[data.users[i]], data.item_ids[data.items[i]])
        for i in pick
    ]
    probe_users = [data.user_ids[u] for u in
                   rng.choice(data.num_users, size=min(5, data.num_users), replace=False)]
    artifact = {
        "artifact": "recommender",
        "config": cfg.effective(),
        "model": model.to_json(),
        "probes": _recommender_probes(model, pairs, probe_users),
    }
    save_artifact(out / "model.json", artifact)

    report = {
        "config": cfg.effective(),
        "interactions": {
            "users": data.num_users, "items": data.num_items,
            "triples": data.num_triples, "dropped_nulls": data.dropped_nulls,
            "duplicates_resolved": data.duplicates_resolved,
        },
        "holdout": {"rmse": rmse, "r2": r2, "n_test": n_test, "seed": cfg.seed,
                    "protocol": "one held-out rating per user with >= 2 ratings"},
        "r2_explanation": R2_EXPLANATION,
        "objective_trace": np.asarray(model.objective_trace_).tolist(),
        "wall_time_s": {"train": train_seconds},
    }
    lines = [
        f"model={cfg.model} rank={cfg.als_rank} reg={cfg.als_reg} "
        f"sweeps={cfg.als_sweeps} alpha={cfg.als_alpha} seed={cfg.seed}",
        "",
        "per-user holdout evaluation:",
        report_mod.regression_table([(cfg.model, rmse, r2)]),
        "",
        R2_EXPLANATION,
    ]
    return report, lines


def cmd_train(cfg):
    # The prepared table lives in --out, so once it loads --out exists.
    out = Path(cfg.out_dir)
    prepared = _load_prepared(cfg)
    train = _train_recommender if cfg.model in RECOMMENDER_MODELS else _train_classifier
    report, lines = train(cfg, prepared, out)
    _finish(out, "train", report, lines)
    print("\n".join(lines))


# ---------------------------------------------------------------- compare


def cmd_compare(cfg):
    """Binary-vs-multiclass logistic regression on identical features and split."""
    out = Path(cfg.out_dir)
    prepared = _load_prepared(cfg)
    train_tbl, test_tbl = split_random(prepared, 1.0 - cfg.test_fraction, cfg.seed)

    scores = np.asarray(train_tbl.column("r_score").values, dtype=np.int64)
    shares = np.bincount(scores, minlength=6)[1:] / scores.shape[0]
    if shares.max() >= 0.99:
        report = {
            "config": cfg.effective(),
            "inconclusive": True,
            "reason": "single-class-dominant: one rating value covers "
                      f"{shares.max():.1%} of training rows",
        }
        _finish(out, "compare", report, [report["reason"]])
        print("comparison inconclusive: " + report["reason"])
        return

    _, X_train, X_test = _features(cfg, train_tbl, test_tbl)
    rows = []
    metrics = {}
    for label_mode in ("multiclass", "binary"):
        y_train, k = make_labels(train_tbl, label_mode)
        y_test, _ = make_labels(test_tbl, label_mode)
        started = time.perf_counter()
        model = LogisticRegressionClassifier(
            num_classes=k, l2_reg=0.01, max_iters=150, seed=cfg.seed
        ).fit(X_train, y_train)
        seconds = time.perf_counter() - started
        rep = evaluate_multiclass(model.predict(X_test), y_test, k)
        rows.append((f"logistic ({label_mode})", rep, seconds))
        metrics[label_mode] = {"report": rep, "seconds": seconds}

    delta = metrics["binary"]["report"].accuracy - metrics["multiclass"]["report"].accuracy
    report = {
        "config": cfg.effective(),
        "inconclusive": False,
        "split": {"train_rows": train_tbl.row_count, "test_rows": test_tbl.row_count,
                  "test_fraction": cfg.test_fraction, "seed": cfg.seed},
        "multiclass": metrics["multiclass"]["report"].as_dict(),
        "binary": metrics["binary"]["report"].as_dict(),
        "accuracy_delta": delta,
        "wall_time_s": {m: metrics[m]["seconds"] for m in metrics},
    }
    lines = [
        "binary vs multiclass logistic regression "
        f"(identical features, split, seed={cfg.seed}):",
        "",
        report_mod.metrics_table(rows),
        "",
        f"accuracy delta (binary - multiclass): {delta:+.4f}",
        "",
        "multiclass confusion matrix:",
        report_mod.confusion_table(metrics["multiclass"]["report"].confusion),
        "",
        "binary confusion matrix:",
        report_mod.confusion_table(metrics["binary"]["report"].confusion),
    ]
    _finish(out, "compare", report, lines)
    print("\n".join(lines))


# ---------------------------------------------------------------- recommend


def cmd_recommend(cfg, user_id, n, exclude_seen=True, evaluate=False):
    out = Path(cfg.out_dir)
    artifact = load_artifact(out / "model.json")
    if artifact.get("artifact") != "recommender":
        raise DataError("model.json is not a recommender artifact; train als/als_implicit first")
    model = _artifact_model(artifact, RECOMMENDER_MODELS)
    prepared = _load_prepared(cfg)
    data = build_interactions(prepared, "user_id", "title", "r_score")
    items, cold = model.recommend_top_n(user_id, n, exclude_seen=exclude_seen,
                                        interactions=data)
    lines = [f"top-{n} for user {user_id}" + (" [cold-start popularity fallback]" if cold else "")]
    for rank, (title, value) in enumerate(items, 1):
        lines.append(f"{rank:2d}. {title}  score={value:.4f}")
    report = {
        "config": cfg.effective(),
        "user": user_id,
        "cold_start": cold,
        "recommendations": [{"title": t, "score": s} for t, s in items],
    }
    if evaluate:
        estimator = model.clone()
        rmse, r2, n_test = evaluate_holdout(estimator, data, cfg.seed)
        report["holdout"] = {"rmse": rmse, "r2": r2, "n_test": n_test}
        report["r2_explanation"] = R2_EXPLANATION
        lines += ["", report_mod.regression_table([(artifact["model"]["kind"], rmse, r2)]),
                  "", R2_EXPLANATION]
    _finish(out, "recommend", report, lines)
    print("\n".join(lines))


# ---------------------------------------------------------------- verify


def _rows(probes):
    """The number of probe rows: the length of the first input column."""
    return len(next(iter(probes["inputs"].values()))["values"])


# Each artifact kind as verify-model reads it. The model and pipeline
# blocks declare their own documents (their classes' doc_spec, PIPELINE_DOC).
ARTIFACT_DOCS = {
    "classifier": Doc({
        "format_version": Const(ARTIFACT_FORMAT_VERSION), "artifact": Const("classifier"),
        "config": Any, "label_mode": Const("multiclass", "binary"), "num_classes": Count,
        "pipeline": Any, "model": Any,
        "probes": Doc({
            "inputs": Doc({name: Doc({"dtype": Const(dtype), "values": ListOf(Nullable(value),
                                                                              min_len=1)})
                           for name, (dtype, value) in PROBE_INPUTS.items()}),
            "expected_features": lambda p: ListOf(Doc({
                "dim": Count, "indices": ListOf(Int(0)), "values": ListOf(Finite)}),
                length=_rows(p)),
            "expected_labels": lambda p: ListOf(Int(), length=_rows(p)),
            "expected_scores": lambda p: Nullable(ListOf(Any, length=_rows(p))),
        }, optional=("expected_scores",)),
    }),
    "recommender": Doc({
        "format_version": Const(ARTIFACT_FORMAT_VERSION), "artifact": Const("recommender"),
        "config": Any, "model": Any,
        "probes": Doc({
            "pairs": ListOf(Doc({"user": Str, "item": Str, "score": Finite}), min_len=1),
            "top_n": ListOf(Doc({"user": Str, "n": Count, "items": ListOf(Str)}), min_len=1),
        }),
    }),
}


def _recomputed_probes(artifact):
    """The probe block that train's probe function makes of the artifact's model and inputs."""
    probes = artifact["probes"]
    if artifact["artifact"] == "recommender":
        model = _artifact_model(artifact, RECOMMENDER_MODELS)
        return _recommender_probes(model, [(p["user"], p["item"]) for p in probes["pairs"]],
                                   [p["user"] for p in probes["top_n"]])
    from .pipeline import Pipeline

    pipe = Pipeline.from_json(artifact["pipeline"])
    model = _artifact_model(artifact, CLASSIFIER_MODELS)
    inputs = probes["inputs"]
    if len({len(col["values"]) for col in inputs.values()}) != 1:
        raise DataError("probes.inputs columns must hold the same number of rows")
    table = Table.build([(name, col["dtype"], True) for name, col in inputs.items()],
                        {name: col["values"] for name, col in inputs.items()})
    return _classifier_probes(pipe, model, table)


def cmd_verify(path):
    """Deserialize an artifact, check its document, and recompute its probe block.

    Each entry of a probe list, and each other probe the artifact holds
    (a null expected_scores aside), must equal its recomputed value.
    """
    artifact = load_artifact(path)
    kind = artifact["artifact"]
    artifact = check(artifact, ARTIFACT_DOCS[kind], "")
    recomputed = _recomputed_probes(artifact)
    mismatches = []
    for key, want in artifact["probes"].items():
        got = recomputed[key]
        if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
            mismatches += [f"probes.{key}[{i}] differs"
                           for i, (w, g) in enumerate(zip(want, got)) if w != g]
        elif want is not None and want != got:
            mismatches.append(f"probes.{key} differs")
    if mismatches:
        raise DataError(
            f"{path}: verification failed with {len(mismatches)} mismatch(es): "
            + "; ".join(mismatches[:5])
        )
    print(f"{path}: verified ({kind})")


# ---------------------------------------------------------------- synth


def cmd_synth(args):
    check(args.rows, Count, "--rows", ConfigError)
    check(args.seed, Nullable(Int(0)), "--seed", ConfigError)
    for name in ("correlation", "missing_price_rate", "malformed_rate"):
        if not 0.0 <= getattr(args, name) <= 1.0:
            raise ConfigError(f"--{name.replace('_', '-')} must lie in [0, 1]")
    _check_out_dir(args.out)
    stats = generate_corpus(
        args.out,
        n_ratings=args.rows,
        seed=args.seed if args.seed is not None else 7,
        correlation=args.correlation,
        missing_price_rate=args.missing_price_rate,
        malformed_rate=args.malformed_rate,
    )
    print(
        f"wrote {stats.n_ratings} ratings over {stats.n_books} books / "
        f"{stats.n_users} users -> {args.out} "
        f"(malformed={stats.malformed_written}, missing_price={stats.missing_price})"
    )


# ---------------------------------------------------------------- argparse


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", dest="out_dir", default=None, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bookml",
        description="Book-review rating prediction and recommendation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest, join, clean, and persist the modeling table")
    _add_common(p)
    p.add_argument("--ratings-csv", dest="ratings_csv", default=None)
    p.add_argument("--books-csv", dest="books_csv", default=None)
    p.add_argument("--sample-rows", dest="sample_rows", type=int, default=None,
                   help="keep a seeded sample of this many cleaned rows")

    p = sub.add_parser("train", help="fit the configured model under cv or tvs tuning")
    _add_common(p)
    p.add_argument("--model", default=None, choices=CLASSIFIER_MODELS + RECOMMENDER_MODELS)
    p.add_argument("--label-mode", dest="label_mode", default=None,
                   choices=("multiclass", "binary"))
    p.add_argument("--tuning", default=None, choices=("cv", "tvs"))
    p.add_argument("--k", dest="cv_k", type=int, default=None)
    p.add_argument("--ratio", dest="tvs_ratio", type=float, default=None)
    p.add_argument("--metric", default=None)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
    p.add_argument("--use-review-text", dest="use_review_text",
                   action="store_const", const=True, default=None)
    p.add_argument("--rank", dest="als_rank", type=int, default=None)
    p.add_argument("--reg", dest="als_reg", type=float, default=None)
    p.add_argument("--sweeps", dest="als_sweeps", type=int, default=None)
    p.add_argument("--alpha", dest="als_alpha", type=float, default=None)

    p = sub.add_parser("compare", help="binary vs multiclass logistic on identical features")
    _add_common(p)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)
    p.add_argument("--min-df", dest="min_df", type=int, default=None)

    p = sub.add_parser("recommend", help="top-n titles from a trained factor model")
    _add_common(p)
    p.add_argument("--user", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--include-seen", action="store_true",
                   help="keep titles the user already rated")
    p.add_argument("--evaluate", action="store_true",
                   help="also report per-user holdout RMSE / R2")

    p = sub.add_parser("verify-model", help="round-trip a saved artifact against its probes")
    _add_common(p)
    p.add_argument("--path", default=None, help="artifact path (default: OUT/model.json)")

    p = sub.add_parser("synth", help="generate a synthetic two-file corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--correlation", type=float, default=0.6)
    p.add_argument("--missing-price-rate", type=float, default=0.02)
    p.add_argument("--malformed-rate", type=float, default=0.0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args)
            return 0
        overrides = {f.name: getattr(args, f.name)
                     for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
        cfg = load_config(args.config, overrides)
        _check_out_dir(cfg.out_dir)
        # Only prepare samples; --sample-rows exists on prepare alone, so a
        # value here came from the config file and would be ignored.
        if args.command != "prepare" and cfg.sample_rows is not None:
            raise ConfigError(f"{args.config}: sample_rows applies only to prepare")
        if args.command == "prepare":
            cmd_prepare(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "compare":
            cmd_compare(cfg)
        elif args.command == "recommend":
            cmd_recommend(cfg, args.user, args.n,
                          exclude_seen=not args.include_seen,
                          evaluate=args.evaluate)
        elif args.command == "verify-model":
            path = args.path or (Path(cfg.out_dir) / "model.json")
            cmd_verify(path)
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
            _mark_done(cfg.out_dir, "verify-model")
        return 0
    except BookmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
