"""Output checks computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
The expected values come from the inputs by code written here (Python's
``csv`` module, a reader of the documented table format, numpy algebra on
the weights and factors in ``model.json``, a walk of the tree JSON), or
from properties the method must have. Nothing is compared against a stored
copy of an earlier output.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Decision values computed here from model.json use dense algebra where the
# program may use sparse products, so they agree to rounding, not bit for bit.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-9
# Relative slack for a trace that must never increase (rounding in the
# objective evaluation itself).
MONOTONE_RTOL = 1e-9
RATINGS_FIELDS = 10
BOOKS_FIELDS = 10


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------------ prepare


def count_corpus(corpus_dir, sample_rows=None):
    """Expected prepare_summary counts, from the CSVs via the csv module.

    Mirrors the documented cleaning rules: records with the wrong field
    count are malformed; the inner join on exact title matches each ratings
    row with every book of that title; a joined row is dropped for a
    missing or non-numeric price, then missing score, score outside 1-5,
    missing time, missing summary, in that order.
    """
    corpus = Path(corpus_dir)
    csv.field_size_limit(1 << 24)
    books = {}
    books_records = books_malformed = 0
    with open(corpus / "books_data.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            if not rec:
                continue
            books_records += 1
            if len(rec) != BOOKS_FIELDS:
                books_malformed += 1
                continue
            books[rec[0]] = books.get(rec[0], 0) + 1

    drops = dict.fromkeys(("missing_price", "missing_score", "invalid_score",
                           "missing_time", "missing_summary"), 0)
    records = malformed = rows_in = kept = 0
    kept_users = []
    with open(corpus / "Books_rating.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            if not rec:
                continue
            records += 1
            if len(rec) != RATINGS_FIELDS:
                malformed += 1
                continue
            _, title, price, user, _, _, score, rtime, summary, _ = rec
            matches = books.get(title, 0) if title else 0
            rows_in += matches
            for _ in range(matches):
                reason = _drop_reason(price, score, rtime, summary)
                if reason:
                    drops[reason] += 1
                else:
                    kept += 1
                    kept_users.append(user)
    after = kept if sample_rows is None else min(sample_rows, kept)
    return {
        "ratings_records": records,
        "ratings_malformed": malformed,
        "books_records": books_records,
        "books_malformed": books_malformed,
        "rows_in": rows_in,
        "rows_kept": kept,
        "drop_reasons": drops,
        "rows_after_sampling": after,
        "kept_users": kept_users,
    }


def _as_int(raw):
    try:
        return int(raw)
    except ValueError:
        return None


def _drop_reason(price, score, rtime, summary):
    try:
        float(price)
    except ValueError:
        return "missing_price"
    score = _as_int(score)
    if score is None:
        return "missing_score"
    if not 1 <= score <= 5:
        return "invalid_score"
    if _as_int(rtime) is None:
        return "missing_time"
    if summary == "":
        return "missing_summary"
    return None


def check_prepare(summary, expected):
    fails = []
    for key in ("ratings_records", "ratings_malformed", "books_records",
                "books_malformed", "rows_in", "rows_kept", "rows_after_sampling"):
        if summary.get(key) != expected[key]:
            fails.append(f"prepare_summary {key}={summary.get(key)}, counted {expected[key]}")
    got_missing = summary.get("drop_reasons", {}).get("missing_price")
    if got_missing != expected["drop_reasons"]["missing_price"]:
        fails.append(f"missing_price drops={got_missing}, counted "
                     f"{expected['drop_reasons']['missing_price']}")
    if summary.get("rows_kept", 0) + sum(summary.get("drop_reasons", {}).values()) != summary.get("rows_in"):
        fails.append("rows_kept + sum(drop_reasons) != rows_in")
    return fails


def read_table(path):
    """Columns of a saved table artifact, read from its documented layout.

    Returns {name: (values, null mask)}; text values are str lists.
    """
    path = Path(path)
    doc = load_json(path / "schema.json")
    n = doc["row_count"]
    out = {}
    for i, col in enumerate(doc["columns"]):
        mask = np.load(path / f"c{i}.mask.npy")
        if col["dtype"] == "text":
            offsets = np.load(path / f"c{i}.offsets.npy")
            blob = (path / f"c{i}.data.bin").read_bytes()
            values = [blob[offsets[j]:offsets[j + 1]].decode("utf-8") for j in range(n)]
        else:
            values = np.load(path / f"c{i}.npy")
        out[col["name"]] = (values, mask)
    return out


def check_table_rows(table, expected_rows):
    n = len(table["title"][1])
    return [] if n == expected_rows else [f"prepared table has {n} rows, expected {expected_rows}"]


# ------------------------------------------------------------- classifiers


def check_confusion(metrics, test_rows, name):
    """Confusion matrix sums to test_rows; trace / test_rows is the accuracy."""
    cm = np.asarray(metrics["confusion"], dtype=np.int64)
    fails = []
    if cm.sum() != test_rows:
        fails.append(f"{name}: confusion sums to {cm.sum()}, test_rows={test_rows}")
    acc = np.trace(cm) / test_rows
    if not math.isclose(acc, metrics["accuracy"], rel_tol=1e-12, abs_tol=1e-12):
        fails.append(f"{name}: trace/test_rows={acc}, reported accuracy {metrics['accuracy']}")
    return fails


def check_beats_majority(metrics, name):
    """Accuracy exceeds the largest class share (confusion row sums)."""
    cm = np.asarray(metrics["confusion"], dtype=np.int64)
    majority = cm.sum(axis=1).max() / cm.sum()
    if metrics["accuracy"] > majority:
        return []
    return [f"{name}: accuracy {metrics['accuracy']} does not exceed majority share {majority}"]


def check_compare(doc):
    fails = []
    test_rows = doc["split"]["test_rows"]
    for mode in ("multiclass", "binary"):
        fails += check_confusion(doc[mode], test_rows, f"compare {mode}")
        fails += check_beats_majority(doc[mode], f"compare {mode}")
    delta = doc["binary"]["accuracy"] - doc["multiclass"]["accuracy"]
    if not math.isclose(delta, doc["accuracy_delta"], rel_tol=1e-12, abs_tol=1e-15):
        fails.append(f"accuracy_delta={doc['accuracy_delta']}, binary - multiclass = {delta}")
    return fails


def check_train_classifier(doc, name):
    fails = check_confusion(doc["test_metrics"], doc["split"]["test_rows"], name)
    fails += check_beats_majority(doc["test_metrics"], name)
    return fails


def check_importances(doc, name):
    imp = doc.get("feature_importances")
    if imp is None:
        return [f"{name}: no feature_importances block"]
    if imp["degenerate"]:
        return []
    total = sum(imp["values"])
    if math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        return []
    return [f"{name}: block importances sum to {total}"]


def features(pipeline_doc, columns):
    """Dense feature matrix for raw input columns, from the pipeline JSON.

    Implements each documented stage from its persisted state: min-max
    scaling, lowercase whitespace tokens, stop-word removal, term counts
    over the fitted vocabulary, IDF weighting, and block assembly.
    """
    cols = dict(columns)
    n = len(next(iter(columns.values())))
    for stage in pipeline_doc["stages"]:
        kind, params, state = stage["type"], stage["params"], stage["state"]
        src = params.get("input_col")
        dst = params.get("output_col")
        if kind == "scale_minmax":
            x = np.asarray(cols[src], dtype=np.float64)
            lo, hi = state["min"], state["max"]
            cols[dst] = np.full(n, 0.5) if hi == lo else (x - lo) / (hi - lo)
        elif kind == "tokenize":
            cols[dst] = [v.lower().split() if v is not None else [] for v in cols[src]]
        elif kind == "filter_stopwords":
            stop = set(state["stopwords"])
            cols[dst] = [[t for t in toks if t not in stop] for toks in cols[src]]
        elif kind == "count_tokens":
            index = {t: i for i, t in enumerate(state["terms"])}
            counts = np.zeros((n, len(index)))
            for r, toks in enumerate(cols[src]):
                for t in toks:
                    if t in index:
                        counts[r, index[t]] += 1.0
            cols[dst] = counts
        elif kind == "weight_idf":
            cols[dst] = cols[src] * np.asarray(state["weights"], dtype=np.float64)
        elif kind == "assemble":
            blocks = state["block_map"]
            X = np.zeros((n, sum(b["length"] for b in blocks)))
            for block, name in zip(blocks, params["input_cols"]):
                part = np.asarray(cols[name], dtype=np.float64).reshape(n, -1)
                X[:, block["offset"]:block["offset"] + block["length"]] = part
            cols[dst] = X
        else:
            raise ValueError(f"unknown pipeline stage {kind!r}")
    return cols["features"]


def linear_decision(model_doc, X):
    """Margins X w + b of a binary linear model (svc)."""
    w = np.asarray(model_doc["weights"], dtype=np.float64)
    b = np.asarray(model_doc["intercepts"], dtype=np.float64)
    return X @ w[0] + b[0]


def gbt_decision(model_doc, X):
    """initial_score + learning_rate * sum of leaf values; left iff x <= threshold."""
    lr = model_doc["params"]["learning_rate"]
    scores = np.full(X.shape[0], float(model_doc["initial_score"]))
    for tree in model_doc["trees"]:
        leaf = np.empty(X.shape[0])
        for r in range(X.shape[0]):
            node = tree
            while "feature" in node:
                node = node["left"] if X[r, node["feature"]] <= node["threshold"] else node["right"]
            leaf[r] = node["prediction"]
        scores = scores + lr * leaf
    return scores


def check_scores(got, expected, name):
    got = np.asarray(got, dtype=np.float64)
    if got.shape != expected.shape:
        return [f"{name}: {got.shape[0]} scores, expected {expected.shape[0]}"]
    if np.allclose(got, expected, rtol=SCORE_RTOL, atol=SCORE_ATOL):
        return []
    worst = float(np.max(np.abs(got - expected)))
    return [f"{name}: scores differ from the recomputation by up to {worst:.3g}"]


# ------------------------------------------------------------- recommenders


@dataclass
class Interactions:
    """Deduplicated (user, item, rating) triples indexed by first appearance."""

    user_ids: list
    item_ids: list
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def seen_titles(self, user_id):
        if user_id not in self.user_ids:
            return set()
        u = self.user_ids.index(user_id)
        return {self.item_ids[i] for i in self.items[self.users == u].tolist()}

    def popularity(self):
        return np.bincount(self.items, minlength=len(self.item_ids))


def interactions(table):
    """Triples from the prepared table: null rows skipped, last rating wins."""
    users, umask = table["user_id"]
    items, imask = table["title"]
    ratings, rmask = table["r_score"]
    uidx, iidx, rating = {}, {}, {}
    for r in range(len(users)):
        if umask[r] or imask[r] or rmask[r]:
            continue
        pair = (uidx.setdefault(users[r], len(uidx)), iidx.setdefault(items[r], len(iidx)))
        # A repeated pair keeps its first position and takes the last rating.
        rating[pair] = float(ratings[r])
    return Interactions(
        user_ids=list(uidx), item_ids=list(iidx),
        users=np.array([p[0] for p in rating], dtype=np.int64),
        items=np.array([p[1] for p in rating], dtype=np.int64),
        ratings=np.array(list(rating.values()), dtype=np.float64),
    )


def check_id_order(model_doc, inter):
    fails = []
    if model_doc["user_ids"] != inter.user_ids:
        fails.append("model user_ids are not the prepared table's first-appearance order")
    if model_doc["item_ids"] != inter.item_ids:
        fails.append("model item_ids are not the prepared table's first-appearance order")
    return fails


def check_monotone(trace, name):
    t = np.asarray(trace, dtype=np.float64)
    if t.size < 2:
        return [f"{name}: objective trace has {t.size} entries"]
    slack = MONOTONE_RTOL * np.maximum(1.0, np.abs(t[:-1]))
    rises = np.nonzero(np.diff(t) > slack)[0]
    if rises.size:
        i = int(rises[0])
        return [f"{name}: objective rises at half-sweep {i + 1}: {t[i]} -> {t[i + 1]}"]
    return []


def check_training_rmse(model_doc, inter):
    """Explicit ALS fits the training ratings better than their mean does."""
    U = np.asarray(model_doc["user_factors"], dtype=np.float64)
    V = np.asarray(model_doc["item_factors"], dtype=np.float64)
    preds = np.einsum("ij,ij->i", U[inter.users], V[inter.items])
    rmse = float(np.sqrt(np.mean((inter.ratings - preds) ** 2)))
    mean = float(inter.ratings.mean())
    baseline = float(np.sqrt(np.mean((inter.ratings - mean) ** 2)))
    fails = []
    if not math.isclose(model_doc["global_mean"], mean, rel_tol=1e-12):
        fails.append(f"global_mean {model_doc['global_mean']} != mean rating {mean}")
    if not rmse < baseline:
        fails.append(f"training RMSE {rmse} not below global-mean RMSE {baseline}")
    return fails


def expected_top_n(model_doc, inter, user, n):
    """(items, scores, cold) by brute force; ties go to the lower item index."""
    index = {u: i for i, u in enumerate(model_doc["user_ids"])}
    if user not in index:
        pop = inter.popularity().astype(np.float64)
        order = np.lexsort((np.arange(pop.shape[0]), -pop))[:n]
        return [inter.item_ids[i] for i in order], pop[order], True
    U = np.asarray(model_doc["user_factors"], dtype=np.float64)
    V = np.asarray(model_doc["item_factors"], dtype=np.float64)
    scores = U[index[user]] @ V.T
    seen = inter.seen_titles(user)
    ids = model_doc["item_ids"]
    ranked = np.lexsort((np.arange(scores.shape[0]), -scores))
    order = [i for i in ranked if ids[i] not in seen][:n]
    return [ids[i] for i in order], scores[order], False


def check_top_n(answer, expected, name):
    """answer = ([(item, score), ...], cold) as the program returns it."""
    items, cold = answer
    exp_items, exp_scores, exp_cold = expected
    got_items = [t for t, _ in items]
    if cold != exp_cold:
        return [f"{name}: cold_start={cold}, expected {exp_cold}"]
    if got_items != exp_items:
        return [f"{name}: items {got_items} != brute force {exp_items}"]
    return check_scores([s for _, s in items], np.asarray(exp_scores), name)
