"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
lines. Every tolerance is pinned here; timing caps are asserted where the
criterion states one.
"""

import json
import time

import numpy as np

from bookml import (
    ALSExplicit,
    ALSImplicit,
    DecisionTreeClassifier,
    GradientBoostedTreesClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    Table,
    BlockMap,
    best_split,
    block_importances,
    build_interactions,
    cross_validate,
    evaluate_holdout,
    evaluate_multiclass,
    kfold_indices,
    logistic_objective,
    train_validation_split,
)
from bookml.cli import main
from bookml.pipeline import (
    AssembleColumns,
    CountTokens,
    FilterStopwords,
    Pipeline,
    ScaleMinMax,
    TokenizeText,
    WeightIdf,
)
from bookml.report import importance_table
from bookml.synth import NEUTRAL_WORDS, generate_corpus, write_ratings_csv
from bookml.table import RATINGS_COLUMNS, parse_csv
from bookml.validation import stack_vectors

from test_linear import finite_difference_gradient
from test_metrics import oracle_metrics
from test_tree import exhaustive_best_split


def _pass(number, message, started):
    print(f"\nPASS criterion {number}: {message} ({time.perf_counter() - started:.1f}s)")


def interactions_from_rows(rows):
    t = Table.build(
        [("u", "text", True), ("i", "text", True), ("r", "float64", True)],
        {"u": [r[0] for r in rows], "i": [r[1] for r in rows], "r": [r[2] for r in rows]},
    )
    return build_interactions(t, "u", "i", "r")


def sparse_random_interactions(seed, n_users=60, n_items=50, n_obs=150):
    rng = np.random.default_rng(seed)
    rows, seen = [], set()
    while len(rows) < n_obs:
        u, i = int(rng.integers(n_users)), int(rng.integers(n_items))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        rows.append((f"u{u}", f"i{i}", float(rng.integers(1, 6))))
    return interactions_from_rows(rows)


def block_interactions():
    rows = []
    for u in range(20):
        base = 0 if u < 10 else 10
        for j in range(10):
            if (u + j) % 2 == 0:
                rows.append((f"u{u}", f"i{base + j:02d}", 3.0))
    return interactions_from_rows(rows)


def test_criterion_01_binary_vs_multiclass_direction(tmp_path):
    started = time.perf_counter()
    stats = generate_corpus(tmp_path / "corpus", n_ratings=21_000, seed=11,
                            correlation=0.6)
    out = tmp_path / "run"
    assert main([
        "prepare", "--ratings-csv", stats.ratings_path,
        "--books-csv", stats.books_path, "--out", str(out), "--seed", "11",
    ]) == 0
    summary = json.loads((out / "prepare_summary.json").read_text())
    assert summary["rows_after_sampling"] >= 20_000
    assert main(["compare", "--out", str(out), "--seed", "11"]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert not report["inconclusive"]
    assert report["accuracy_delta"] >= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _pass(1, f"binary - multiclass accuracy delta = {report['accuracy_delta']:+.4f} "
             f"on {summary['rows_after_sampling']} rows", started)


FROZEN_METRIC_CASES = [
    # (preds, truth, num_classes, accuracy, w_precision, w_recall, w_f1)
    ([0, 1, 1, 1], [0, 0, 1, 1], 2, 0.75, 0.8333333333333334, 0.75, 0.7333333333333333),
    ([4, 2, 1, 1, 4, 2, 3, 1, 0, 0], [1, 1, 0, 0, 0, 0, 0, 1, 1, 1], 5, 0.1, 0.16666666666666666, 0.1, 0.125),
    ([0, 0, 4, 4, 3, 2, 0, 2, 0], [3, 0, 4, 4, 4, 1, 0, 3, 2], 5, 0.4444444444444444, 0.4444444444444444, 0.4444444444444444, 0.4148148148148148),
    ([2, 4, 4, 3, 0, 2, 0, 1, 4, 4, 1, 0, 2, 0, 1, 2, 2, 4, 2, 1, 2, 3, 3, 0, 0, 3], [1, 4, 2, 4, 1, 0, 2, 2, 2, 2, 1, 1, 4, 3, 2, 2, 3, 0, 2, 1, 2, 2, 2, 1, 2, 1], 5, 0.23076923076923078, 0.35549450549450545, 0.23076923076923075, 0.27249723960250277),
    ([3, 1, 2, 3, 0, 2, 0, 1, 0, 2, 1, 1, 0, 2, 3, 0, 3, 3], [3, 1, 1, 2, 0, 3, 3, 3, 2, 1, 3, 3, 0, 3, 3, 0, 3, 1], 4, 0.3888888888888889, 0.45555555555555555, 0.38888888888888884, 0.39484126984126977),
    ([2, 3, 1, 1, 0, 0, 2, 2, 1, 2, 3, 0, 3, 1], [1, 0, 0, 0, 0, 1, 2, 0, 3, 0, 2, 2, 3, 3], 4, 0.21428571428571427, 0.26785714285714285, 0.21428571428571427, 0.22789115646258504),
    ([1, 1, 1, 2, 0, 1, 0, 1, 2, 1, 1, 1, 1, 0, 0, 2, 2, 1, 1, 2, 0, 0, 0, 1, 0, 1, 2, 2], [0, 0, 1, 1, 0, 0, 2, 0, 0, 2, 0, 1, 1, 0, 1, 2, 1, 1, 2, 2, 1, 0, 1, 0, 1, 2, 0, 2], 3, 0.35714285714285715, 0.36435439560439564, 0.35714285714285715, 0.35542661000326903),
    ([0, 1, 0, 0, 2, 2, 1, 2, 0, 2, 1, 0], [2, 2, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 3, 0.3333333333333333, 0.4666666666666667, 0.3333333333333333, 0.37037037037037035),
    ([0, 3, 3, 2, 2, 1, 0, 1, 0, 1, 3, 3, 3, 3, 3, 0, 2, 0, 3, 0, 3, 3, 0, 2], [2, 2, 0, 0, 3, 0, 3, 0, 3, 0, 0, 0, 3, 0, 2, 0, 0, 3, 0, 2, 1, 2, 0, 2], 4, 0.16666666666666666, 0.2261904761904762, 0.16666666666666669, 0.18304093567251464),
    ([0, 0, 1, 1, 1, 0, 0, 1, 0], [1, 1, 1, 0, 0, 1, 0, 0, 1], 2, 0.2222222222222222, 0.2277777777777778, 0.2222222222222222, 0.22222222222222224),
    ([0, 1, 1, 0, 1, 1, 1, 1], [3, 2, 0, 0, 3, 2, 2, 3], 4, 0.125, 0.125, 0.125, 0.125),
    ([0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0], [0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0], 2, 0.4583333333333333, 0.4784382284382285, 0.45833333333333337, 0.46115942028985507),
    ([0, 1, 1, 1, 1, 0, 0, 0, 1], [0, 1, 1, 1, 1, 1, 1, 1, 1], 2, 0.6666666666666666, 0.9166666666666666, 0.6666666666666667, 0.7282051282051282),
    ([0, 1, 1, 1], [1, 1, 2, 2], 3, 0.25, 0.16666666666666666, 0.25, 0.2),
    ([1, 1, 2, 2, 1, 0, 1, 1, 2, 2, 2, 2, 0], [0, 2, 0, 1, 1, 1, 0, 2, 1, 2, 2, 0, 1], 3, 0.23076923076923078, 0.1794871794871795, 0.23076923076923078, 0.2),
    ([4, 1, 1, 1, 3, 1, 4, 2, 2, 1, 3, 1, 0, 3, 3, 4, 2, 4, 0, 2, 3, 2, 1, 1, 1, 0], [1, 0, 0, 0, 0, 4, 4, 4, 1, 1, 0, 2, 2, 4, 2, 2, 0, 4, 0, 4, 0, 3, 3, 2, 4, 4], 5, 0.15384615384615385, 0.2692307692307692, 0.15384615384615385, 0.17773892773892774),
    ([0, 4, 4, 2, 3, 0, 2, 4, 2, 2, 1, 1, 4, 2, 0, 1, 3, 0, 1, 1, 3, 3, 2, 4, 1, 2], [1, 0, 4, 0, 3, 3, 3, 2, 3, 4, 1, 1, 1, 0, 1, 3, 3, 3, 2, 4, 2, 4, 2, 2, 2, 0], 5, 0.23076923076923078, 0.2624542124542124, 0.23076923076923075, 0.23752316060008366),
    ([1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0], 2, 0.4166666666666667, 0.43881118881118875, 0.4166666666666667, 0.425),
    ([3, 2, 2, 2, 3, 3, 1, 3, 3, 1, 3, 3, 2, 1, 1, 2, 1, 3, 1, 1, 1, 3, 0, 2], [2, 2, 2, 0, 0, 1, 3, 3, 3, 0, 3, 3, 0, 3, 1, 2, 3, 3, 2, 2, 2, 0, 2, 2], 4, 0.4166666666666667, 0.44560185185185186, 0.41666666666666663, 0.41274509803921566),
    ([0, 1, 1, 2, 3, 4, 1, 1, 0, 1, 4], [0, 4, 1, 2, 0, 1, 2, 3, 4, 1, 2], 5, 0.36363636363636365, 0.4727272727272727, 0.3636363636363636, 0.36363636363636365),
    ([2, 1, 2, 2, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 2], [1, 2, 2, 0, 1, 0, 2, 0, 2, 0, 0, 1, 1, 1, 2, 2, 2], 3, 0.5294117647058824, 0.6176470588235294, 0.5294117647058824, 0.5271836007130124),
    ([0, 2, 2, 0, 0, 2, 2, 1, 1, 2, 1, 0, 0, 2, 2, 2], [0, 0, 1, 2, 0, 0, 0, 0, 1, 0, 2, 2, 1, 2, 0, 1], 3, 0.25, 0.3145833333333333, 0.25, 0.266941391941392),
    ([0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1], [1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1], 2, 0.5833333333333334, 0.6458333333333334, 0.5833333333333334, 0.5745920745920746),
    ([2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 0, 1, 0, 2, 0, 0], [0, 1, 1, 2, 0, 0, 2, 1, 1, 0, 0, 0, 2, 0, 0, 1, 1, 2, 2, 0, 2, 0, 1, 2], 3, 0.25, 0.2625, 0.25, 0.2361111111111111),
    ([0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1], [0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1], 2, 0.45454545454545453, 0.45454545454545453, 0.45454545454545453, 0.4545454545454546),
]


def test_criterion_02_metric_oracle_suite():
    started = time.perf_counter()
    assert len(FROZEN_METRIC_CASES) == 25
    for preds, truth, k, acc, wp, wr, wf in FROZEN_METRIC_CASES:
        rep = evaluate_multiclass(preds, truth, k)
        assert abs(rep.accuracy - acc) < 1e-9
        assert abs(rep.weighted_precision - wp) < 1e-9
        assert abs(rep.weighted_recall - wr) < 1e-9
        assert abs(rep.weighted_f1 - wf) < 1e-9
        # and the oracle itself still reproduces the frozen values
        o_acc, o_wp, o_wr, o_wf = oracle_metrics(preds, truth, k)
        assert abs(o_acc - acc) < 1e-9 and abs(o_wf - wf) < 1e-9
        assert abs(o_wp - wp) < 1e-9 and abs(o_wr - wr) < 1e-9
    rng = np.random.default_rng(77)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, k, n)
        preds = rng.integers(0, k, n)
        rep = evaluate_multiclass(preds, truth, k)
        assert abs(rep.weighted_recall - rep.accuracy) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _pass(2, "25 frozen confusion-matrix cases at 1e-9 and the "
             "weighted-recall = accuracy identity on 1000 random cases", started)


def test_criterion_03_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(5, 15))
        W = rng.normal(0, 0.5, (k, d))
        b = rng.normal(0, 0.5, k)
        X = rng.normal(0, 1, (n, d))
        y = rng.integers(0, k, n)
        if np.unique(y).shape[0] < 2:
            continue
        _, gw, gb = logistic_objective(W, b, X, y, 0.03)
        fw, fb = finite_difference_gradient(W, b, X, y, 0.03)
        scale = max(np.abs(fw).max(), np.abs(fb).max(), 1e-8)
        assert np.abs(gw - fw).max() / scale < 1e-5
        assert np.abs(gb - fb).max() / scale < 1e-5
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _pass(3, "analytic logistic gradient vs central differences "
             "< 1e-5 relative on 20 seeded instances", started)


def _monotone(trace, rel=1e-9):
    trace = np.asarray(trace, dtype=np.float64)
    slack = rel * np.maximum(1.0, np.abs(trace[:-1]))
    return bool(np.all(np.diff(trace) <= slack))


def test_criterion_04_optimization_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    # logistic objective per accepted step
    for _ in range(3):
        X = rng.normal(0, 1, (80, 4))
        y = rng.integers(0, 3, 80)
        model = LogisticRegressionClassifier(num_classes=3, max_iters=150).fit(X, y)
        assert _monotone(model.loss_trace_, rel=0.0)
    # explicit ALS per half-sweep, on every bundled fixture
    fixtures = [
        interactions_from_rows(
            [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 2.0), ("b", "y", 4.0)]
        ),
        sparse_random_interactions(3, n_users=50, n_items=40, n_obs=400),
        block_interactions(),
    ]
    for data in fixtures:
        model = ALSExplicit(rank=3, reg=0.1, sweeps=8, seed=1).fit(data)
        assert _monotone(model.objective_trace_)
        implicit = ALSImplicit(rank=3, reg=0.1, sweeps=6, alpha=10.0, seed=1).fit(data)
        assert _monotone(implicit.objective_trace_)
    # GBT log-loss at learning rates <= 0.05
    X = rng.normal(0, 1, (200, 4))
    y = (X[:, 0] + 0.3 * rng.normal(0, 1, 200) > 0).astype(int)
    for lr in (0.01, 0.05):
        model = GradientBoostedTreesClassifier(num_iters=20, learning_rate=lr).fit(X, y)
        assert _monotone(model.train_loss_, rel=0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _pass(4, "logistic / explicit+implicit ALS / GBT objective traces "
             "non-increasing on all fixtures", started)


def test_criterion_05_als_recovery_and_preference_separation():
    started = time.perf_counter()
    data = interactions_from_rows(
        [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 2.0), ("b", "y", 4.0)]
    )
    model = ALSExplicit(rank=1, reg=1e-6, sweeps=50, seed=0).fit(data)
    preds = model.predict_pairs(data.users, data.items)
    rmse = float(np.sqrt(((preds - data.ratings) ** 2).mean()))
    assert rmse < 0.05
    blocks = block_interactions()
    implicit = ALSImplicit(rank=4, reg=0.1, sweeps=10, alpha=40.0, seed=0).fit(blocks)
    items = np.arange(20)
    for u in range(20):
        scores = implicit.predict_pairs(np.full(20, u), items)
        own = scores[:10] if u < 10 else scores[10:]
        other = scores[10:] if u < 10 else scores[:10]
        assert own.mean() > other.mean()
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _pass(5, f"rank-1 recovery rmse={rmse:.4f} < 0.05; implicit block "
             "preferences separate for every user", started)


def test_criterion_06_negative_r2_regime(tmp_path):
    started = time.perf_counter()
    # deliberately high rank / low data: factors memorize train ratings and
    # generalize worse than the mean predictor
    data = sparse_random_interactions(0)
    rmse, r2, n_test = evaluate_holdout(
        ALSExplicit(rank=16, reg=0.01, sweeps=10, seed=0), data, seed=0
    )
    assert r2 is not None and r2 < 0
    # the CLI report carries the formula explanation alongside the numbers
    stats = generate_corpus(tmp_path / "c", n_ratings=800, seed=5, correlation=0.5)
    out = tmp_path / "run"
    assert main([
        "prepare", "--ratings-csv", stats.ratings_path,
        "--books-csv", stats.books_path, "--out", str(out), "--seed", "5",
    ]) == 0
    assert main(["train", "--out", str(out), "--model", "als", "--seed", "5"]) == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["holdout"]["r2"] < 0
    assert "SS_res/SS_tot" in report["r2_explanation"]
    assert "SS_res/SS_tot" in (out / "train_report.txt").read_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _pass(6, f"per-user holdout r2={r2:.2f} < 0 on the sparse fixture; "
             "report explains R2 = 1 - SS_res/SS_tot", started)


def test_criterion_07_model_selection_laws():
    started = time.perf_counter()
    for k in (2, 3, 5):
        for seed in range(5):
            folds = kfold_indices(37, k, seed)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            joined = np.concatenate(folds)
            assert joined.shape[0] == 37
            np.testing.assert_array_equal(np.sort(joined), np.arange(37))
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (60, 3))
    y = (X[:, 0] > 0).astype(int)
    grid = {"l2_reg": [0.0, 0.1], "max_iters": [30]}
    runs = {"cv": [], "tvs": []}
    for _ in range(2):
        cv = cross_validate(LogisticRegressionClassifier(), grid, X, y,
                            k=3, metric="f1", seed=13)
        tvs = train_validation_split(LogisticRegressionClassifier(), grid, X, y,
                                     train_ratio=0.8, metric="f1", seed=13)
        runs["cv"].append(
            (json.dumps(cv.to_json(include_times=False), sort_keys=True),
             cv.best_model.weights_.tobytes())
        )
        runs["tvs"].append(
            (json.dumps(tvs.to_json(include_times=False), sort_keys=True),
             tvs.best_model.weights_.tobytes())
        )
    assert runs["cv"][0] == runs["cv"][1]
    assert runs["tvs"][0] == runs["tvs"][1]
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _pass(7, "fold partitions hold for k in {2,3,5} x 5 seeds; CV and TVS "
             "byte-reproducible under fixed seeds", started)


def test_criterion_08_tree_equivalences():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    X = rng.normal(0, 1, (150, 4))
    y = rng.integers(0, 3, 150)
    forest = RandomForestClassifier(num_trees=1, bootstrap=False,
                                    feature_subset_size=4, max_depth=4, seed=0).fit(X, y)
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    probes = rng.normal(0, 1, (500, 4))
    np.testing.assert_array_equal(forest.predict(probes), tree.predict(probes))

    for trial in range(50):
        n = int(rng.integers(4, 64))
        d = int(rng.integers(1, 4))
        Xi = rng.integers(0, 6, (n, d)).astype(float)
        yi = rng.integers(0, 3, n)
        got = best_split(Xi, yi, max_bins=32)
        want = exhaustive_best_split(Xi, yi)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert abs(got[2] - want[2]) < 1e-12

    Xx = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 25, dtype=float)
    yx = np.array([0, 1, 1, 0] * 25)
    xor_model = DecisionTreeClassifier(max_depth=2).fit(Xx, yx)
    assert (xor_model.predict(Xx) == yx).mean() == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _pass(8, "forest(1 tree) == tree on 500 probes; best_split == exhaustive "
             "search on 50 instances; XOR solved at depth 2", started)


def test_criterion_09_feature_importances_shape():
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    # four blocks, mirroring an assembled price/time/summary/review layout
    bm = BlockMap.from_parts(
        ["price_norm", "time_norm", "summary_tfidf", "review_tfidf"], [1, 1, 4, 4]
    )
    X = rng.normal(0, 1, (200, 10))
    y = ((X[:, 0] + X[:, 3] + X[:, 7]) > 0).astype(int)
    models = [
        DecisionTreeClassifier(max_depth=4).fit(X, y),
        RandomForestClassifier(num_trees=15, seed=4).fit(X, y),
        GradientBoostedTreesClassifier(num_iters=10).fit(X, y),
    ]
    for model in models:
        imp = block_importances(model, bm)
        assert np.all(imp.values >= 0)
        assert abs(imp.values.sum() - 1.0) < 1e-9
        rendered = importance_table(imp)
        lines = rendered.splitlines()
        assert lines[0].split() == ["Feature", "Importance"]
        assert len(lines) == 2 + 4  # header, rule, four block rows
        body_values = [float(line.split()[-1]) for line in lines[2:]]
        assert body_values == sorted(body_values, reverse=True)
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _pass(9, "block importances nonnegative, sum to 1 +/- 1e-9 for all three "
             "tree families; 4-block report rendered", started)


def test_criterion_10_ingestion_robustness(tmp_path):
    started = time.perf_counter()
    stats = generate_corpus(tmp_path / "stress", n_ratings=4000, seed=9,
                            malformed_rate=0.005, stress_rate=0.05)
    assert stats.malformed_written > 0
    res = parse_csv(stats.ratings_path, RATINGS_COLUMNS, max_malformed_fraction=0.05)
    assert res.malformed_records == stats.malformed_written
    assert res.table.row_count == stats.n_ratings - stats.malformed_written

    big = tmp_path / "big.csv"
    write_ratings_csv(big, n_books=5000, n_users=20000, seed=1,
                      target_bytes=100_000_000, stress_rate=0.01)
    size_mb = big.stat().st_size / 1e6
    assert size_mb >= 100
    parse_started = time.perf_counter()
    big_res = parse_csv(big, RATINGS_COLUMNS)
    parse_elapsed = time.perf_counter() - parse_started
    assert parse_elapsed < 60
    assert big_res.table.row_count == big_res.records_seen
    _pass(10, f"exact malformed accounting ({stats.malformed_written} rows); "
              f"{size_mb:.0f} MB parsed in {parse_elapsed:.1f}s", started)


def test_criterion_11_persistence_bitwise(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    n_probe = 1000

    # feature pipeline on a 1000-row table
    words = list(NEUTRAL_WORDS)
    table = Table.build(
        [("price", "float64", True), ("r_time", "int64", True), ("r_summary", "text", True)],
        {
            "price": rng.uniform(1, 50, n_probe).tolist(),
            "r_time": rng.integers(1e6, 2e6, n_probe).tolist(),
            "r_summary": [
                " ".join(rng.choice(words, size=5)) for _ in range(n_probe)
            ],
        },
    )
    pipe = Pipeline([
        ScaleMinMax("price", "p"),
        ScaleMinMax("r_time", "t"),
        TokenizeText("r_summary", "tok"),
        FilterStopwords("tok", "clean"),
        CountTokens("clean", "counts", vocab_size=32, min_df=1),
        WeightIdf("counts", "tfidf"),
        AssembleColumns(["p", "t", "tfidf"], "features"),
    ]).fit(table)
    clone = Pipeline.from_json(json.loads(json.dumps(pipe.to_json())))
    a = pipe.transform(table)
    b = clone.transform(table)
    for i in range(n_probe):
        va = a.column("features").value_at(i)
        vb = b.column("features").value_at(i)
        assert va["indices"] == vb["indices"]
        assert va["values"] == vb["values"]
    feats = [a.column("features").value_at(i) for i in range(n_probe)]
    X = stack_vectors(feats)

    # tree-ensemble models
    first = X[:, 0].toarray().ravel() if hasattr(X, "toarray") else X[:, 0]
    y = (first > 0.5).astype(int)
    for model in (
        RandomForestClassifier(num_trees=8, max_depth=4, seed=3).fit(X, y),
        GradientBoostedTreesClassifier(num_iters=8).fit(X, y),
    ):
        restored = type(model).from_json(json.loads(json.dumps(model.to_json())))
        np.testing.assert_array_equal(model.predict(X), restored.predict(X))
        if hasattr(model, "decision_function"):
            got = restored.decision_function(X)
            np.testing.assert_array_equal(model.decision_function(X), got)

    # factor model on 1000 random pairs
    data = sparse_random_interactions(2, n_users=80, n_items=60, n_obs=500)
    als = ALSExplicit(rank=5, reg=0.1, sweeps=5, seed=6).fit(data)
    restored = ALSExplicit.from_json(json.loads(json.dumps(als.to_json())))
    users = rng.integers(0, 80, n_probe)
    items = rng.integers(0, 60, n_probe)
    np.testing.assert_array_equal(
        als.predict_pairs(users, items), restored.predict_pairs(users, items)
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _pass(11, "pipeline, forest, GBT, and factor models bitwise-identical "
              "after JSON round trips on 1000 probes", started)
