"""Each benchmark check accepts genuine output and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

The genuine outputs come from a small corpus pushed through the real CLI
in-process (about ten seconds).
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import client  # noqa: E402
import flows  # noqa: E402
import spans  # noqa: E402

SEED = 5
SMALL = flows.Workload(name="small", corpus_rows=3000, sample_rows=None, steps=(), grids={},
                       request_rows=16, requests_per_round=4, min_requests=1)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """Genuine CLI outputs: classify, recommender and GBT runs on one corpus."""
    root = tmp_path_factory.mktemp("bench")
    run = flows.inprocess_runner()
    corpus = root / "corpus"
    run(flows.synth_argv(SMALL, corpus, SEED))
    files = {}

    def flow(name, sample, *commands):
        work = root / name
        prep = flows.prepare_argv(SMALL, corpus, work, SEED)
        if sample:
            prep += ["--sample-rows", str(sample)]
        run(prep)
        files[name + "/prepare"] = work / "prepare_summary.json"
        for argv in commands:
            run(list(argv) + ["--out", str(work), "--seed", str(SEED)])
            label = argv[argv.index("--model") + 1] if "--model" in argv else argv[0]
            for produced in flows.OUTPUTS[argv[0]]:
                shutil.copyfile(work / produced, root / f"{label}-{produced}")
        return work

    dirs = {
        "classify": flow("classify", None, ("compare",),
                         ("train", "--model", "svc", "--tuning", "tvs")),
        "recsys": flow("recsys", None, ("train", "--model", "als"),
                       ("recommend", "--user", "U000010", "--n", "10")),
        "trees": flow("trees", 1200, ("train", "--model", "gbt", "--tuning", "tvs")),
    }
    return root, dirs, files


def doc(root, name):
    return json.loads((root / name).read_text())


def test_prepare_counts(out):
    root, dirs, files = out
    expected = checks.count_corpus(root / "corpus")
    summary = json.loads(files["classify/prepare"].read_text())
    assert checks.check_prepare(summary, expected) == []
    table = checks.read_table(dirs["classify"] / "prepared")
    assert checks.check_table_rows(table, expected["rows_after_sampling"]) == []

    bad = copy.deepcopy(summary)
    bad["drop_reasons"]["missing_price"] += 1
    assert checks.check_prepare(bad, expected)
    bad = copy.deepcopy(summary)
    bad["rows_in"] -= 1
    assert checks.check_prepare(bad, expected)
    assert checks.check_table_rows(table, expected["rows_after_sampling"] + 1)

    sampled = json.loads(files["trees/prepare"].read_text())
    assert checks.check_prepare(sampled, checks.count_corpus(root / "corpus", 1200)) == []


def test_compare_report(out):
    root, _, _ = out
    genuine = doc(root, "compare-compare_report.json")
    assert checks.check_compare(genuine) == []

    bad = copy.deepcopy(genuine)
    bad["binary"]["confusion"][0][1] += 1
    assert checks.check_compare(bad)
    bad = copy.deepcopy(genuine)
    bad["accuracy_delta"] += 1e-6
    assert checks.check_compare(bad)
    # Every prediction moved to the majority class: a consistent report
    # whose accuracy only equals the majority share.
    bad = copy.deepcopy(genuine)
    support = np.asarray(bad["multiclass"]["confusion"]).sum(axis=1)
    majority = np.zeros((support.size, support.size), dtype=np.int64)
    majority[:, int(np.argmax(support))] = support
    bad["multiclass"]["confusion"] = majority.tolist()
    bad["multiclass"]["accuracy"] = float(support.max() / support.sum())
    bad["accuracy_delta"] = bad["binary"]["accuracy"] - bad["multiclass"]["accuracy"]
    assert checks.check_compare(bad) == [
        f"compare multiclass: accuracy {bad['multiclass']['accuracy']} does not exceed "
        f"majority share {bad['multiclass']['accuracy']}"]


def test_train_report_and_importances(out):
    root, _, _ = out
    svc = doc(root, "svc-train_report.json")
    assert checks.check_train_classifier(svc, "svc") == []
    bad = copy.deepcopy(svc)
    bad["test_metrics"]["accuracy"] -= 0.01
    assert checks.check_train_classifier(bad, "svc")

    gbt = doc(root, "gbt-train_report.json")
    assert checks.check_importances(gbt, "gbt") == []
    bad = copy.deepcopy(gbt)
    bad["feature_importances"]["values"][-1] *= 0.9
    assert checks.check_importances(bad, "gbt")
    bad["feature_importances"]["degenerate"] = True
    assert checks.check_importances(bad, "gbt") == []


def corrupted_client(run_dir, tmp_path, corrupt):
    """A client whose expectations come from a corrupted copy of model.json."""
    bad_dir = tmp_path / "bad"
    shutil.copytree(run_dir, bad_dir)
    artifact = json.loads((bad_dir / "model.json").read_text())
    corrupt(artifact["model"])
    (bad_dir / "model.json").write_text(json.dumps(artifact))
    return client.scoring_client(SMALL, bad_dir, SEED)


def test_linear_scores(out, tmp_path):
    _, dirs, _ = out
    good = client.scoring_client(SMALL, dirs["classify"], SEED)
    bad = corrupted_client(dirs["classify"], tmp_path,
                           lambda m: m["intercepts"].__setitem__(0, m["intercepts"][0] + 0.5))
    for k, req in enumerate(good.requests):
        got = good.call(req)
        assert good.compare(got, good.expect(k), "svc") == []
        assert good.compare(got, bad.expect(k), "svc")


def test_gbt_tree_walk(out, tmp_path):
    _, dirs, _ = out
    good = client.scoring_client(SMALL, dirs["trees"], SEED)
    # Threshold below every value: all rows now go right at the first root.
    bad = corrupted_client(dirs["trees"], tmp_path,
                           lambda m: m["trees"][0].__setitem__("threshold", -1e9))
    rejected = 0
    for k, req in enumerate(good.requests):
        got = good.call(req)
        assert good.compare(got, good.expect(k), "gbt") == []
        rejected += bool(good.compare(got, bad.expect(k), "gbt"))
    assert rejected == len(good.requests)


def test_recommender(out):
    root, dirs, _ = out
    model = doc(root, "als-model.json")["model"]
    inter = checks.interactions(checks.read_table(dirs["recsys"] / "prepared"))
    assert checks.check_id_order(model, inter) == []
    assert checks.check_training_rmse(model, inter) == []
    assert checks.check_monotone(model["objective_trace"], "als") == []

    bad = copy.deepcopy(model)
    bad["item_ids"][0], bad["item_ids"][1] = bad["item_ids"][1], bad["item_ids"][0]
    assert checks.check_id_order(bad, inter)
    bad = copy.deepcopy(model)
    bad["user_factors"] = np.zeros_like(np.asarray(bad["user_factors"])).tolist()
    assert checks.check_training_rmse(bad, inter)
    trace = list(model["objective_trace"])
    trace[3] = trace[2] * 1.001
    assert checks.check_monotone(trace, "als")

    rec = doc(root, "recommend-recommend_report.json")
    answer = ([(r["title"], r["score"]) for r in rec["recommendations"]], rec["cold_start"])
    expected = checks.expected_top_n(model, inter, "U000010", 10)
    assert checks.check_top_n(answer, expected, "recommend") == []
    swapped = list(answer[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.check_top_n((swapped, False), expected, "recommend")


def test_recsys_client_and_cold_start(out):
    _, dirs, _ = out
    small = flows.Workload(name="recsys", corpus_rows=0, sample_rows=None, steps=(), grids={},
                           request_rows=None, requests_per_round=20, min_requests=1)
    c = client.recsys_client(small, dirs["recsys"], SEED)
    cold = [k for k, u in enumerate(c.requests) if u.startswith("cold-")]
    assert len(cold) == round(20 * client.COLD_SHARE)
    for k, req in enumerate(c.requests):
        got = c.call(req)
        assert c.compare(got, c.expect(k), "topn") == []
        items, is_cold = got
        swapped = [items[1], items[0]] + items[2:]
        assert c.compare((swapped, is_cold), c.expect(k), "topn")


def test_tracer_reports_missing_names_and_restores(monkeypatch):
    import bookml.cli

    original = bookml.cli.parse_csv
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS[:2] + (
        ("bookml.cli", "no_such_function", "table.nothing"),
        ("bookml.pipeline", "NoSuchStage.fit", "pipeline.nothing"),
        ("bookml.no_such_module", "f", "x.nothing"),
    ))
    tracer = spans.Tracer()
    tracer.install()
    assert bookml.cli.parse_csv is not original
    tracer.uninstall()
    assert bookml.cli.parse_csv is original
    assert tracer.missing == ["bookml.cli.no_such_function", "bookml.pipeline.NoSuchStage.fit",
                              "bookml.no_such_module.f"]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("cli.train", -1, 0.0, 10.0, "flow"),
                    spans.Span("pipeline.fit", 0, 1.0, 5.0, "flow"),
                    spans.Span("pipeline.count", 1, 2.0, 3.0, "flow"),
                    spans.Span("linear.svc_fit", 0, 6.0, 9.0, "flow")]
    selfs = tracer.self_times()
    assert selfs["cli"] == pytest.approx(3.0)
    assert selfs["pipeline"] == pytest.approx(4.0)
    assert selfs["linear"] == pytest.approx(3.0)


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == spans.metric_units()
    assert sorted(bench["workloads"][i]["name"] for i in range(len(bench["workloads"]))) \
        == sorted(flows.WORKLOADS)
