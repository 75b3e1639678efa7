"""Golden report fingerprints: the recipe flows write the reports they always wrote.

tests/data/reports_v1.json holds, for each step of the fixture recipe (see
tests/data/README.md), the fingerprint (tests/fingerprint.py) of the
report it writes. To re-record after a deliberate report change:

    PYTHONPATH=src python tests/test_reports.py > tests/data/reports_v1.json
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from fingerprint import fingerprint  # noqa: E402

from bookml.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "reports_v1.json"

SYNTH = ["--rows", "400", "--seed", "3"]
COMMON = ["--vocab-size", "32", "--seed", "3"]
# (step name, argv after --out, report file): run in order on one run directory.
STEPS = [
    *[(f"train {model} tvs", ["train", "--model", model, "--tuning", "tvs", *COMMON],
       "train_report.json")
      for model in ("logistic", "svc", "dtree", "rforest", "gbt")],
    ("train svc cv", ["train", "--model", "svc", "--tuning", "cv", *COMMON],
     "train_report.json"),
    ("train dtree cv", ["train", "--model", "dtree", "--tuning", "cv", *COMMON],
     "train_report.json"),
    ("compare", ["compare", *COMMON], "compare_report.json"),
    *[step for model in ("als", "als_implicit") for step in [
        (f"train {model}", ["train", "--model", model, "--seed", "3"], "train_report.json"),
        (f"recommend {model}", ["recommend", "--user", "U000064", "--n", "5", "--seed", "3"],
         "recommend_report.json"),
        (f"recommend {model} cold start",
         ["recommend", "--user", "nobody", "--n", "3", "--seed", "3"],
         "recommend_report.json"),
        (f"recommend {model} evaluate",
         ["recommend", "--user", "U000064", "--n", "5", "--include-seen", "--evaluate",
          "--seed", "3"],
         "recommend_report.json"),
    ]],
]


def run_flow(root):
    """{step: fingerprint of its report} for the recipe flow run under root."""
    root = Path(root)
    run = root / "run"
    assert main(["synth", "--out", str(root / "corpus"), *SYNTH]) == 0
    assert main(["prepare", "--ratings-csv", str(root / "corpus" / "Books_rating.csv"),
                 "--books-csv", str(root / "corpus" / "books_data.csv"),
                 "--out", str(run), "--seed", "3"]) == 0
    prints = {"prepare": fingerprint(run / "prepare_summary.json", root)}
    for name, argv, report in STEPS:
        assert main([*argv, "--out", str(run)]) == 0, name
        prints[name] = fingerprint(run / report, root)
    return prints


@pytest.fixture(scope="module")
def flow_prints(tmp_path_factory):
    return run_flow(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("step", ["prepare", *[name for name, _, _ in STEPS]])
def test_report_matches_golden_fingerprint(flow_prints, step):
    assert flow_prints[step] == json.loads(GOLDEN.read_text(encoding="utf-8"))[step]


def test_every_step_is_pinned():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == {
        "prepare", *[name for name, _, _ in STEPS]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        prints = run_flow(tmp)
    print(json.dumps(prints, indent=2))
