import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bookml
from bookml import Table

SRC = Path(bookml.__file__).resolve().parent.parent

# Runs bookml.cli.main on argv in a fresh interpreter; the last stdout line
# reports the exit code and whether scipy was loaded when main returned.
_CLI_RUNNER = (
    "import json, sys\n"
    "from bookml.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules}))\n"
)


def run_python(code, *args):
    """Run a Python snippet in a fresh interpreter with this bookml on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def fresh_python():
    return run_python


@pytest.fixture(scope="session")
def cli_subprocess():
    """Callable: run one CLI command in a fresh process; returns (exit code, scipy loaded)."""
    def run(argv):
        result = json.loads(run_python(_CLI_RUNNER, *argv).splitlines()[-1])
        return result["code"], result["scipy"]

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_doc_table():
    return Table.build(
        [("doc", "text", True)],
        {"doc": ["a b a", "b c"]},
    )


@pytest.fixture
def ratings_fixture():
    return Table.build(
        [
            ("title", "text", False),
            ("user_id", "text", False),
            ("r_score", "int64", False),
            ("r_time", "int64", False),
            ("r_summary", "text", False),
            ("r_review", "text", True),
            ("price", "float64", False),
        ],
        {
            "title": ["Book A", "Book B", "Book A", "Book C", "Book B", "Book C"],
            "user_id": ["u1", "u1", "u2", "u2", "u3", "u3"],
            "r_score": [5, 2, 4, 1, 3, 5],
            "r_time": [1_000_000, 1_100_000, 1_200_000, 1_300_000, 1_400_000, 1_500_000],
            "r_summary": [
                "great wonderful read",
                "boring dull waste",
                "loved this book",
                "awful terrible prose",
                "okay average story",
                "excellent gripping novel",
            ],
            "r_review": [None, "long text", None, "meh", None, "superb"],
            "price": [19.99, 5.0, 19.99, 7.5, 12.0, 7.5],
        },
    )


def make_blobs(rng, centers, n_per, sigma=0.1):
    """Well-separated 1-d gaussian blobs; returns (X, y)."""
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(center, sigma, size=(n_per, 1)))
        ys.append(np.full(n_per, label))
    return np.vstack(xs), np.concatenate(ys)
