"""Workload definitions and the code that runs their CLI flows.

A flow is the corpus set-up (``bookml synth``) followed by ``bookml prepare``
and the workload's ``compare``/``train``/``recommend``/``verify-model``
commands. A runner executes one command; ``subprocess_runner`` starts one
process per command, the way a user runs the CLI, and ``inprocess_runner``
calls ``bookml.cli.main`` in this process so the traced run can wrap the
layers underneath it.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Thread counts and hash seed fixed for every process the benchmark runs.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

CORRELATION = 0.6
MALFORMED_RATE = 0.002

# Files each command writes (snapshotted after it runs, because a later
# train overwrites model.json and train_report.json) and its done marker.
OUTPUTS = {
    "prepare": ("prepare_summary.json",),
    "compare": ("compare_report.json",),
    "train": ("train_report.json", "model.json"),
    "recommend": ("recommend_report.json",),
    "verify-model": (),
}
MARKERS = {"prepare": "prepare.done", "compare": "compare.done",
           "train": "train.done", "recommend": "recommend.done"}
TRAIN_COMMANDS = ("compare", "train")

USER = "{user}"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_rows: int
    sample_rows: int | None
    steps: tuple
    # Tuning grids passed with --config. Every candidate of a grid costs the
    # same to refit and to serve, so the winner's size (and with it train_s
    # and the query latency) does not depend on the seed.
    grids: dict
    request_rows: int | None
    requests_per_round: int
    min_requests: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="classify",
            corpus_rows=16000,
            sample_rows=None,
            steps=(
                ("compare",),
                ("train", "--model", "svc", "--tuning", "cv"),
                ("verify-model",),
            ),
            grids={"svc": {"l2_reg": [0.0, 0.01, 0.1], "max_iters": [200]}},
            request_rows=32,
            requests_per_round=64,
            min_requests=1200,
        ),
        Workload(
            name="recsys",
            corpus_rows=16000,
            sample_rows=None,
            steps=(
                ("train", "--model", "als"),
                ("recommend", "--user", USER, "--n", "10"),
                ("verify-model",),
                ("train", "--model", "als_implicit"),
                ("verify-model",),
            ),
            grids={},
            request_rows=None,
            requests_per_round=200,
            min_requests=5000,
        ),
        Workload(
            name="trees",
            corpus_rows=16000,
            sample_rows=4000,
            steps=(
                ("train", "--model", "rforest", "--tuning", "cv"),
                ("verify-model",),
                ("train", "--model", "gbt", "--tuning", "tvs"),
                ("verify-model",),
            ),
            grids={
                "rforest": {"max_depth": [5], "num_trees": [10],
                            "min_instances_per_node": [1, 5]},
                "gbt": {"learning_rate": [0.05, 0.1], "num_iters": [20]},
            },
            request_rows=32,
            requests_per_round=24,
            min_requests=3000,
        ),
    )
}


@dataclass
class Step:
    """One CLI command as run: wall time, peak RSS and its output snapshots."""

    command: str
    argv: list
    wall_s: float
    rss_mb: float | None
    marker_ok: bool | None
    outputs: dict = field(default_factory=dict)


class CommandFailed(Exception):
    pass


def subprocess_runner(src, log_path):
    """Run each command as ``python -m bookml.cli``; wall time and peak RSS.

    Peak RSS is the child's own ``ru_maxrss`` from ``wait4``. Linux carries
    the parent's high-water mark into the child at exec, so the parent must
    stay smaller than the commands it measures.
    """
    env = {**os.environ, **FIXED_ENV, "PYTHONPATH": str(src)}

    def run(argv):
        with open(log_path, "ab") as log:
            log.write(("$ bookml " + " ".join(argv) + "\n").encode())
            log.flush()
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "bookml.cli", *argv],
                                    env=env, stdout=log, stderr=log,
                                    stdin=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - started
        if proc.returncode != 0:
            tail = Path(log_path).read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CommandFailed(f"bookml {' '.join(argv)} exited {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    return run


def inprocess_runner():
    """Run each command through ``bookml.cli.main`` with its output captured."""
    from bookml import cli

    def run(argv):
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(argv))
        wall = time.perf_counter() - started
        if code != 0:
            raise CommandFailed(f"bookml {' '.join(argv)} returned {code}: {sink.getvalue()[-500:]}")
        return wall, None

    return run


def synth_argv(workload, corpus, seed):
    return ["synth", "--out", str(corpus), "--rows", str(workload.corpus_rows),
            "--seed", str(seed), "--correlation", str(CORRELATION),
            "--malformed-rate", str(MALFORMED_RATE)]


def prepare_argv(workload, corpus, run_dir, seed):
    argv = ["prepare", "--ratings-csv", str(corpus / "Books_rating.csv"),
            "--books-csv", str(corpus / "books_data.csv"),
            "--out", str(run_dir), "--seed", str(seed)]
    if workload.sample_rows is not None:
        argv += ["--sample-rows", str(workload.sample_rows)]
    return argv


def run_step(runner, argv, run_dir, snap_dir, index):
    """Run one command; check its done marker and snapshot its outputs."""
    command = argv[0]
    marker = MARKERS.get(command)
    if marker:
        (run_dir / marker).unlink(missing_ok=True)
    wall, rss = runner(argv)
    outputs = {}
    for name in OUTPUTS[command]:
        path = run_dir / name
        if path.exists():
            copy = snap_dir / f"{index:02d}-{command}-{name}"
            shutil.copyfile(path, copy)
            outputs[name] = copy
    marker_ok = (run_dir / marker).exists() if marker else None
    return Step(command, list(argv), wall, rss, marker_ok, outputs)


def run_flow(workload, runner, corpus, run_dir, seed, user):
    """prepare and the workload's steps, in order; returns their Steps."""
    run_dir.mkdir(parents=True, exist_ok=True)
    snap_dir = run_dir.parent / (run_dir.name + "-snap")
    snap_dir.mkdir(exist_ok=True)
    common = ["--out", str(run_dir), "--seed", str(seed)]
    steps = [run_step(runner, prepare_argv(workload, corpus, run_dir, seed), run_dir, snap_dir, 0)]
    for i, tail in enumerate(workload.steps, start=1):
        argv = [user if a == USER else a for a in tail] + common
        model = argv[argv.index("--model") + 1] if "--model" in argv else None
        if model in workload.grids:
            config = run_dir.parent / f"{model}-grid.json"
            config.write_text(json.dumps({"grid": workload.grids[model]}), encoding="utf-8")
            argv += ["--config", str(config)]
        steps.append(run_step(runner, argv, run_dir, snap_dir, i))
    return steps


def flow_seconds(steps):
    """Wall time of the flow's commands, prepare through the last one."""
    return sum(s.wall_s for s in steps)


def train_seconds(steps):
    return sum(s.wall_s for s in steps if s.command in TRAIN_COMMANDS)


def last_model(steps):
    for s in reversed(steps):
        if "model.json" in s.outputs:
            return s.outputs["model.json"]
    return None


def snapshots(steps, command, name):
    """Snapshot paths of one output file, in flow order."""
    return [s.outputs[name] for s in steps if s.command == command and name in s.outputs]


def model_snapshot(steps, model_flag):
    """model.json written by the train step run with ``--model model_flag``."""
    for s in steps:
        if s.command == "train" and s.argv[s.argv.index("--model") + 1] == model_flag:
            return s.outputs.get("model.json"), s.outputs.get("train_report.json")
    return None, None
