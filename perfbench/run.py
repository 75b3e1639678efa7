#!/usr/bin/env python3
"""Benchmark of the bookml batch flow on a seeded synthetic corpus.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Workloads are ``classify``, ``recsys`` and ``trees`` (see flows.py and
README.md). A run generates the workload's corpus with ``bookml synth``,
drives the CLI one subprocess per command, then runs an in-process query
client against the saved artifact for ``--seconds`` (in slices of whole
rounds of the same requests, each after a warm-up round), and checks every
output with the computations in checks.py. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same commands in-process
with spans around each layer's public functions and reports the per-layer
metrics instead.

Exit status is 0 with a result, 1 if a command fails or the run exceeds
its deadline, 2 if the checkout has no ``src/bookml`` to run.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import flows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170
# Rounds of requests in the traced run, after one untraced warm-up round.
TRACE_ROUNDS = 2
# The machine's speed drifts by +-20% over seconds, so timed samples are
# spread over the run: the query phase runs in one slice per break, and
# each break repeats set-up or prepare. setup_s is the median of 1 + 2
# synth runs, prepare_s of 1 + 4 prepare runs.
BREAKS = (("synth", "prepare"), ("prepare",), ("synth", "prepare"), ("prepare",))


class Stopped(Exception):
    pass


class Tally:
    """Operations attempted and failed; an operation fails with messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += fails


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _digest(corpus):
    h = hashlib.sha256()
    for name in ("books_data.csv", "Books_rating.csv"):
        h.update((corpus / name).read_bytes())
    return h.hexdigest()


def _same(a, b):
    import numpy as np

    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def warm_up(client):
    for req in client.requests:
        client.call(req)


def query(client, seconds, min_requests, tally, tracer=None, rounds=None):
    """Closed-loop requests in whole rounds; returns per-request seconds.

    Runs until ``seconds`` have passed and at least ``min_requests`` were
    sent, or for exactly ``rounds`` rounds when given. Round one's answers
    are checked against the independent computation, later rounds'
    against round one's.
    """
    first = [None] * len(client.requests)
    latencies = []
    started = time.perf_counter()
    done = 0
    while True:
        for k, req in enumerate(client.requests):
            if tracer is None:
                t0 = time.perf_counter()
                got = client.call(req)
                latencies.append(time.perf_counter() - t0)
            else:
                with tracer.span("client.request"):
                    got = client.call(req)
            if done == 0:
                first[k] = got
            else:
                tally.op([] if _same(got, first[k]) else [f"request {k}: answer changed in round {done + 1}"])
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - started >= seconds and len(latencies) >= min_requests:
            break
    for k, got in enumerate(first):
        tally.op(client.compare(got, client.expect(k), f"request {k}"))
    return latencies


def check_outputs(workload, steps, run_dir, expected, user, tally):
    """Checks of the flow's reports and artifacts (see checks.py)."""
    import checks

    for s in steps:
        tally.op([] if s.marker_ok in (True, None) else [f"{s.command}: no .done marker"])
    summary = checks.load_json(flows.snapshots(steps, "prepare", "prepare_summary.json")[0])
    tally.op(checks.check_prepare(summary, expected))
    table = checks.read_table(run_dir / "prepared")
    tally.op(checks.check_table_rows(table, expected["rows_after_sampling"]))

    if workload.name == "classify":
        tally.op(checks.check_compare(checks.load_json(
            flows.snapshots(steps, "compare", "compare_report.json")[-1])))
        _, report = flows.model_snapshot(steps, "svc")
        tally.op(checks.check_train_classifier(checks.load_json(report), "svc"))
    elif workload.name == "recsys":
        inter = checks.interactions(table)
        for flag in ("als", "als_implicit"):
            model, report = flows.model_snapshot(steps, flag)
            model_doc = checks.load_json(model)["model"]
            tally.op(checks.check_monotone(checks.load_json(report)["objective_trace"], flag))
            tally.op(checks.check_monotone(model_doc["objective_trace"], f"{flag} model.json"))
            tally.op(checks.check_id_order(model_doc, inter))
        als_doc = checks.load_json(flows.model_snapshot(steps, "als")[0])["model"]
        tally.op(checks.check_training_rmse(als_doc, inter))
        rec = checks.load_json(flows.snapshots(steps, "recommend", "recommend_report.json")[-1])
        answer = ([(r["title"], r["score"]) for r in rec["recommendations"]], rec["cold_start"])
        tally.op(checks.check_top_n(answer, checks.expected_top_n(als_doc, inter, user, 10),
                                    "recommend command"))
    elif workload.name == "trees":
        for flag in ("rforest", "gbt"):
            report = checks.load_json(flows.model_snapshot(steps, flag)[1])
            tally.op(checks.check_train_classifier(report, flag))
            tally.op(checks.check_importances(report, flag))


def synth(workload, runner, work, seed, k):
    """``bookml synth`` into corpus<k>; returns (wall time, corpus digest)."""
    corpus = work / f"corpus{k}"
    wall, _ = runner(flows.synth_argv(workload, corpus, seed))
    return wall, _digest(corpus)


def expected_counts(workload, corpus, seed):
    """Independent prepare counts, and the user the recommend step asks for."""
    import checks

    expected = checks.count_corpus(corpus, workload.sample_rows)
    return expected, random.Random(seed).choice(expected["kept_users"])


def end_to_end(workload, seed, seconds, work):
    """Subprocess flow, query client, checks; the end-to-end metrics.

    The timed samples are spread over the run (see BREAKS), so a slow
    spell of the shared machine does not hit all of them.
    """
    tally = Tally()
    runner = flows.subprocess_runner(SRC, work / "commands.log")
    corpus = work / "corpus0"
    wall, digest = synth(workload, runner, work, seed, 0)
    tally.op([])
    setup_walls = [wall]
    # The parent now holds numpy and the corpus counts (~40 MB), below the
    # peak of every CLI command, so it does not mask their ru_maxrss.
    expected, user = expected_counts(workload, corpus, seed)
    run_dir = work / "run"
    steps = flows.run_flow(workload, runner, corpus, run_dir, seed, user)
    prepare_walls = [steps[0].wall_s]
    repeats = []

    def repeat(action, k):
        if action == "synth":
            wall, again = synth(workload, runner, work, seed, k)
            setup_walls.append(wall)
            shutil.rmtree(work / f"corpus{k}")
            tally.op([] if again == digest else [f"synth repeat {k} wrote a different corpus"])
        else:
            argv = flows.prepare_argv(workload, corpus, work / "again", seed)
            repeats.append(flows.run_step(runner, argv, work / "again", work, 0))
            prepare_walls.append(repeats[-1].wall_s)

    import numpy as np

    import client as client_mod

    client = client_mod.make_client(workload, run_dir, seed)
    latencies = []
    for k, actions in enumerate(BREAKS, start=1):
        # Each slice starts warm: the break before it evicted the caches.
        warm_up(client)
        latencies += query(client, seconds / len(BREAKS),
                           workload.min_requests // len(BREAKS), tally)
        for action in actions:
            repeat(action, k)
    check_outputs(workload, steps + repeats, run_dir, expected, user, tally)

    ms = np.asarray(latencies) * 1000.0
    print(f"perfbench: {workload.name} seed {seed}: setup "
          + " ".join(f"{w:.2f}" for w in setup_walls) + " | prepare "
          + " ".join(f"{w:.2f}" for w in prepare_walls) + " | "
          + " | ".join(f"{s.command} {s.wall_s:.2f}s {s.rss_mb:.0f}MB" for s in steps[1:])
          + f" | {ms.size} requests", file=sys.stderr)
    return tally, {
        "setup_s": _metric(statistics.median(setup_walls), "s"),
        "prepare_s": _metric(statistics.median(prepare_walls), "s"),
        "train_s": _metric(flows.train_seconds(steps), "s"),
        "flow_s": _metric(flows.flow_seconds(steps), "s"),
        "query_p50_ms": _metric(float(np.percentile(ms, 50)), "ms"),
        "query_p99_ms": _metric(float(np.percentile(ms, 99)), "ms"),
        # Only the flow's commands: the repeats start after the client has
        # loaded, when the parent's own high-water mark would mask theirs.
        "peak_rss_mb": _metric(max(s.rss_mb for s in steps), "MB"),
        "artifact_mb": _metric(flows.last_model(steps).stat().st_size / 1e6, "MB"),
    }


def traced(workload, seed, seconds, work):
    """Per-layer metrics from spans, with the tracing overhead on flow_s.

    The flow runs twice in this process, first without spans (the baseline
    for the overhead), then with them; the query client then runs a fixed
    TRACE_ROUNDS rounds with spans, so call counts repeat from run to run.
    """
    import client as client_mod
    import spans

    tally = Tally()
    tracer = spans.Tracer()
    plain = flows.inprocess_runner()

    def traced_runner(argv):
        with tracer.span(f"cli.{argv[0]}"):
            return plain(argv)

    tracer.install()
    synth(workload, traced_runner, work, seed, 0)
    tracer.uninstall()
    corpus = work / "corpus0"
    expected, user = expected_counts(workload, corpus, seed)
    baseline = flows.run_flow(workload, plain, corpus, work / "baseline", seed, user)
    shutil.rmtree(work / "baseline")

    run_dir = work / "run"
    tracer.phase = "flow"
    tracer.install()
    steps = flows.run_flow(workload, traced_runner, corpus, run_dir, seed, user)
    tracer.uninstall()

    client = client_mod.make_client(workload, run_dir, seed)
    warm_up(client)
    tracer.phase = "query"
    tracer.install()
    query(client, seconds, 0, tally, tracer=tracer, rounds=TRACE_ROUNDS)
    tracer.uninstall()
    check_outputs(workload, steps, run_dir, expected, user, tally)

    missing = sorted(set(tracer.missing))
    for name in missing:
        print(f"perfbench: traced name missing: {name}", file=sys.stderr)
    metrics = tracer.metrics()
    untraced_s = flows.flow_seconds(baseline)
    traced_s = flows.flow_seconds(steps)
    metrics.update({
        "trace.flow_untraced_s": _metric(untraced_s, "s"),
        "trace.flow_traced_s": _metric(traced_s, "s"),
        "trace.overhead_pct": _metric(100.0 * (traced_s / untraced_s - 1.0), "%"),
        "trace.missing": _metric(len(missing), "count"),
    })
    return tally, metrics


def _fix_environment():
    """Re-execute with the fixed hash seed and BLAS/OpenMP thread counts."""
    if all(os.environ.get(k) == v for k, v in flows.FIXED_ENV.items()):
        return
    env = {**os.environ, **flows.FIXED_ENV}
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"run exceeded its {DEADLINE_S} s deadline")
    raise Stopped(f"stopped by signal {signum}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(flows.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _fix_environment()
    if not (SRC / "bookml" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'bookml'} not found; run from a bookml checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = flows.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    try:
        run = traced if args.trace else end_to_end
        tally, metrics = run(workload, args.seed, args.seconds, work)
    except (flows.CommandFailed, Stopped) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for message in tally.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
