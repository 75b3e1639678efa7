"""In-process query clients against the artifacts a flow leaves behind.

A client restores what it needs from ``model.json`` and the prepared table
once, then answers requests in a closed loop (one client; the next request
is sent when the previous answer is back). ``expect`` computes each
request's answer apart from the program, with the functions in ``checks``.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import checks

# Share of recsys requests for users absent from the model (popularity
# fallback path).
COLD_SHARE = 0.1
TOP_N = 10
TEST_FRACTION = 0.2


@dataclass
class Client:
    """One round of requests and how to answer and check them."""

    requests: list
    call: Callable  # request -> answer, through the program
    expect: Callable  # k -> answer to request k, computed apart from the program
    compare: Callable  # (got, want, name) -> failure messages


def held_out_rows(n_rows, seed):
    """Rows of the seeded test split (a draw >= 1 - test_fraction per row)."""
    draws = np.random.default_rng(seed).random(n_rows)
    return np.nonzero(draws >= 1.0 - TEST_FRACTION)[0]


def _batches(rows, size, count, seed):
    perm = np.random.default_rng(seed + 1).permutation(rows)
    count = min(count, perm.shape[0] // size)
    return [np.sort(perm[k * size:(k + 1) * size]) for k in range(count)]


def scoring_client(workload, run_dir, seed):
    """classify / trees: score request_rows held-out rows per request."""
    from bookml import persist, validation
    from bookml.pipeline import Pipeline
    from bookml.table import load_table

    artifact = persist.load_artifact(run_dir / "model.json")
    pipe = Pipeline.from_json(artifact["pipeline"])
    model = persist.model_from_json(artifact["model"])
    prepared = load_table(run_dir / "prepared")
    batches = _batches(held_out_rows(prepared.row_count, seed), workload.request_rows,
                       workload.requests_per_round, seed)
    requests = [prepared.take(idx) for idx in batches]

    def call(table):
        out = pipe.transform(table)
        col = out.column("features")
        X = validation.stack_vectors([col.value_at(i) for i in range(out.row_count)])
        return model.decision_function(X)

    doc = checks.load_json(run_dir / "model.json")
    raw = checks.read_table(run_dir / "prepared")
    decision = checks.gbt_decision if doc["model"]["kind"] == "gbt" else checks.linear_decision
    inputs = {name: raw[name] for name in ("price", "r_time", "r_summary", "r_review")}

    def expect(k):
        cols = {name: [None if mask[i] else values[i] for i in batches[k]]
                for name, (values, mask) in inputs.items()}
        return decision(doc["model"], checks.features(doc["pipeline"], cols))

    return Client(requests, call, expect, checks.check_scores)


def recsys_client(workload, run_dir, seed):
    """recsys: one top-10 with seen items excluded per request."""
    from bookml import persist
    from bookml.recommend import build_interactions
    from bookml.table import load_table

    artifact = persist.load_artifact(run_dir / "model.json")
    model = persist.model_from_json(artifact["model"])
    data = build_interactions(load_table(run_dir / "prepared"), "user_id", "title", "r_score")
    doc = checks.load_json(run_dir / "model.json")["model"]
    doc["user_factors"] = np.asarray(doc["user_factors"], dtype=np.float64)
    doc["item_factors"] = np.asarray(doc["item_factors"], dtype=np.float64)
    known = doc["user_ids"]
    n = workload.requests_per_round
    n_cold = int(round(n * COLD_SHARE))
    rng = np.random.default_rng(seed + 2)
    # Synthetic user ids all start with "U", so these are never in the model.
    cold = [f"cold-{k:03d}" for k in range(n_cold)]
    users = [known[i] for i in rng.choice(len(known), size=n - n_cold, replace=False)] + cold
    requests = [users[i] for i in rng.permutation(len(users))]

    def call(user):
        return model.recommend_top_n(user, TOP_N, exclude_seen=True, interactions=data)

    inter = checks.interactions(checks.read_table(run_dir / "prepared"))

    def expect(k):
        return checks.expected_top_n(doc, inter, requests[k], TOP_N)

    return Client(requests, call, expect, checks.check_top_n)


def make_client(workload, run_dir, seed):
    if workload.name == "recsys":
        return recsys_client(workload, run_dir, seed)
    return scoring_client(workload, run_dir, seed)
