"""Spans around calls into bookml's layers, installed from the benchmark.

Nothing under ``src/`` is instrumented: ``Tracer.install`` replaces public
functions and methods of each layer module (as bound where the CLI calls
them) with wrappers that record one span per call: name, parent, start,
end, and the run phase (setup, flow or query). Per-row helpers such as
``route`` and ``Column.value_at`` stay unwrapped to keep the overhead small.
A name that a later version of the program no longer has is listed in
``Tracer.missing`` and skipped.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, span name). A span name is "<layer>.<what>";
# the layer is the bookml module the call belongs to.
WRAPS = (
    ("bookml.cli", "generate_corpus", "synth.generate"),
    ("bookml.cli", "parse_csv", "table.parse"),
    ("bookml.cli", "join_inner", "table.join"),
    ("bookml.cli", "save_table", "table.save"),
    ("bookml.cli", "load_table", "table.load"),
    ("bookml.cli", "split_random", "table.split"),
    ("bookml.pipeline", "Pipeline.fit", "pipeline.fit"),
    ("bookml.pipeline", "Pipeline.transform", "pipeline.transform"),
    ("bookml.pipeline", "TokenizeText.transform", "pipeline.tokenize"),
    ("bookml.pipeline", "FilterStopwords.transform", "pipeline.stopwords"),
    ("bookml.pipeline", "CountTokens.fit", "pipeline.count"),
    ("bookml.pipeline", "CountTokens.transform", "pipeline.count"),
    ("bookml.pipeline", "WeightIdf.fit", "pipeline.idf"),
    ("bookml.pipeline", "WeightIdf.transform", "pipeline.idf"),
    ("bookml.pipeline", "ScaleMinMax.fit", "pipeline.scale"),
    ("bookml.pipeline", "ScaleMinMax.transform", "pipeline.scale"),
    ("bookml.pipeline", "AssembleColumns.fit", "pipeline.assemble"),
    ("bookml.pipeline", "AssembleColumns.transform", "pipeline.assemble"),
    ("bookml.cli", "stack_vectors", "validation.stack"),
    ("bookml.validation", "stack_vectors", "validation.stack"),
    ("bookml.linear", "LogisticRegressionClassifier.fit", "linear.logistic_fit"),
    ("bookml.linear", "logistic_objective", "linear.objective"),
    ("bookml.linear", "LinearSVC.fit", "linear.svc_fit"),
    ("bookml.linear", "LogisticRegressionClassifier.decision_function", "linear.predict"),
    ("bookml.linear", "LinearSVC.decision_function", "linear.predict"),
    ("bookml.cli", "cross_validate", "selection.tune"),
    ("bookml.cli", "train_validation_split", "selection.tune"),
    ("bookml.selection", "take_rows", "selection.take_rows"),
    ("bookml.tree", "grow_tree", "tree.grow"),
    ("bookml.ensemble", "grow_tree", "tree.grow"),
    ("bookml.tree", "best_split", "tree.best_split"),
    ("bookml.tree", "tree_predict_matrix", "tree.predict"),
    ("bookml.ensemble", "tree_predict_matrix", "tree.predict"),
    ("bookml.ensemble", "GradientBoostedTreesClassifier.fit", "ensemble.gbt_fit"),
    ("bookml.ensemble", "RandomForestClassifier.fit", "ensemble.rforest_fit"),
    ("bookml.cli", "build_interactions", "recommend.build_interactions"),
    ("bookml.cli", "evaluate_holdout", "recommend.holdout"),
    ("bookml.recommend", "ALSExplicit.fit", "recommend.als_fit"),
    ("bookml.recommend", "ALSImplicit.fit", "recommend.als_implicit_fit"),
    ("bookml.recommend", "ALSExplicit.recommend_top_n", "recommend.topn"),
    ("bookml.recommend", "ALSImplicit.recommend_top_n", "recommend.topn"),
    ("bookml.cli", "save_artifact", "persist.save"),
    ("bookml.cli", "load_artifact", "persist.load"),
    ("bookml.cli", "cmd_verify", "persist.verify"),
)

ESTIMATOR_FITS = ("linear.logistic_fit", "linear.svc_fit", "ensemble.gbt_fit",
                  "ensemble.rforest_fit")
LAYERS = ("cli", "synth", "table", "pipeline", "validation", "linear", "selection",
          "tree", "ensemble", "recommend", "persist", "client")

# Per-layer metrics: (name, unit, kind, source, phase). kind "time" sums span
# durations, "calls" counts spans, "count" reads a counter, "self" is a
# layer's self time. phase None means every phase.
METRICS = (
    ("table.parse_s", "s", "time", "table.parse", None),
    ("table.join_s", "s", "time", "table.join", None),
    ("table.save_s", "s", "time", "table.save", None),
    ("table.load_s", "s", "time", "table.load", None),
    ("table.split_s", "s", "time", "table.split", None),
    ("pipeline.fit_s", "s", "time", "pipeline.fit", None),
    ("pipeline.transform_s", "s", "time", "pipeline.transform", "flow"),
    ("pipeline.request_transform_s", "s", "time", "pipeline.transform", "query"),
    ("pipeline.transform_rows", "count", "count", "pipeline.transform_rows", None),
    ("pipeline.tokenize_s", "s", "time", "pipeline.tokenize", None),
    ("pipeline.stopwords_s", "s", "time", "pipeline.stopwords", None),
    ("pipeline.count_s", "s", "time", "pipeline.count", None),
    ("pipeline.idf_s", "s", "time", "pipeline.idf", None),
    ("pipeline.scale_s", "s", "time", "pipeline.scale", None),
    ("pipeline.assemble_s", "s", "time", "pipeline.assemble", None),
    ("validation.stack_s", "s", "time", "validation.stack", None),
    ("linear.logistic_fit_s", "s", "time", "linear.logistic_fit", None),
    ("linear.logistic_iters", "count", "count", "linear.logistic_iters", None),
    ("linear.objective_evals", "count", "calls", "linear.objective", None),
    ("linear.svc_fit_s", "s", "time", "linear.svc_fit", None),
    ("linear.svc_iters", "count", "count", "linear.svc_iters", None),
    ("linear.predict_s", "s", "time", "linear.predict", None),
    ("selection.tune_s", "s", "time", "selection.tune", None),
    ("selection.fits", "count", "count", "selection.fits", None),
    ("selection.take_rows_s", "s", "time", "selection.take_rows", None),
    ("tree.grow_s", "s", "time", "tree.grow", None),
    ("tree.best_split_s", "s", "time", "tree.best_split", None),
    ("tree.best_split_calls", "count", "calls", "tree.best_split", None),
    ("tree.nodes", "count", "count", "tree.nodes", None),
    ("tree.predict_s", "s", "time", "tree.predict", None),
    ("ensemble.gbt_fit_s", "s", "time", "ensemble.gbt_fit", None),
    ("ensemble.rforest_fit_s", "s", "time", "ensemble.rforest_fit", None),
    ("recommend.build_interactions_s", "s", "time", "recommend.build_interactions", None),
    ("recommend.holdout_s", "s", "time", "recommend.holdout", None),
    ("recommend.als_fit_s", "s", "time", "recommend.als_fit", None),
    ("recommend.als_implicit_fit_s", "s", "time", "recommend.als_implicit_fit", None),
    ("recommend.topn_s", "s", "time", "recommend.topn", None),
    ("recommend.topn_calls", "count", "calls", "recommend.topn", None),
    ("persist.save_s", "s", "time", "persist.save", None),
    ("persist.load_s", "s", "time", "persist.load", None),
    ("persist.verify_s", "s", "time", "persist.verify", None),
    ("synth.generate_s", "s", "time", "synth.generate", None),
) + tuple((f"{layer}.self_s", "s", "self", layer, None) for layer in LAYERS)
# Derived from the above: full ALS sweeps, and mean ALS fit time per
# half-sweep (fit time over half-sweeps, objective evaluations included).
DERIVED = (("recommend.sweeps", "count"), ("recommend.half_sweep_s", "s"))
OVERHEAD = (("trace.flow_untraced_s", "s"), ("trace.flow_traced_s", "s"),
            ("trace.overhead_pct", "%"), ("trace.missing", "count"))


def metric_units():
    """(name, unit) of every per-layer metric a traced run reports."""
    return [(m[0], m[1]) for m in METRICS] + list(DERIVED) + list(OVERHEAD)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float
    phase: str


def _tree_nodes(root):
    if not hasattr(root, "left"):
        return 0
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return count


def _after_call(tracer, name, args, result):
    """Counts read from the real call pattern, after the call returns."""
    counts = tracer.counts
    if name in ESTIMATOR_FITS and "selection.tune" in tracer.open_names:
        counts["selection.fits"] += 1
    if name == "pipeline.assemble" and tracer.phase == "flow" and hasattr(result, "row_count"):
        counts["pipeline.transform_rows"] += result.row_count
    elif name == "linear.logistic_fit":
        counts["linear.logistic_iters"] += args[0].n_iters_
    elif name == "linear.svc_fit":
        counts["linear.svc_iters"] += args[0].n_iters_
    elif name == "tree.grow":
        counts["tree.nodes"] += _tree_nodes(result)
    elif name in ("recommend.als_fit", "recommend.als_implicit_fit"):
        counts["recommend.half_sweeps"] += len(args[0].objective_trace_) - 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = set()
        self.counts = dict.fromkeys(
            ("selection.fits", "pipeline.transform_rows", "linear.logistic_iters",
             "linear.svc_iters", "tree.nodes", "recommend.half_sweeps"), 0)
        self.phase = "setup"
        self.missing = []
        self._undo = []

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        record = Span(name, parent, time.perf_counter(), 0.0, self.phase)
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        self.open_names.add(name)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self.stack.pop()
            self.open_names.discard(name)

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # A call nested in a span of the same name (a method calling its
            # sibling binding) is part of the outer span.
            if name in tracer.open_names:
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            _after_call(tracer, name, args, result)
            return result

        self._undo.append((owner, attr, original if attr in vars(owner) else None))
        setattr(owner, attr, wrapper)

    def install(self):
        for module_name, path, name in WRAPS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._wrap(owner, attr, name)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """Per-layer self time: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        layers = dict.fromkeys(LAYERS, 0.0)
        for s, inner in zip(self.spans, child):
            layer = s.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (s.end - s.start) - inner
        return layers

    def metrics(self):
        selfs = self.self_times()
        out = {}
        for name, unit, kind, source, phase in METRICS:
            picked = [s for s in self.spans
                      if s.name == source and (phase is None or s.phase == phase)]
            if kind == "time":
                value = sum(s.end - s.start for s in picked)
            elif kind == "calls":
                value = len(picked)
            elif kind == "count":
                value = self.counts[source]
            else:
                value = selfs[source]
            out[name] = {"value": value, "unit": unit}
        fits = out["recommend.als_fit_s"]["value"] + out["recommend.als_implicit_fit_s"]["value"]
        half = self.counts["recommend.half_sweeps"]
        out["recommend.sweeps"] = {"value": half // 2, "unit": "count"}
        out["recommend.half_sweep_s"] = {"value": fits / half if half else 0.0, "unit": "s"}
        return out
