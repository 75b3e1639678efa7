"""docspec: the declared document shapes, and mutations drawn from them.

The mutation test walks each checked-in v1 artifact and the v1 prepared
table's schema.json together with the specs their readers declare. It drops
a declared field, retypes one to a value its spec rejects, or makes a
finite number non-finite, and asserts that the CLI exits 3 with one
``error:`` line naming the path it mutated.
"""

import copy
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from bookml.cli import ARTIFACT_DOCS, RunConfig, main
from bookml.docspec import (Any, Array, Bool, Const, Count, Doc, Finite, Int, ListOf, Nullable,
                            Str, check)
from bookml.errors import ConfigError, DataError
from bookml.persist import model_class
from bookml.pipeline import PIPELINE_DOC, STAGE_TYPES
from bookml.table import TABLE_SCHEMA
from bookml.tree import TreeDoc

DATA = Path(__file__).parent / "data"
MODELS = ["logistic", "svc", "dtree", "rforest", "gbt", "als", "als_implicit"]
RETYPES = [None, True, "x", {}, [[1.0]]]


def rejects(spec, value):
    try:
        check(value, spec, "")
    except DataError:
        return True
    return False


class TestCheck:
    def test_path_names_the_part_at_fault(self):
        spec = Doc({"trees": ListOf(Doc({"threshold": Finite}))})
        doc = {"trees": [{"threshold": 0.5}] * 3 + [{"threshold": "x"}]}
        with pytest.raises(DataError, match=r"^trees\[3\]\.threshold must be a finite number, got 'x'$"):
            check(doc, spec, "")
        with pytest.raises(DataError, match=r"^model\.trees\[0\]\.threshold is missing$"):
            check({"trees": [{}]}, spec, "model")
        with pytest.raises(DataError, match=r"^model\.extra is not one of the keys"):
            check({"trees": [], "extra": 1}, spec, "model")

    def test_error_class_is_the_callers(self):
        with pytest.raises(ConfigError, match="^seed must be an int >= 0, got -5$"):
            check(-5, Int(0), "seed", ConfigError)

    @pytest.mark.parametrize("spec, good, bad", [
        (Int(), [0, -3, 2**70], [True, 1.0, "1", None]),
        (Int(0, 3), [0, 2], [-1, 3]),
        (Count, [1, 2**63 - 1], [0, 2**63, True, 1.5]),
        (Finite, [0, 1.5, -2, 10**300], [math.nan, math.inf, True, "1", 10**400, None]),
        (Str, ["", "a"], [1, None]),
        (Bool, [True, False], [0, None]),
        (Const(1), [1], [True, 1.0, 2]),
        (Nullable(Int()), [None, 3], [True, "3"]),
        (ListOf(Str, min_len=1, unique=True), [["a"], ["a", "b"]], [[], ["a", "a"], [1], "a"]),
        (ListOf(Finite, length=2), [[1, 2.0]], [[1], [1, math.nan], [1, 2, 3]]),
        (Doc({"a": Int()}, optional=("a",)), [{}, {"a": 1}], [{"b": 1}, {"a": None}, []]),
        (Doc({"a": Int()}, open=True), [{"a": 1, "b": None}], [{"b": 1}]),
    ])
    def test_leaf_rules(self, spec, good, bad):
        for value in good:
            assert check(value, spec, "v") == value
        for value in bad:
            assert rejects(spec, value), value

    def test_array_converts_without_walking(self):
        arr = check([[1, 2.5], [3, 4]], Array((2, None)), "w")
        assert arr.dtype == np.float64 and arr.tolist() == [[1.0, 2.5], [3.0, 4.0]]
        for bad in ([[1, 2], [3]], [[1, math.nan]], [["a", "b"]], [1, 2], None, [[1, None]]):
            assert rejects(Array((2, None)), bad), bad

    def test_dependent_field_sees_the_fields_before_it(self):
        spec = Doc({"n": Count, "rows": lambda d: ListOf(Int(), length=d["n"])})
        assert check({"n": 2, "rows": [1, 2]}, spec, "") == {"n": 2, "rows": [1, 2]}
        with pytest.raises(DataError, match=r"^rows must hold exactly 2 entries, got 1$"):
            check({"n": 2, "rows": [1]}, spec, "")

    def test_param_spec_follows_the_defaults(self):
        from bookml.ensemble import RandomForestClassifier
        from bookml.linear import LogisticRegressionClassifier

        params = LogisticRegressionClassifier.param_spec()
        check({**LogisticRegressionClassifier().get_params(), "l2_reg": 1, "num_classes": 3},
              params, "params")
        for name, value in [("l2_reg", "0.1"), ("max_iters", 1.0), ("max_iters", True),
                            ("num_classes", 2.0), ("seed", None)]:
            doc = {**LogisticRegressionClassifier().get_params(), name: value}
            assert rejects(params, doc), (name, value)
        assert rejects(RandomForestClassifier.param_spec(),
                       {**RandomForestClassifier().get_params(), "bootstrap": 1})


# ------------------------------------------------------- declared mutations


def _at(path, key):
    return f"{path}.{key}" if path else key


def declared(path, spec, value, parent):
    """The spec of a field that its document leaves to another reader (Any here)."""
    if spec is not Any:
        return spec
    if path == "model":
        return model_class(value["kind"]).doc_spec()
    if path == "pipeline":
        return PIPELINE_DOC
    if re.fullmatch(r"pipeline\.stages\[\d+\]\.state", path):
        return STAGE_TYPES[parent["type"]].STATE
    return Any


def leaves(value, spec, path="", parent=None):
    """(path, container, key, spec, droppable) of each declared part of value, Any aside."""
    spec = declared(path, spec, value, parent)
    if isinstance(spec, Nullable):
        spec = spec.spec if value is not None else Any
    tree = spec if isinstance(spec, TreeDoc) else None
    if tree:
        spec = tree.node_spec(value)
    if isinstance(spec, Doc):
        read = check(value, spec, path)
        for key, field in spec.fields.items():
            if key in value:
                field = tree if tree and key in ("left", "right") else field
                field = field(read) if callable(field) else field
                field = declared(_at(path, key), field, value[key], value)
                if field is not Any:
                    yield _at(path, key), value, key, field, key not in spec.optional
                    yield from leaves(value[key], field, _at(path, key), value)
    elif isinstance(spec, ListOf) and spec.spec is not Any:
        for i, entry in enumerate(value):
            yield f"{path}[{i}]", value, i, spec.spec, False
            yield from leaves(entry, spec.spec, f"{path}[{i}]", value)


def _numbers(value, where=()):
    """Positions of the numbers inside a nested list."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            yield from _numbers(entry, (*where, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where


def _artifact_spec(doc):
    return ARTIFACT_DOCS[doc["artifact"]]


DOCUMENTS = {
    **{model: (DATA / f"{model}_v1.model.json", _artifact_spec) for model in MODELS},
    "schema": (DATA / "prepared_v1" / "schema.json", lambda doc: TABLE_SCHEMA),
}


@pytest.fixture(scope="module")
def documents():
    out = {}
    for name, (path, spec_of) in DOCUMENTS.items():
        doc = json.loads(path.read_text(encoding="utf-8"))
        out[name] = (doc, list(leaves(doc, spec_of(doc))))
    return out


def test_walk_reaches_every_reader(documents):
    paths = {name: {leaf[0] for leaf in found} for name, (_, found) in documents.items()}
    assert "model.trees[3].threshold" in paths["rforest"]
    assert any(re.fullmatch(r"model\.root(\.left|\.right)+\.prediction\[1\]", path)
               for path in paths["dtree"])
    assert "probes.top_n[2].n" in paths["als"]
    assert "pipeline.stages[4].state.doc_freq" in paths["logistic"]
    assert "probes.inputs.r_time.values[0]" in paths["svc"]
    assert "model.training.final_objective" in paths["svc"]
    assert "columns[6].nullable" in paths["schema"]


def _run(name, doc, tmp_path, capsys):
    capsys.readouterr()
    if name == "schema":
        prepared = tmp_path / "run" / "prepared"
        shutil.copytree(DATA / "prepared_v1", prepared)
        (prepared / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
        code = main(["train", "--out", str(tmp_path / "run"), "--model", "als",
                     "--sweeps", "1", "--rank", "2", "--seed", "3"])
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["verify-model", "--path", str(path), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_unmutated_document_passes(tmp_path, capsys, documents, name):
    assert _run(name, copy.deepcopy(documents[name][0]), tmp_path, capsys) == (0, "")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutation_drawn_from_declarations_is_data_error(tmp_path_factory, capsys, documents,
                                                        data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    doc, found = documents[name]
    index = data.draw(st.integers(0, len(found) - 1))
    path, container, key, spec, droppable = found[index]
    retypes = [v for v in RETYPES if rejects(spec, v)]
    numbers = list(_numbers(container[key])) if isinstance(spec, Array) else [()]
    nonfinite = (spec is Finite or isinstance(spec, Array)) and bool(numbers)
    actions = ["drop"] * droppable + ["retype"] * bool(retypes) + ["nonfinite"] * nonfinite
    if not actions:
        event("nothing declared to mutate")
        return
    action = data.draw(st.sampled_from(actions))
    event(f"{name}: {action}")
    doc = copy.deepcopy(doc)
    _, container, key, _, _ = list(leaves(doc, DOCUMENTS[name][1](doc)))[index]
    if action == "drop":
        del container[key]
    elif action == "retype":
        container[key] = data.draw(st.sampled_from(retypes))
    else:
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if spec is Finite:
            container[key] = bad
        else:
            where = data.draw(st.sampled_from(numbers))
            target = container[key]
            for i in where[:-1]:
                target = target[i]
            if where:
                target[where[-1]] = bad
            else:
                container[key] = bad
    code, err = _run(name, doc, tmp_path_factory.mktemp("mutated"), capsys)
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, (path, action, err)
    assert "Traceback" not in err
    parent = path.rsplit(".", 1)[0] if "." in path else ""
    # Dropping a split's feature makes the node a leaf, whose error names the node.
    assert path in err or action == "drop" and parent and f"{parent}." in err, (path, err)


# --------------------------------------------------------- config documents


def test_config_spec_names_every_field():
    from bookml.cli import CONFIG_FIELDS

    assert list(CONFIG_FIELDS) == [f for f in RunConfig.__dataclass_fields__]
