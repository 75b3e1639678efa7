import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from bookml import (
    DataError,
    Pipeline,
    Table,
    idf_weights,
)
from bookml.pipeline import (
    AssembleColumns,
    CountTokens,
    FilterStopwords,
    ScaleMinMax,
    TokenizeText,
    WeightIdf,
)


def text_chain(vocab_size=16, min_df=1):
    return [
        TokenizeText("doc", "tokens"),
        FilterStopwords("tokens", "clean", stopwords=frozenset()),
        CountTokens("clean", "counts", vocab_size=vocab_size, min_df=min_df),
        WeightIdf("counts", "tfidf"),
    ]


def test_empty_stage_list_is_identity(two_doc_table):
    out = Pipeline([]).fit_transform(two_doc_table)
    assert out.equals(two_doc_table)


def test_text_chain_on_two_docs(two_doc_table):
    out = Pipeline(text_chain()).fit_transform(two_doc_table)
    assert out.row_count == 2
    vec = out.column("tfidf").value_at(0)
    # doc "a b a": a has tf 2 and df 1 -> 2*ln(1.5); b appears in both docs -> 0
    assert vec == {"dim": 3, "indices": [0], "values": [pytest.approx(2 * math.log(1.5))]}


def test_transform_is_pure(two_doc_table):
    model = Pipeline(text_chain())
    first = model.fit_transform(two_doc_table)
    second = model.transform(two_doc_table)
    third = model.transform(two_doc_table)
    for out in (second, third):
        assert out.row_count == first.row_count
        for i in range(out.row_count):
            assert out.column("tfidf").value_at(i) == first.column("tfidf").value_at(i)


def test_missing_dependency_reports_stage_index(two_doc_table):
    pipe = Pipeline([TokenizeText("nope", "tokens")])
    with pytest.raises(DataError, match="stage 0"):
        pipe.fit(two_doc_table)


def test_fit_failure_reports_stage_index():
    t = Table.build([("x", "float64", True)], {"x": [None, None]})
    pipe = Pipeline([ScaleMinMax("x", "xn")])
    with pytest.raises(DataError, match=r"stage 0 \(scale_minmax\)"):
        pipe.fit(t)


def test_minmax_stage_rejects_nulls_at_transform():
    train = Table.build([("x", "float64", True)], {"x": [1.0, 3.0]})
    holed = Table.build([("x", "float64", True)], {"x": [1.0, None]})
    pipe = Pipeline([ScaleMinMax("x", "xn")]).fit(train)
    with pytest.raises(DataError):
        pipe.transform(holed)


def test_assemble_stage_and_block_map(ratings_fixture):
    stages = [
        ScaleMinMax("price", "price_norm"),
        ScaleMinMax("r_time", "time_norm"),
        TokenizeText("r_summary", "tokens"),
        CountTokens("tokens", "counts", vocab_size=8, min_df=1),
        AssembleColumns(["price_norm", "time_norm", "counts"], "features"),
    ]
    model = Pipeline(stages)
    out = model.fit_transform(ratings_fixture)
    assembler = model.stages[-1]
    assert assembler.block_map_.names() == ["price_norm", "time_norm", "counts"]
    assert assembler.block_map_.dim == 2 + 8
    vec = out.column("features").value_at(0)
    assert vec["dim"] == 10
    assert out.row_count == ratings_fixture.row_count


def test_row_count_preserved_for_every_chain(ratings_fixture):
    chains = [
        [TokenizeText("r_summary", "t")],
        [TokenizeText("r_summary", "t"), FilterStopwords("t", "c")],
        [ScaleMinMax("price", "p")],
    ]
    for stages in chains:
        out = Pipeline(stages).fit_transform(ratings_fixture)
        assert out.row_count == ratings_fixture.row_count


def test_json_roundtrip_bit_exact(ratings_fixture):
    stages = [
        ScaleMinMax("price", "price_norm"),
        TokenizeText("r_summary", "tokens"),
        FilterStopwords("tokens", "clean"),
        CountTokens("clean", "counts", vocab_size=8, min_df=1),
        WeightIdf("counts", "tfidf"),
        AssembleColumns(["price_norm", "tfidf"], "features"),
    ]
    model = Pipeline(stages)
    expected = model.fit_transform(ratings_fixture)
    doc = json.dumps(model.to_json())
    clone = Pipeline.from_json(json.loads(doc))
    out = clone.transform(ratings_fixture)
    for i in range(out.row_count):
        got = out.column("features").value_at(i)
        want = expected.column("features").value_at(i)
        assert got["dim"] == want["dim"]
        assert got["indices"] == want["indices"]
        assert got["values"] == want["values"]
    # re-serialization reaches a fixed point
    doc2 = json.dumps(clone.to_json())
    assert json.dumps(Pipeline.from_json(json.loads(doc2)).to_json()) == doc2


def test_idf_stage_refits_dfs_from_counts(two_doc_table):
    model = Pipeline(text_chain())
    out = model.fit_transform(two_doc_table)
    idf_stage = model.stages[-1]
    # terms: a (df 1), b (df 2), c (df 1) over 2 docs
    np.testing.assert_allclose(
        idf_stage.weights_, [math.log(1.5), 0.0, math.log(1.5)]
    )


def test_assembler_output_is_canonical():
    # A raw CSR matrix that breaks the vector-column form (an explicit zero,
    # unsorted indices): the assembler still hands models the canonical form.
    raw = sp.csr_matrix(
        (np.array([3.0, 0.0, 1.0]), np.array([2, 1, 0]), np.array([0, 3])), shape=(1, 3)
    )
    table = Table.build([("x", "float64", False)], {"x": [0.0]}).with_column("v", "vector", raw)
    features = AssembleColumns(["x", "v"], "f").fit_transform(table).column("f").values
    assert features.indices.tolist() == [1, 3]
    assert features.data.tolist() == [1.0, 3.0]


@st.composite
def assembler_tables(draw):
    """A table of scalar and raw CSR columns (zeros, -0.0, empty rows, width
    0, explicit zeros, unsorted indices) and the names to assemble."""
    n = draw(st.integers(1, 5))
    cell = st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25])
    table = Table.build([("row", "int64", False)], {"row": list(range(n))})
    names = []
    for k, dtype in enumerate(draw(st.lists(st.sampled_from(["float64", "int64", "vector"]),
                                            min_size=1, max_size=4))):
        if dtype == "vector":
            dim = draw(st.integers(0, 4))
            rows = [draw(st.permutations(range(dim)))[:draw(st.integers(0, dim))] for _ in range(n)]
            indices = np.array([c for r in rows for c in r], dtype=np.int64)
            data = np.array(draw(st.lists(cell, min_size=indices.size, max_size=indices.size)))
            indptr = np.cumsum([0] + [len(r) for r in rows])
            values = sp.csr_matrix((data, indices, indptr), shape=(n, dim))
        elif dtype == "int64":
            values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        else:
            values = draw(st.lists(cell, min_size=n, max_size=n))
        table = table.with_column(f"c{k}", dtype, values)
        names.append(f"c{k}")
    return table, names


@settings(max_examples=200, deadline=None)
@given(assembler_tables())
def test_assembler_matches_hstack_layout(case):
    # The assembler writes the CSR arrays itself; they must be those of
    # sp.hstack over the blocks, canonicalised, down to the dtypes.
    table, names = case
    got = AssembleColumns(names, "f").fit_transform(table).column("f").values
    parts = [col.values if col.dtype == "vector"
             else sp.csr_matrix(np.asarray(col.values, dtype=np.float64).reshape(-1, 1))
             for col in map(table.column, names)]
    want = sp.hstack(parts, format="csr")
    want.eliminate_zeros()
    want.sort_indices()
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


REFERENCE_WORDS = ["alpha", "Beta", "beta", "gamma", "delta", "the"]
REFERENCE_STOP = frozenset({"the"})


def reference_features(fit_texts, texts, fit_prices, prices, terms):
    """Per-row [price_norm | counts | tfidf] from plain dicts, in Column.value_at's row form."""
    def tokens(text):
        return [] if text is None else [t for t in text.lower().split() if t not in REFERENCE_STOP]

    index = {t: j for j, t in enumerate(terms)}
    df = dict.fromkeys(terms, 0)
    for text in fit_texts:
        for t in set(tokens(text)) & set(index):
            df[t] += 1
    idf = idf_weights([df[t] for t in terms], len(fit_texts))
    lo, hi = min(fit_prices), max(fit_prices)
    dim = 1 + 2 * len(terms)
    rows = []
    for text, price in zip(texts, prices):
        counts = {}
        for t in tokens(text):
            if t in index:
                counts[index[t]] = counts.get(index[t], 0) + 1
        entries = {0: (price - lo) / (hi - lo)}
        for j, c in counts.items():
            entries[1 + j] = float(c)
            entries[1 + len(terms) + j] = c * idf[j]
        keep = sorted(j for j, v in entries.items() if v != 0.0)
        rows.append({"dim": dim, "indices": keep, "values": [float(entries[j]) for j in keep]})
    return rows


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(REFERENCE_WORDS), max_size=6).map(" ".join),
        min_size=1, max_size=10,
    ),
    prices=st.lists(st.floats(1.0, 9.0), min_size=10, max_size=10),
    vocab_size=st.sampled_from([2, 16]),
)
def test_columnwise_stages_match_per_row_reference(docs, prices, vocab_size):
    # "every" is in every fit doc, so with the full vocabulary it weighs 0.
    fit_texts = [d + " every" for d in docs] + ["alpha every", "beta every"]
    fit_prices = prices[: len(docs)] + [1.0, 9.0]
    # null, empty, all-OOV and stop-word-only docs; the price at the fitted
    # minimum scales to exactly 0.
    texts = fit_texts + [None, "", "zzz qqq", "the"]
    test_prices = fit_prices + [1.0, 5.0, 9.0, 1.0]
    schema = [("r_summary", "text", True), ("price", "float64", False)]
    stages = [
        ScaleMinMax("price", "price_norm"),
        TokenizeText("r_summary", "tokens"),
        FilterStopwords("tokens", "clean", stopwords=REFERENCE_STOP),
        CountTokens("clean", "counts", vocab_size=vocab_size, min_df=1),
        WeightIdf("counts", "tfidf"),
        AssembleColumns(["price_norm", "counts", "tfidf"], "features"),
    ]
    pipe = Pipeline(stages)
    fit_table = Table.build(schema, {"r_summary": fit_texts, "price": fit_prices})
    fit_out = pipe.fit_transform(fit_table)
    assert pipe.transform(fit_table).equals(fit_out)
    out = pipe.transform(Table.build(schema, {"r_summary": texts, "price": test_prices}))
    terms = pipe.stages[3].vocabulary_.terms
    if vocab_size == 16:
        assert pipe.stages[4].weights_[terms.index("every")] == 0.0

    for table, rows, row_prices in ((fit_out, fit_texts, fit_prices), (out, texts, test_prices)):
        want = reference_features(fit_texts, rows, fit_prices, row_prices, terms)
        for name in ("counts", "tfidf", "features"):
            X = table.column(name).values
            assert X.has_sorted_indices
            assert np.all(X.data != 0.0)
        got = [table.column("features").value_at(i) for i in range(table.row_count)]
        assert got == want
    # null text at the fitted minimum price: the row stores nothing
    assert out.column("features").value_at(len(fit_texts))["indices"] == []
