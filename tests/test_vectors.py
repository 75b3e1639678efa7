import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from bookml import BlockMap, DataError, Table, stack_vectors
from bookml.pipeline import AssembleColumns
from bookml.table import Column
from bookml.vectors import Block


def sparse_row(dim, indices, values):
    """A 1-row CSR part."""
    return sp.csr_matrix((values, indices, [0, len(indices)]), shape=(1, dim))


def vector_column(X):
    return Column("vector", X, np.zeros(X.shape[0], dtype=bool))


def assemble_matrix(parts, block_map=None):
    """One row of scalars (None for null) and 1-row CSR parts through AssembleColumns."""
    table = Table.build([("row", "int64", False)], {"row": [0]})
    names = [f"p{i}" for i in range(len(parts))]
    for name, part in zip(names, parts):
        if sp.issparse(part):
            table = table.with_column(name, "vector", part)
        else:
            table = table.with_column(name, "float64", [part or 0.0], mask=[part is None])
    stage = AssembleColumns(names, "features")
    if block_map is None:
        stage.fit(table)
    else:
        stage.block_map_ = block_map
    return stage.transform(table).column("features").values


def assemble(parts, block_map=None):
    """The assembled row as Column.value_at reads it back."""
    return vector_column(assemble_matrix(parts, block_map)).value_at(0)


def test_assemble_scalar_then_sparse():
    out = assemble([0.5, sparse_row(3, [1], [2.0])])
    assert out == {"dim": 4, "indices": [0, 2], "values": [0.5, 2.0]}


def test_assemble_single_part_identity():
    part = sparse_row(3, [0, 2], [1.0, 4.0])
    assert assemble([part]) == vector_column(part).value_at(0)


def test_assemble_two_empty_parts():
    out = assemble([sparse_row(2, [], []), sparse_row(3, [], [])])
    assert out == {"dim": 5, "indices": [], "values": []}


def test_assemble_rejects_null_scalar():
    with pytest.raises(DataError):
        assemble([None, sparse_row(2, [], [])])
    with pytest.raises(DataError):
        assemble([float("nan")])


def test_assemble_enforces_block_map():
    bm = BlockMap([Block("a", 0, 1), Block("b", 1, 3)])
    assemble([1.0, sparse_row(3, [], [])], bm)
    with pytest.raises(DataError):
        assemble([1.0, sparse_row(2, [], [])], bm)


@given(
    st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=0, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_assemble_slice_inverts(dense_parts):
    parts = [sp.csr_matrix(np.reshape(p, (1, len(p)))) for p in dense_parts]
    bm = BlockMap.from_parts(
        [f"p{i}" for i in range(len(parts))], [p.shape[1] for p in parts]
    )
    X = assemble_matrix(parts, bm)
    for part, block in zip(parts, bm.blocks):
        recovered = X[:, block.offset : block.offset + block.length]
        assert recovered.shape == part.shape
        np.testing.assert_array_equal(recovered.toarray(), part.toarray())


def test_block_map_json_roundtrip():
    bm = BlockMap.from_parts(["x", "y"], [2, 5])
    assert BlockMap.from_json(bm.to_json()) == bm


def test_stack_vectors_sparse_and_dense():
    rows = [{"dim": 4, "indices": [1], "values": [2.0]},
            {"dim": 4, "indices": [], "values": []}]
    X = stack_vectors(rows)
    assert sp.issparse(X) and X.format == "csr"
    assert X.shape == (2, 4)
    np.testing.assert_array_equal(X.toarray(), [[0, 2.0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(DataError):
        stack_vectors([{"dim": 2, "indices": [], "values": []},
                       {"dim": 3, "indices": [], "values": []}])
    with pytest.raises(DataError):
        stack_vectors([])


@st.composite
def feature_matrices(draw):
    """Random canonical CSR matrices: empty rows, dim 0, and occupancy from
    none to full."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(0, 8))
    occupancy = draw(st.sampled_from([0.0, 0.125, 0.25, 1.0]))
    keep = draw(st.lists(st.floats(0, 1), min_size=n * dim, max_size=n * dim))
    cells = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
                          .filter(bool), min_size=n * dim, max_size=n * dim))
    dense = np.reshape([c if k < occupancy else 0.0 for c, k in zip(cells, keep)], (n, dim))
    return sp.csr_matrix(dense)


@settings(max_examples=200, deadline=None)
@given(feature_matrices())
def test_rows_stack_back_to_the_training_matrix(X):
    col = vector_column(X)
    rows = [col.value_at(i) for i in range(len(col))]
    for row in rows:
        assert json.loads(json.dumps(row)) == row
    got, want = stack_vectors(rows), col.values
    assert type(got) is type(want)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
