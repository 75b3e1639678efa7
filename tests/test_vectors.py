import numpy as np
import pytest
from hypothesis import given, strategies as st

from bookml import BlockMap, DataError, FeatureVector, Table, stack_vectors
from bookml.pipeline import AssembleColumns
from bookml.vectors import Block


def assemble(parts, block_map=None):
    """One row of scalars (None for null) and FeatureVectors through AssembleColumns."""
    names = [f"p{i}" for i in range(len(parts))]
    schema = [
        (name, "vector" if isinstance(part, FeatureVector) else "float64", True)
        for name, part in zip(names, parts)
    ]
    table = Table.build(schema, {name: [part] for name, part in zip(names, parts)})
    stage = AssembleColumns(names, "features")
    if block_map is None:
        stage.fit(table)
    else:
        stage.block_map_ = block_map
    return stage.transform(table).column("features").value_at(0)


def test_sparse_indices_sorted_and_deduped():
    v = FeatureVector.sparse(5, [3, 1], [1.0, 2.0])
    assert v.items() == [(1, 2.0), (3, 1.0)]
    with pytest.raises(DataError):
        FeatureVector.sparse(5, [1, 1], [1.0, 2.0])
    with pytest.raises(DataError):
        FeatureVector.sparse(2, [2], [1.0])


def test_explicit_zeros_dropped():
    v = FeatureVector.sparse(4, [0, 2], [0.0, 3.0])
    assert v.items() == [(2, 3.0)]
    assert v.nnz == 1


def test_dense_roundtrip():
    v = FeatureVector.dense([1.0, 0.0, 2.5])
    assert not v.is_sparse
    assert v.items() == [(0, 1.0), (2, 2.5)]
    np.testing.assert_array_equal(v.to_dense(), [1.0, 0.0, 2.5])


def test_assemble_scalar_then_sparse():
    out = assemble([0.5, FeatureVector.sparse(3, [1], [2.0])])
    assert out.dim == 4
    assert out.items() == [(0, 0.5), (2, 2.0)]


def test_assemble_single_part_identity():
    part = FeatureVector.sparse(3, [0, 2], [1.0, 4.0])
    assert assemble([part]) == part


def test_assemble_two_empty_parts():
    out = assemble([FeatureVector.empty(2), FeatureVector.empty(3)])
    assert out.dim == 5
    assert out.nnz == 0


def test_assemble_rejects_null_scalar():
    with pytest.raises(DataError):
        assemble([None, FeatureVector.empty(2)])
    with pytest.raises(DataError):
        assemble([float("nan")])


def test_assemble_enforces_block_map():
    bm = BlockMap([Block("a", 0, 1), Block("b", 1, 3)])
    assemble([1.0, FeatureVector.empty(3)], bm)
    with pytest.raises(DataError):
        assemble([1.0, FeatureVector.empty(2)], bm)


@given(
    st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=0, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_assemble_slice_inverts(dense_parts):
    parts = [FeatureVector.dense(p) if p else FeatureVector.empty(0) for p in dense_parts]
    bm = BlockMap.from_parts(
        [f"p{i}" for i in range(len(parts))], [p.dim for p in parts]
    )
    out = assemble(parts, bm)
    for part, block in zip(parts, bm.blocks):
        recovered = out.slice(block.offset, block.length)
        assert recovered.items() == part.items()
        assert recovered.dim == part.dim


def test_block_map_json_roundtrip():
    bm = BlockMap.from_parts(["x", "y"], [2, 5])
    assert BlockMap.from_json(bm.to_json()) == bm


def test_stack_vectors_sparse_and_dense():
    vs = [FeatureVector.sparse(4, [1], [2.0]), FeatureVector.empty(4)]
    X = stack_vectors(vs)
    assert X.shape == (2, 4)
    dense = X.toarray() if hasattr(X, "toarray") else X
    np.testing.assert_array_equal(dense, [[0, 2.0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(DataError):
        stack_vectors([FeatureVector.empty(2), FeatureVector.empty(3)])
