"""Sparse/dense feature vectors, concatenation, and block bookkeeping.

Feature stages emit whole columns as one CSR matrix; a FeatureVector is a
single row of such a matrix, as read back per row by ``Column.value_at`` and
written into artifact probe blocks. Assembled features keep a block map
(name, offset, length) so tree importances can be attributed back to the
source columns.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .errors import DataError


class FeatureVector:
    """Fixed-dimension real vector, stored dense or as sorted (index, value) pairs.

    Sparse form never carries explicit zeros and indices are strictly
    increasing. Instances are immutable.
    """

    __slots__ = ("dim", "indices", "values", "_dense")

    def __init__(self, dim, indices=None, values=None, dense=None):
        if dim < 0:
            raise DataError("vector dimension must be nonnegative")
        self.dim = int(dim)
        if dense is not None:
            arr = np.asarray(dense, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != self.dim:
                raise DataError("dense payload does not match declared dimension")
            arr = arr.copy()
            arr.flags.writeable = False
            self._dense = arr
            self.indices = None
            self.values = None
        else:
            idx = np.asarray(indices if indices is not None else [], dtype=np.int64)
            val = np.asarray(values if values is not None else [], dtype=np.float64)
            if idx.shape != val.shape or idx.ndim != 1:
                raise DataError("sparse indices and values must be 1-d and aligned")
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
            keep = val != 0.0
            idx, val = idx[keep], val[keep]
            if idx.size:
                if idx[0] < 0 or idx[-1] >= self.dim:
                    raise DataError("sparse index out of range")
                if np.any(np.diff(idx) == 0):
                    raise DataError("duplicate sparse index")
            idx.flags.writeable = False
            val.flags.writeable = False
            self.indices = idx
            self.values = val
            self._dense = None

    @classmethod
    def dense(cls, values):
        values = np.asarray(values, dtype=np.float64)
        return cls(values.shape[0], dense=values)

    @classmethod
    def sparse(cls, dim, indices, values):
        return cls(dim, indices=indices, values=values)

    @classmethod
    def empty(cls, dim):
        return cls(dim, indices=[], values=[])

    @classmethod
    def from_csr_row(cls, X, i):
        """Row i of a CSR matrix as a sparse vector."""
        lo, hi = X.indptr[i], X.indptr[i + 1]
        return cls(X.shape[1], indices=X.indices[lo:hi], values=X.data[lo:hi])

    @property
    def is_sparse(self):
        return self._dense is None

    @property
    def nnz(self):
        if self.is_sparse:
            return int(self.indices.shape[0])
        return int(np.count_nonzero(self._dense))

    def to_dense(self):
        if self._dense is not None:
            return self._dense.copy()
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def items(self):
        """Nonzero (index, value) pairs in index order."""
        if self.is_sparse:
            return list(zip(self.indices.tolist(), self.values.tolist()))
        idx = np.nonzero(self._dense)[0]
        return list(zip(idx.tolist(), self._dense[idx].tolist()))

    def slice(self, offset, length):
        """Sub-vector of [offset, offset+length); inverse of assemble."""
        if offset < 0 or length < 0 or offset + length > self.dim:
            raise DataError("slice out of range")
        if not self.is_sparse:
            return FeatureVector.dense(self._dense[offset : offset + length])
        lo = np.searchsorted(self.indices, offset, side="left")
        hi = np.searchsorted(self.indices, offset + length, side="left")
        return FeatureVector.sparse(
            length, self.indices[lo:hi] - offset, self.values[lo:hi]
        )

    def __eq__(self, other):
        if not isinstance(other, FeatureVector):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return self.items() == other.items()

    def __repr__(self):
        if self.is_sparse:
            body = ", ".join(f"{i}: {v:g}" for i, v in self.items())
            return f"FeatureVector(dim={self.dim}, sparse={{{body}}})"
        return f"FeatureVector(dim={self.dim}, dense={self._dense.tolist()})"


@dataclass(frozen=True)
class Block:
    name: str
    offset: int
    length: int


class BlockMap:
    """Ordered (name, offset, length) layout of an assembled vector."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        offset = 0
        for b in self.blocks:
            if b.offset != offset or b.length < 0:
                raise DataError("block map offsets must tile the vector contiguously")
            offset += b.length
        self.dim = offset

    @classmethod
    def from_parts(cls, names, lengths):
        blocks, offset = [], 0
        for name, length in zip(names, lengths):
            blocks.append(Block(name, offset, int(length)))
            offset += int(length)
        return cls(blocks)

    def names(self):
        return [b.name for b in self.blocks]

    def to_json(self):
        return [{"name": b.name, "offset": b.offset, "length": b.length} for b in self.blocks]

    @classmethod
    def from_json(cls, doc):
        return cls(Block(d["name"], d["offset"], d["length"]) for d in doc)

    def __eq__(self, other):
        return isinstance(other, BlockMap) and self.blocks == other.blocks

    def __len__(self):
        return len(self.blocks)


def rows_to_csr(vectors, dim):
    """Stack FeatureVectors of dimension dim into one CSR matrix.

    Rows keep the vectors' order; indices are sorted within each row and no
    explicit zeros are stored.
    """
    vectors = list(vectors)
    for v in vectors:
        if v.dim != dim:
            raise DataError("vectors disagree on dimension")
    cols = [v.indices if v.is_sparse else np.nonzero(v._dense)[0] for v in vectors]
    vals = [v.values if v.is_sparse else v._dense[c] for v, c in zip(vectors, cols)]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([c.shape[0] for c in cols], out=indptr[1:])
    indices = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    data = np.concatenate(vals) if vals else np.empty(0, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(vectors), dim))


# A training matrix is dense when at least this share of its cells is nonzero.
DENSE_OCCUPANCY = 0.25


def dense_if_full(X):
    """Training matrix from a CSR feature matrix.

    Returns a dense ndarray when nnz >= DENSE_OCCUPANCY * rows * dim, the
    CSR matrix itself otherwise; models accept both.
    """
    n, dim = X.shape
    if dim == 0:
        return np.zeros((n, 0), dtype=np.float64)
    if X.nnz >= DENSE_OCCUPANCY * n * dim:
        return X.toarray()
    return X


def stack_vectors(vectors):
    """Stack FeatureVectors of equal dimension into a 2-d training matrix.

    Dense or CSR by the rule of ``dense_if_full``.
    """
    vectors = list(vectors)
    if not vectors:
        raise DataError("cannot stack zero vectors")
    return dense_if_full(rows_to_csr(vectors, vectors[0].dim))
