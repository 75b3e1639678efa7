"""Feature-matrix bookkeeping: block maps and stacking rows back into a matrix.

Feature stages emit whole columns as one CSR matrix, and models take that
matrix as it is. A single row of it, as ``Column.value_at`` reads it back
and artifact probe blocks store it, is the plain dict
``{"dim": int, "indices": [int, ...], "values": [float, ...]}`` with sorted
indices and no explicit zeros; ``stack_vectors`` turns such rows back into
the CSR matrix. Assembled features keep a block map (name, offset, length)
so tree importances can be attributed back to the source columns.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse as sp

from .docspec import Doc, Int, ListOf, Str
from .errors import DataError


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

    def __eq__(self, other):
        return isinstance(other, BlockMap) and self.blocks == other.blocks

    def __len__(self):
        return len(self.blocks)


class BlockMapDoc(ListOf):
    """The spec of a block map's JSON form, to_json's list, which it reads as a BlockMap."""

    def read(self, value, path, error):
        return BlockMap(Block(**entry) for entry in super().read(value, path, error))


BLOCK_MAP = BlockMapDoc(Doc({"name": Str, "offset": Int(), "length": Int()}))


def stack_vectors(rows):
    """One CSR matrix from feature rows of equal dimension.

    A row is ``{"dim": int, "indices": [int, ...], "values": [float, ...]}``,
    as ``Column.value_at`` returns it.
    """
    rows = list(rows)
    if not rows:
        raise DataError("cannot stack zero rows")
    dim = rows[0]["dim"]
    if any(row["dim"] != dim for row in rows):
        raise DataError("rows disagree on dimension")
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row["indices"]) for row in rows], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(row["indices"] for row in rows),
                          dtype=np.int64, count=nnz)
    data = np.fromiter(chain.from_iterable(row["values"] for row in rows),
                       dtype=np.float64, count=nnz)
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), dim))
