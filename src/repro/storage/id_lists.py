"""ID lists: the payload of primary A+ indexes.

The lowest level of a primary A+ index stores, for every indexed edge, the
globally identifiable pair ``(edge ID, neighbour vertex ID)``.  Neighbour IDs
are charged 4 bytes and edge IDs 8 bytes, following Section IV-B of the paper.
"""

from __future__ import annotations

import numpy as np

from ..graph.types import (
    EDGE_ID_BYTES,
    EDGE_ID_DTYPE,
    VERTEX_ID_BYTES,
    VERTEX_ID_DTYPE,
)


class IdLists:
    """Flat, sorted (edge ID, neighbour ID) arrays of a primary index.

    The arrays are stored in index position order, i.e. already permuted by
    the owning :class:`~repro.storage.csr.NestedCSR`'s sort order, so a CSR
    group range ``[start, end)`` directly slices both arrays.
    """

    def __init__(self, edge_ids: np.ndarray, nbr_ids: np.ndarray) -> None:
        if len(edge_ids) != len(nbr_ids):
            raise ValueError("edge_ids and nbr_ids must have equal length")
        self.edge_ids = np.asarray(edge_ids, dtype=EDGE_ID_DTYPE)
        self.nbr_ids = np.asarray(nbr_ids, dtype=VERTEX_ID_DTYPE)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def nbytes(self) -> int:
        """Bytes charged for the ID lists (8 B per edge ID + 4 B per nbr ID)."""
        return len(self.edge_ids) * EDGE_ID_BYTES + len(self.nbr_ids) * VERTEX_ID_BYTES
