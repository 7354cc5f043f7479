"""Bitmap-based secondary index: the alternative design of Section III-B3.

Instead of storing one offset per indexed edge, a bitmap marks, for every edge
in the primary A+ index's lists, whether it belongs to the secondary index.
The paper discusses this as a reasonable design point *only* when the
secondary index keeps the primary's sort order, and notes the trade-off this
module makes measurable:

* storage is one bit per *primary* edge, independent of the view's
  selectivity — more compact than offset lists when the view is unselective,
  less compact when it is selective;
* reading a list requires as many bit tests as there are edges in the primary
  list, irrespective of how many edges the view actually contains, so access
  cost does not shrink with selectivity.

This class exists for the ablation benchmark comparing bitmaps against offset
lists; the system's secondary indexes proper use offset lists.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction
from ..storage.csr import segment_mask_counts
from ..storage.memory import MemoryBreakdown
from .primary import AdjacencyIndex
from .views import OneHopView


class BitmapSecondaryIndex:
    """A 1-hop view stored as a bitmap over the primary index's positions.

    The index necessarily shares the primary's partitioning levels and sort
    order: it cannot re-sort edges, which is exactly the limitation the paper
    points out for this design.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        view: OneHopView,
        direction: Direction,
        primary: AdjacencyIndex,
        name: Optional[str] = None,
    ) -> None:
        if primary.direction is not direction:
            raise IndexConfigError(
                "bitmap index direction must match its primary index"
            )
        self.graph = graph
        self.view = view
        self.direction = direction
        self.primary = primary
        self.name = name or f"{view.name}-bitmap-{direction.value}"

        started = time.perf_counter()
        selected = view.select_edges(graph)
        positions = primary.positions_of_edges(selected)
        self._bits = np.zeros(graph.num_edges, dtype=bool)
        self._bits[positions] = True
        self._num_selected = len(selected)
        self.creation_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def list(
        self, vertex_id: int, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ids, nbr_ids)`` of the view's edges for one vertex.

        The partition key values address sub-lists of the *primary* index,
        since the bitmap shares its structure.
        """
        edge_ids, nbr_ids, _ = self.list_many(np.array([vertex_id]), key_values)
        return edge_ids, nbr_ids

    def list_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = (), sorted_filter=None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`: bit-test many primary lists at once.

        Returns ``(edge_ids, nbr_ids, counts)``, the concatenation of the
        per-vertex view lists plus their lengths, matching the batched
        contract of the other index classes.  Under a ``sorted_filter`` the
        primary run is bisected (the bitmap keeps the primary's order) and
        only the searched slice is bit-tested.
        """
        positions, counts, _ = self.primary.positions_many(
            vertex_ids, key_values, sorted_filter
        )
        bits = self._bits[positions]
        selected = positions[bits]
        return (
            self.primary.id_lists.edge_ids[selected],
            self.primary.id_lists.nbr_ids[selected],
            segment_mask_counts(counts, bits),
        )

    def count_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = (), sorted_filter=None
    ) -> np.ndarray:
        """Lengths of the lists :meth:`list_many` would return.

        A bitmap has no offsets of its own, so the count still costs the
        bit test of every primary entry in the (searched) run — only the
        ID gathers are saved.
        """
        positions, counts, _ = self.primary.positions_many(
            vertex_ids, key_values, sorted_filter
        )
        return segment_mask_counts(counts, self._bits[positions])

    def segments_sorted_by(self, key, key_values: Sequence = ()) -> bool:
        """True when every list returned under this key-value prefix is
        internally sorted on ``key``.

        A bitmap index necessarily inherits the primary's partitioning and
        sort order (it only masks entries out, which preserves sortedness),
        so the question is delegated to the primary index.
        """
        return self.primary.segments_sorted_by(key, key_values)

    def access_cost(self, vertex_id: int, key_values: Sequence = ()) -> int:
        """Number of bit tests needed to read one list.

        Equal to the primary list length regardless of selectivity; contrast
        with an offset list, which touches only the qualifying edges.
        """
        start, end = self.primary.list_range(vertex_id, key_values)
        return end - start

    @property
    def num_indexed_edges(self) -> int:
        return self._num_selected

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """One bit per primary edge, rounded up to whole bytes."""
        return (self.graph.num_edges + 7) // 8

    def memory_breakdown(self) -> MemoryBreakdown:
        return MemoryBreakdown(name=self.name, other_bytes=self.nbytes())

    def describe(self) -> str:
        return (
            f"BitmapSecondaryIndex({self.name}, {self.direction.value}, "
            f"{self.num_indexed_edges:,}/{self.graph.num_edges:,} edges set)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
