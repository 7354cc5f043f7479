"""Secondary vertex-partitioned A+ indexes (1-hop views).

A secondary vertex-partitioned index materializes a 1-hop view — an arbitrary
predicate-filtered subset of the edges — partitioned first by source or
destination vertex ID and then by the index's own nested partitioning levels,
with its innermost lists sorted by its own sort keys (Section III-B1).

Because every list of a vertex-partitioned index is a subset of the bound
vertex's ID list in the primary index, indexed edges are stored as *offsets*
into that primary list (Section III-B3).  When the view has no predicate and
the index's partitioning structure matches the primary's, the primary's
partitioning levels are shared and only the offset lists are stored.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction
from ..storage.csr import NestedCSR
from .config import IndexConfig
from .lists import SecondaryLists
from .primary import AdjacencyIndex
from .views import OneHopView


class VertexPartitionedIndex(SecondaryLists):
    """One direction of a secondary vertex-partitioned A+ index.

    A list bound to vertex ``v`` holds offsets into ``v``'s own primary list.

    Args:
        graph: the property graph.
        view: the 1-hop view this index materializes.
        direction: FORWARD (partition by edge source) or BACKWARD (by
            destination).
        config: nested partitioning and sorting configuration.
        primary: the primary :class:`AdjacencyIndex` of the same direction;
            offset lists point into it.
        name: optional index name (defaults to ``<view.name>-<direction>``).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        view: OneHopView,
        direction: Direction,
        config: IndexConfig,
        primary: AdjacencyIndex,
        name: Optional[str] = None,
    ) -> None:
        if primary.direction is not direction:
            raise IndexConfigError(
                "vertex-partitioned index direction must match its primary index"
            )
        config.validate(graph)
        started = time.perf_counter()
        selected = view.select_edges(graph)
        if direction is Direction.FORWARD:
            bound_ids, nbr_ids = graph.edge_src[selected], graph.edge_dst[selected]
        else:
            bound_ids, nbr_ids = graph.edge_dst[selected], graph.edge_src[selected]
        csr, order = self._build_csr(
            graph, config, graph.num_vertices, bound_ids, selected, nbr_ids
        )
        positions = primary.positions_of_edges(selected[order])
        self._install(graph, view, direction, config, primary, csr, positions, name)
        self.creation_seconds = time.perf_counter() - started

    @classmethod
    def from_sorted(
        cls,
        graph: PropertyGraph,
        view: OneHopView,
        direction: Direction,
        config: IndexConfig,
        primary: AdjacencyIndex,
        csr: NestedCSR,
        positions: np.ndarray,
        name: Optional[str] = None,
    ) -> "VertexPartitionedIndex":
        """Build an index from pre-merged state, skipping view scan and sort.

        ``positions`` are the entries' positions in ``primary``, already in
        index position order (surviving entries spliced with the sorted
        delta), and ``csr`` is built over the matching group IDs.  Used by
        incremental maintenance merges.
        """
        self = cls.__new__(cls)
        self._install(graph, view, direction, config, primary, csr, positions, name)
        self.creation_seconds = 0.0
        return self

    def _install(
        self, graph, view, direction, config, primary, csr, positions, name
    ) -> None:
        self.graph = graph
        self.view = view
        self.direction = direction
        self.config = config
        self.primary = primary
        self.name = name or f"{view.name}-{direction.value}"
        self._install_entries(csr, positions)
        # Partition-level sharing (Section III-B3): possible only when the
        # view has no predicates and the partitioning structure matches the
        # primary index's, in which case both indexes have identical CSR
        # offsets and we need not store new partitioning levels.
        self.shares_partition_levels = bool(
            view.is_global and config.same_partitioning_as(primary.config)
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def list_many(
        self,
        vertex_ids: np.ndarray,
        key_values: Sequence = (),
        sorted_filter=None,
        probe_ids=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`, resolved through the primary (see
        :meth:`AdjacencyLists._read`).

        Reading goes through one level of indirection (the offsets), which is
        the access cost the paper trades for the smaller footprint; the
        indirection targets one primary ID list, which is small for real
        graphs and therefore cache-friendly.
        """
        # Each index class keeps its own list_many: the benchmark tracer
        # wraps it per class to tell primary from secondary reads.
        return self._read(vertex_ids, key_values, sorted_filter, probe_ids)

    def shared_vertices(self, vertex_ids: np.ndarray) -> np.ndarray:
        """A vertex's offsets point into its own primary list."""
        return vertex_ids

    def describe(self) -> str:
        sharing = "shared levels" if self.shares_partition_levels else "own levels"
        return (
            f"VertexPartitionedIndex({self.name}, {self.direction.value}, "
            f"{self.config.describe()}, {sharing}, "
            f"{self.num_indexed_edges:,} edges)"
        )
