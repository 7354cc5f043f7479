"""Secondary edge-partitioned A+ indexes (2-hop views).

An edge-partitioned index extends the notion of adjacency from vertices to
edges: for every *bound* edge ``eb`` it stores the adjacent edges ``eadj``
(one of the four 2-path shapes of Section III-B2) that satisfy the view's
predicate, partitioned by ``eb``'s edge ID and then by the index's nested
partitioning levels, sorted by its sort keys.

Every list bound to ``eb = (vs, vd)`` is a subset of the primary ID list of
the vertex shared between ``eb`` and its adjacent edges, so entries are stored
as offsets into that primary list, exactly like vertex-partitioned indexes
(Section III-B3).  Unlike vertex-partitioned indexes, an edge may appear in
many lists (once per bound edge whose predicate it satisfies), which is why
2-hop views must carry predicates relating both edges.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction, EDGE_ID_DTYPE, EdgeAdjacencyType
from ..storage.csr import NestedCSR
from ..storage.memory import MemoryBreakdown
from ..storage.offset_lists import OffsetLists
from ..storage.sort_keys import SortKey, sort_values_matrix
from .config import IndexConfig
from .primary import AdjacencyIndex, PrimaryIndex
from .views import TwoHopView

#: Number of bound edges processed per vectorized chunk during construction.
_BUILD_CHUNK = 8192


class EdgePartitionedIndex:
    """A secondary edge-partitioned A+ index over a 2-hop view.

    Args:
        graph: the property graph.
        view: the 2-hop view; its adjacency type fixes which endpoint of the
            bound edge is shared and the direction of the adjacent edges.
        config: nested partitioning and sorting configuration applied to the
            adjacent edges.
        primary: the system's primary index pair; the adjacency lists of the
            shared vertices are read from it during construction and the
            offset lists point into it.
        name: optional index name.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        view: TwoHopView,
        config: IndexConfig,
        primary: PrimaryIndex,
        name: Optional[str] = None,
    ) -> None:
        config.validate(graph)
        self.graph = graph
        self.view = view
        self.config = config
        self.adjacency = view.adjacency
        self.name = name or view.name
        self.adjacent_primary: AdjacencyIndex = primary.for_direction(
            view.adjacency_direction
        )

        started = time.perf_counter()
        bound_ids, offsets, eadj_ids, vnbr_ids = self._build_entries()

        level_codes = [
            key.effective_codes(graph, eadj_ids, vnbr_ids)
            for key in config.partition_keys
        ]
        level_domains = [
            key.effective_domain_size(graph) for key in config.partition_keys
        ]
        sort_values = sort_values_matrix(config.sort_keys, graph, eadj_ids, vnbr_ids)

        self.csr = NestedCSR(
            num_bound=graph.num_edges,
            bound_ids=bound_ids,
            level_codes=level_codes,
            level_domains=level_domains,
            sort_values=sort_values,
        )
        order = self.csr.order
        self.offset_lists = OffsetLists(offsets[order], bound_ids[order])
        self.creation_seconds = time.perf_counter() - started

    @classmethod
    def from_sorted(
        cls,
        graph: PropertyGraph,
        view: TwoHopView,
        config: IndexConfig,
        primary: PrimaryIndex,
        csr: NestedCSR,
        offsets: np.ndarray,
        bound_ids: np.ndarray,
        name: Optional[str] = None,
    ) -> "EdgePartitionedIndex":
        """Build an index from pre-merged state, skipping the 2-hop join.

        ``offsets``/``bound_ids`` must already be in index position order
        (surviving pairs spliced with the sorted delta pairs) with offsets
        recomputed against the new primary index, and ``csr`` built over the
        matching group IDs.  Used by incremental maintenance merges.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.view = view
        self.config = config
        self.adjacency = view.adjacency
        self.name = name or view.name
        self.adjacent_primary = primary.for_direction(view.adjacency_direction)
        self.csr = csr
        self.offset_lists = OffsetLists(offsets, bound_ids)
        self.creation_seconds = 0.0
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _shared_vertices(self, bound_edges: np.ndarray) -> np.ndarray:
        """The vertex shared between each bound edge and its adjacent edges."""
        if self.adjacency.bound_endpoint_is_destination:
            return self.graph.edge_dst[bound_edges]
        return self.graph.edge_src[bound_edges]

    def _build_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Enumerate all qualifying (bound edge, adjacent edge) pairs.

        The enumeration is equivalent to running the 2-hop view as a join of
        the edge table with itself on the shared vertex; it is processed in
        chunks of bound edges to bound peak memory.
        """
        graph = self.graph
        adj = self.adjacent_primary
        all_edges = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)

        chunks_bound = []
        chunks_offsets = []
        chunks_eadj = []
        chunks_vnbr = []

        for chunk_start in range(0, graph.num_edges, _BUILD_CHUNK):
            bound_chunk = all_edges[chunk_start : chunk_start + _BUILD_CHUNK]
            shared = self._shared_vertices(bound_chunk)
            starts = adj.csr.bound_starts(shared)
            ends = adj.csr.bound_ends(shared)
            lengths = (ends - starts).astype(np.int64)
            total = int(lengths.sum())
            if total == 0:
                continue

            repeated_bound = np.repeat(bound_chunk, lengths)
            repeated_starts = np.repeat(starts, lengths)
            # Positions of the adjacent edges inside the primary ID lists.
            cumulative = np.concatenate([[0], np.cumsum(lengths)[:-1]])
            within = np.arange(total, dtype=np.int64) - np.repeat(cumulative, lengths)
            positions = repeated_starts + within

            eadj_ids = adj.id_lists.edge_ids[positions]
            vnbr_ids = adj.id_lists.nbr_ids[positions].astype(np.int64)

            arrays = {
                "eb": ("edge", repeated_bound),
                "eadj": ("edge", eadj_ids),
                "vnbr": ("vertex", vnbr_ids),
                "vs": ("vertex", graph.edge_src[repeated_bound]),
                "vd": ("vertex", graph.edge_dst[repeated_bound]),
            }
            mask = self.view.predicate.evaluate_bulk(graph, {}, arrays)
            # A bound edge never lists itself (a 2-path uses two distinct edges).
            mask &= eadj_ids != repeated_bound
            if not mask.any():
                continue

            chunks_bound.append(repeated_bound[mask])
            chunks_offsets.append(within[mask])
            chunks_eadj.append(eadj_ids[mask])
            chunks_vnbr.append(vnbr_ids[mask])

        if not chunks_bound:
            empty_edge = np.empty(0, dtype=EDGE_ID_DTYPE)
            empty = np.empty(0, dtype=np.int64)
            return empty_edge, empty, empty_edge.copy(), empty

        return (
            np.concatenate(chunks_bound),
            np.concatenate(chunks_offsets),
            np.concatenate(chunks_eadj),
            np.concatenate(chunks_vnbr),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_codes(self, key_values: Sequence) -> list:
        codes = []
        for key, value in zip(self.config.partition_keys, key_values):
            codes.append(key.code_for_value(self.graph, value))
        return codes

    def shared_vertex(self, bound_edge_id: int) -> int:
        """The vertex whose primary list the bound edge's offsets point into."""
        if self.adjacency.bound_endpoint_is_destination:
            return int(self.graph.edge_dst[bound_edge_id])
        return int(self.graph.edge_src[bound_edge_id])

    def list_range(self, bound_edge_id: int, key_values: Sequence = ()) -> Tuple[int, int]:
        return self.csr.group_range(bound_edge_id, self.key_codes(key_values))

    def list(
        self, bound_edge_id: int, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ids, nbr_ids)`` of the adjacency list of one edge."""
        start, end = self.list_range(bound_edge_id, key_values)
        primary_start = self.adjacent_primary.vertex_list_start(
            self.shared_vertex(bound_edge_id)
        )
        return self.offset_lists.resolve(
            start,
            end,
            primary_start,
            self.adjacent_primary.id_lists.edge_ids,
            self.adjacent_primary.id_lists.nbr_ids,
        )

    def list_many(
        self, bound_edge_ids: np.ndarray, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`: adjacency lists of many bound edges at once.

        Returns ``(edge_ids, nbr_ids, counts)``, the concatenation of the
        per-bound-edge lists plus their lengths.  Shared vertices and primary
        list starts are computed for the whole batch with array indexing.
        """
        bound_edge_ids = np.asarray(bound_edge_ids, dtype=np.int64)
        positions, counts = self.csr.gather(
            bound_edge_ids, self.key_codes(key_values)
        )
        shared = self._shared_vertices(bound_edge_ids)
        primary_starts = self.adjacent_primary.csr.bound_starts(shared)
        edge_ids, nbr_ids = self.offset_lists.resolve_many(
            positions,
            primary_starts,
            counts,
            self.adjacent_primary.id_lists.edge_ids,
            self.adjacent_primary.id_lists.nbr_ids,
        )
        return edge_ids, nbr_ids, counts

    def count_many(
        self, bound_edge_ids: np.ndarray, key_values: Sequence = ()
    ) -> np.ndarray:
        """Lengths of the lists :meth:`list_many` would return.

        Read off this index's own CSR offsets; neither the shared vertices
        nor the primary lists are resolved.
        """
        starts, ends = self.csr.prefix_ranges(
            bound_edge_ids, self.key_codes(key_values)
        )
        return ends - starts

    def segments_sorted_by(self, key: SortKey, key_values: Sequence = ()) -> bool:
        """True when every list returned under this key-value prefix is
        internally sorted on ``key`` (batched index contract; lets the
        segment intersection kernel skip re-sorting ``list_many`` output).
        """
        return self.config.granular_segments_sorted_by(key, key_values)

    def degree(self, bound_edge_id: int, key_values: Sequence = ()) -> int:
        start, end = self.list_range(bound_edge_id, key_values)
        return end - start

    @property
    def num_indexed_edges(self) -> int:
        """Total number of (bound edge, adjacent edge) entries stored."""
        return len(self.offset_lists)

    @property
    def average_list_size(self) -> float:
        if self.graph.num_edges == 0:
            return 0.0
        return self.num_indexed_edges / self.graph.num_edges

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> MemoryBreakdown:
        return MemoryBreakdown(
            name=self.name,
            offset_list_bytes=self.offset_lists.nbytes(),
            partition_level_bytes=self.csr.nbytes_levels(),
        )

    def nbytes(self) -> int:
        return self.memory_breakdown().total

    def describe(self) -> str:
        return (
            f"EdgePartitionedIndex({self.name}, {self.adjacency.value}, "
            f"{self.config.describe()}, {self.num_indexed_edges:,} entries)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
