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
from ..graph.types import Direction, EDGE_ID_DTYPE
from ..storage.csr import NestedCSR, range_positions
from ..storage.memory import MemoryBreakdown
from ..storage.offset_lists import OffsetLists
from ..storage.sort_keys import SortKey, sort_values_matrix
from .config import IndexConfig
from .primary import AdjacencyIndex
from .views import OneHopView


class VertexPartitionedIndex:
    """One direction of a secondary vertex-partitioned A+ index.

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
        self.graph = graph
        self.view = view
        self.direction = direction
        self.config = config
        self.primary = primary
        self.name = name or f"{view.name}-{direction.value}"

        started = time.perf_counter()
        selected = self._select_edges()
        if direction is Direction.FORWARD:
            bound_ids = graph.edge_src[selected]
            nbr_ids = graph.edge_dst[selected]
        else:
            bound_ids = graph.edge_dst[selected]
            nbr_ids = graph.edge_src[selected]

        level_codes = [
            key.effective_codes(graph, selected, nbr_ids)
            for key in config.partition_keys
        ]
        level_domains = [
            key.effective_domain_size(graph) for key in config.partition_keys
        ]
        sort_values = sort_values_matrix(config.sort_keys, graph, selected, nbr_ids)

        self.csr = NestedCSR(
            num_bound=graph.num_vertices,
            bound_ids=bound_ids,
            level_codes=level_codes,
            level_domains=level_domains,
            sort_values=sort_values,
        )
        order = self.csr.order
        sorted_edges = selected[order]
        sorted_bounds = np.asarray(bound_ids)[order]

        positions = primary.positions_of_edges(sorted_edges)
        list_starts = primary.csr.bound_starts(sorted_bounds)
        offsets = positions - list_starts
        self.offset_lists = OffsetLists(offsets, sorted_bounds)

        # Partition-level sharing (Section III-B3): possible only when the
        # view has no predicates and the partitioning structure matches the
        # primary index's, in which case both indexes have identical CSR
        # offsets and we need not store new partitioning levels.
        self.shares_partition_levels = bool(
            view.is_global and config.same_partitioning_as(primary.config)
        )
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
        offsets: np.ndarray,
        bound_ids: np.ndarray,
        name: Optional[str] = None,
    ) -> "VertexPartitionedIndex":
        """Build an index from pre-merged state, skipping view scan and sort.

        ``offsets``/``bound_ids`` must already be in index position order
        (surviving entries spliced with the sorted delta) with offsets
        recomputed against ``primary``, and ``csr`` built over the matching
        group IDs.  Used by incremental maintenance merges.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.view = view
        self.direction = direction
        self.config = config
        self.primary = primary
        self.name = name or f"{view.name}-{direction.value}"
        self.csr = csr
        self.offset_lists = OffsetLists(offsets, bound_ids)
        self.shares_partition_levels = bool(
            view.is_global and config.same_partitioning_as(primary.config)
        )
        self.creation_seconds = 0.0
        return self

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _select_edges(self) -> np.ndarray:
        """Edge IDs that belong to the 1-hop view."""
        graph = self.graph
        all_edges = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)
        mask = self.view.membership_mask(
            graph, graph.edge_labels, all_edges, graph.edge_src, graph.edge_dst
        )
        return all_edges[mask]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_codes(self, key_values: Sequence) -> list:
        codes = []
        for key, value in zip(self.config.partition_keys, key_values):
            codes.append(key.code_for_value(self.graph, value))
        return codes

    def list_range(self, vertex_id: int, key_values: Sequence = ()) -> Tuple[int, int]:
        return self.csr.group_range(vertex_id, self.key_codes(key_values))

    def list(
        self, vertex_id: int, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ids, nbr_ids)`` of one list, resolved via the primary.

        Reading goes through one level of indirection (the offsets), which is
        the access cost the paper trades for the smaller footprint; the
        indirection targets one primary ID list, which is small for real
        graphs and therefore cache-friendly.
        """
        start, end = self.list_range(vertex_id, key_values)
        primary_start = self.primary.vertex_list_start(vertex_id)
        return self.offset_lists.resolve(
            start,
            end,
            primary_start,
            self.primary.id_lists.edge_ids,
            self.primary.id_lists.nbr_ids,
        )

    def list_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`: resolve many lists through the primary at once.

        Returns ``(edge_ids, nbr_ids, counts)``, the concatenation of the
        per-vertex lists plus their lengths.  The offset indirection is
        applied to the whole batch with one gather and one vectorized add.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        positions, counts = self.csr.gather(vertex_ids, self.key_codes(key_values))
        primary_starts = self.primary.csr.bound_starts(vertex_ids)
        edge_ids, nbr_ids = self.offset_lists.resolve_many(
            positions,
            primary_starts,
            counts,
            self.primary.id_lists.edge_ids,
            self.primary.id_lists.nbr_ids,
        )
        return edge_ids, nbr_ids, counts

    def _search(
        self, vertex_ids: np.ndarray, key_values: Sequence, sorted_filter
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, primary_starts)``: the run of every addressed list that
        ``sorted_filter`` admits, bisected through the offsets of the probed
        positions only, and each vertex's primary list start."""
        starts, ends = self.csr.prefix_ranges(vertex_ids, self.key_codes(key_values))
        primary_starts = self.primary.csr.bound_starts(vertex_ids)
        ids = self.primary.id_lists
        lo, hi = sorted_filter.search(
            self.graph,
            starts,
            ends,
            lambda rows, positions: self.offset_lists.resolve_at(
                positions, primary_starts[rows], ids.edge_ids, ids.nbr_ids
            ),
        )
        return lo, hi, primary_starts

    def search_many(
        self, vertex_ids: np.ndarray, key_values: Sequence, sorted_filter
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`list_many` cut to what ``sorted_filter`` admits: offsets
        are resolved for the searched runs only."""
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        lo, hi, primary_starts = self._search(vertex_ids, key_values, sorted_filter)
        counts = hi - lo
        edge_ids, nbr_ids = self.offset_lists.resolve_many(
            range_positions(lo, counts, int(counts.sum())),
            primary_starts,
            counts,
            self.primary.id_lists.edge_ids,
            self.primary.id_lists.nbr_ids,
        )
        return edge_ids, nbr_ids, counts

    def count_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = (), sorted_filter=None
    ) -> np.ndarray:
        """Lengths of the lists :meth:`list_many` (or, given a
        ``sorted_filter``, :meth:`search_many`) would return.

        Read off this index's own CSR offsets; the offset lists (and the
        primary lists they point into) are touched only at the positions a
        filter's bisection probes.
        """
        if sorted_filter is not None:
            starts, ends, _ = self._search(vertex_ids, key_values, sorted_filter)
        else:
            starts, ends = self.csr.prefix_ranges(
                vertex_ids, self.key_codes(key_values)
            )
        return ends - starts

    def segments_sorted_by(self, key: SortKey, key_values: Sequence = ()) -> bool:
        """True when every list returned under this key-value prefix is
        internally sorted on ``key`` (batched index contract; lets the
        segment intersection kernel skip re-sorting ``list_many`` output).
        """
        return self.config.granular_segments_sorted_by(key, key_values)

    def degree(self, vertex_id: int, key_values: Sequence = ()) -> int:
        start, end = self.list_range(vertex_id, key_values)
        return end - start

    @property
    def num_indexed_edges(self) -> int:
        return len(self.offset_lists)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> MemoryBreakdown:
        level_bytes = 0 if self.shares_partition_levels else self.csr.nbytes_levels()
        return MemoryBreakdown(
            name=self.name,
            offset_list_bytes=self.offset_lists.nbytes(),
            partition_level_bytes=level_bytes,
        )

    def nbytes(self) -> int:
        return self.memory_breakdown().total

    def describe(self) -> str:
        sharing = "shared levels" if self.shares_partition_levels else "own levels"
        return (
            f"VertexPartitionedIndex({self.name}, {self.direction.value}, "
            f"{self.config.describe()}, {sharing}, "
            f"{self.num_indexed_edges:,} edges)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
