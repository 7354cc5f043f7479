"""Primary A+ indexes.

The primary A+ indexes are the default, required indexes of the system: one
forward and one backward index containing *every* edge of the graph, stored in
a nested CSR partitioned first by source (forward) or destination (backward)
vertex ID, then by the user-tunable nested partitioning criteria, with the
most granular ID lists sorted by the user-tunable sort keys (Section III-A).

Unlike existing GDBMSs, the partitioning and sorting criteria can be
*reconfigured* at runtime (``RECONFIGURE PRIMARY INDEXES ...``), which rebuilds
the two nested CSRs without touching the underlying graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexLookupError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction, EDGE_ID_DTYPE
from ..storage.csr import NestedCSR, range_positions
from ..storage.id_lists import IdLists
from ..storage.memory import MemoryBreakdown
from ..storage.sort_keys import SortKey, sort_values_matrix
from .config import IndexConfig


class AdjacencyIndex:
    """One direction (forward or backward) of the primary A+ index.

    Attributes:
        graph: the indexed property graph.
        direction: FORWARD (lists hold out-edges) or BACKWARD (in-edges).
        config: nested partitioning and sorting configuration.
        csr: the nested CSR skeleton.
        id_lists: the flat, sorted ID lists (edge IDs + neighbour IDs).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        direction: Direction,
        config: IndexConfig,
        name: Optional[str] = None,
    ) -> None:
        config.validate(graph)
        self.graph = graph
        self.direction = direction
        self.config = config
        self.name = name or f"primary-{direction.value}"

        if direction is Direction.FORWARD:
            bound_ids = graph.edge_src
            nbr_ids = graph.edge_dst
        else:
            bound_ids = graph.edge_dst
            nbr_ids = graph.edge_src
        edge_ids = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)

        level_codes = [
            key.effective_codes(graph, edge_ids, nbr_ids)
            for key in config.partition_keys
        ]
        level_domains = [
            key.effective_domain_size(graph) for key in config.partition_keys
        ]
        sort_values = sort_values_matrix(config.sort_keys, graph, edge_ids, nbr_ids)

        self.csr = NestedCSR(
            num_bound=graph.num_vertices,
            bound_ids=bound_ids,
            level_codes=level_codes,
            level_domains=level_domains,
            sort_values=sort_values,
        )
        order = self.csr.order
        self.id_lists = IdLists(edge_ids[order], np.asarray(nbr_ids)[order])

        # Position of every edge inside this index (used by offset lists).
        self._position_of_edge = np.empty(graph.num_edges, dtype=np.int64)
        self._position_of_edge[self.id_lists.edge_ids] = np.arange(
            graph.num_edges, dtype=np.int64
        )

    @classmethod
    def from_sorted(
        cls,
        graph: PropertyGraph,
        direction: Direction,
        config: IndexConfig,
        csr: NestedCSR,
        edge_ids: np.ndarray,
        nbr_ids: np.ndarray,
        name: Optional[str] = None,
    ) -> "AdjacencyIndex":
        """Build an index from pre-merged state, skipping the global sort.

        The incremental maintenance path computes the merged entry order and
        offsets outside the constructor (surviving entries spliced with the
        sorted delta); ``edge_ids``/``nbr_ids`` must already be in index
        position order and ``csr`` built over the matching group IDs.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.direction = direction
        self.config = config
        self.name = name or f"primary-{direction.value}"
        self.csr = csr
        self.id_lists = IdLists(edge_ids, nbr_ids)
        self._position_of_edge = np.empty(graph.num_edges, dtype=np.int64)
        self._position_of_edge[self.id_lists.edge_ids] = np.arange(
            graph.num_edges, dtype=np.int64
        )
        return self

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_codes(self, key_values: Sequence) -> List[int]:
        """Map query-level partition key values to effective codes.

        ``key_values`` is a prefix of values aligned with the configured
        partition keys; each value may be a label/category name, an integer
        code, or ``None`` (the null partition).
        """
        if len(key_values) > len(self.config.partition_keys):
            raise IndexLookupError(
                f"{len(key_values)} partition values supplied but index has "
                f"{len(self.config.partition_keys)} levels"
            )
        codes = []
        for key, value in zip(self.config.partition_keys, key_values):
            codes.append(key.code_for_value(self.graph, value))
        return codes

    def list_range(self, vertex_id: int, key_values: Sequence = ()) -> Tuple[int, int]:
        """Return the ``[start, end)`` position range of one adjacency list."""
        return self.csr.group_range(vertex_id, self.key_codes(key_values))

    def list(self, vertex_id: int, key_values: Sequence = ()) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_ids, nbr_ids)`` of one adjacency (sub-)list."""
        start, end = self.list_range(vertex_id, key_values)
        return self.id_lists.slice(start, end)

    def list_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = ()
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`: fetch many adjacency lists in one gather.

        Returns ``(edge_ids, nbr_ids, counts)`` where the ID arrays are the
        concatenation of the per-vertex lists (in ``vertex_ids`` order, each
        list in index sort order) and ``counts`` holds each list's length.
        Equivalent to looping :meth:`list`, without the per-list interpreter
        round trip.
        """
        positions, counts = self.csr.gather(vertex_ids, self.key_codes(key_values))
        return (
            self.id_lists.edge_ids[positions],
            self.id_lists.nbr_ids[positions],
            counts,
        )

    def search_ranges(
        self, vertex_ids: np.ndarray, key_values: Sequence, sorted_filter
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``[lo, hi)`` run of every addressed list that a
        :class:`~repro.query.operators.SortedRangeFilter` admits.

        Each list is bisected at the filter's constant, reading the sort key
        at the probed positions only; the lists must be sorted on the
        filter's key (a most granular group).
        """
        starts, ends = self.csr.prefix_ranges(vertex_ids, self.key_codes(key_values))
        ids = self.id_lists
        return sorted_filter.search(
            self.graph,
            starts,
            ends,
            lambda rows, positions: (ids.edge_ids[positions], ids.nbr_ids[positions]),
        )

    def search_many(
        self, vertex_ids: np.ndarray, key_values: Sequence, sorted_filter
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`list_many` cut to what ``sorted_filter`` admits: only the
        searched runs (:meth:`search_ranges`) are gathered."""
        lo, hi = self.search_ranges(vertex_ids, key_values, sorted_filter)
        counts = hi - lo
        positions = range_positions(lo, counts, int(counts.sum()))
        return (
            self.id_lists.edge_ids[positions],
            self.id_lists.nbr_ids[positions],
            counts,
        )

    def count_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = (), sorted_filter=None
    ) -> np.ndarray:
        """Lengths of the lists :meth:`list_many` (or, given a
        ``sorted_filter``, :meth:`search_many`) would return, offsets only.

        One CSR range lookup per vertex, plus the bisection of a filter: no
        gather index and no ID arrays, which is all an aggregate sink needs
        of an extension with no residual.
        """
        if sorted_filter is not None:
            starts, ends = self.search_ranges(vertex_ids, key_values, sorted_filter)
        else:
            starts, ends = self.csr.prefix_ranges(
                vertex_ids, self.key_codes(key_values)
            )
        return ends - starts

    def segments_sorted_by(self, key: "SortKey", key_values: Sequence = ()) -> bool:
        """True when every list returned under this key-value prefix is
        internally sorted on ``key`` (batched index contract; lets the
        segment intersection kernel skip re-sorting ``list_many`` output).
        """
        return self.config.granular_segments_sorted_by(key, key_values)

    def vertex_list_start(self, vertex_id: int) -> int:
        """Start position of the vertex's full (level-0) ID list."""
        return self.csr.bound_range(vertex_id)[0]

    def degree(self, vertex_id: int, key_values: Sequence = ()) -> int:
        start, end = self.list_range(vertex_id, key_values)
        return end - start

    def vertex_degrees(self, start: int, stop: int) -> np.ndarray:
        """Full adjacency-list lengths of vertices ``[start, stop)``.

        One vectorized diff of the CSR bound offsets — the work estimate the
        degree-weighted morsel splitter prefix-sums to cut the scan domain
        into equal-adjacency-work ranges
        (:func:`repro.query.morsels.degree_weighted_ranges`).
        """
        vertex_ids = np.arange(start, stop, dtype=np.int64)
        return (
            self.csr.bound_ends(vertex_ids) - self.csr.bound_starts(vertex_ids)
        ).astype(np.int64, copy=False)

    def positions_of_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Positions of the given edges inside this index's ID lists."""
        return self._position_of_edge[np.asarray(edge_ids, dtype=np.int64)]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> MemoryBreakdown:
        return MemoryBreakdown(
            name=self.name,
            id_list_bytes=self.id_lists.nbytes(),
            partition_level_bytes=self.csr.nbytes_levels(),
        )

    def nbytes(self) -> int:
        return self.memory_breakdown().total

    def describe(self) -> str:
        return f"AdjacencyIndex({self.name}, {self.direction.value}, {self.config.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass
class ReconfigurationResult:
    """Outcome of a primary index reconfiguration."""

    old_config: IndexConfig
    new_config: IndexConfig
    seconds: float


class PrimaryIndex:
    """The pair of forward and backward primary A+ indexes.

    By default both directions use :meth:`IndexConfig.default` (partition by
    edge label, sort by neighbour ID), which is GraphflowDB's configuration
    ``D``.  :meth:`reconfigure` rebuilds both directions under a new
    configuration and reports the rebuild time (the ``IR`` column of
    Table II).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        config: Optional[IndexConfig] = None,
        forward_config: Optional[IndexConfig] = None,
        backward_config: Optional[IndexConfig] = None,
    ) -> None:
        self.graph = graph
        base = config or IndexConfig.default()
        self.forward = AdjacencyIndex(
            graph, Direction.FORWARD, forward_config or base, name="primary-fw"
        )
        self.backward = AdjacencyIndex(
            graph, Direction.BACKWARD, backward_config or base, name="primary-bw"
        )

    @classmethod
    def from_directions(
        cls,
        graph: PropertyGraph,
        forward: AdjacencyIndex,
        backward: AdjacencyIndex,
    ) -> "PrimaryIndex":
        """Wrap two already-built directional indexes (incremental merges)."""
        self = cls.__new__(cls)
        self.graph = graph
        self.forward = forward
        self.backward = backward
        return self

    def for_direction(self, direction: Direction) -> AdjacencyIndex:
        return self.forward if direction is Direction.FORWARD else self.backward

    @property
    def config(self) -> IndexConfig:
        """Configuration of the forward index (both share it by default)."""
        return self.forward.config

    def reconfigure(
        self,
        config: IndexConfig,
        forward_config: Optional[IndexConfig] = None,
        backward_config: Optional[IndexConfig] = None,
    ) -> ReconfigurationResult:
        """Rebuild both primary indexes under a new configuration."""
        old_config = self.config
        started = time.perf_counter()
        self.forward = AdjacencyIndex(
            self.graph,
            Direction.FORWARD,
            forward_config or config,
            name="primary-fw",
        )
        self.backward = AdjacencyIndex(
            self.graph,
            Direction.BACKWARD,
            backward_config or config,
            name="primary-bw",
        )
        elapsed = time.perf_counter() - started
        return ReconfigurationResult(old_config, config, elapsed)

    def memory_breakdowns(self) -> List[MemoryBreakdown]:
        return [self.forward.memory_breakdown(), self.backward.memory_breakdown()]

    def nbytes(self) -> int:
        return sum(b.total for b in self.memory_breakdowns())

    def describe(self) -> str:
        return (
            f"PrimaryIndex(fw: {self.forward.config.describe()}; "
            f"bw: {self.backward.config.describe()})"
        )
