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

from ..graph.graph import PropertyGraph
from ..graph.types import Direction, EDGE_ID_DTYPE
from ..storage.csr import NestedCSR
from ..storage.id_lists import IdLists
from ..storage.memory import MemoryBreakdown
from .config import IndexConfig
from .lists import AdjacencyLists


class AdjacencyIndex(AdjacencyLists):
    """One direction (forward or backward) of the primary A+ index.

    A CSR position holds one ``(edge ID, neighbour ID)`` pair of
    :attr:`id_lists`, so a read gathers them directly.

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
        if direction is Direction.FORWARD:
            bound_ids, nbr_ids = graph.edge_src, graph.edge_dst
        else:
            bound_ids, nbr_ids = graph.edge_dst, graph.edge_src
        edge_ids = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)
        csr = self._build_csr(
            graph, config, graph.num_vertices, bound_ids, edge_ids, nbr_ids
        )
        order = csr.order
        nbr_ids = np.asarray(nbr_ids)[order]
        self._install(graph, direction, config, csr, edge_ids[order], nbr_ids, name)

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
        self._install(graph, direction, config, csr, edge_ids, nbr_ids, name)
        return self

    def _install(self, graph, direction, config, csr, edge_ids, nbr_ids, name) -> None:
        self.graph = graph
        self.direction = direction
        self.config = config
        self.name = name or f"primary-{direction.value}"
        self.csr = csr
        self.id_lists = IdLists(edge_ids, nbr_ids)
        # Position of every edge inside this index (used by offset lists).
        self._position_of_edge = np.empty(graph.num_edges, dtype=np.int64)
        self._position_of_edge[self.id_lists.edge_ids] = np.arange(
            graph.num_edges, dtype=np.int64
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def list_many(
        self, vertex_ids: np.ndarray, key_values: Sequence = (), sorted_filter=None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list` (see :meth:`AdjacencyLists._read`)."""
        # Each index class keeps its own list_many: the benchmark tracer
        # wraps it per class to tell primary from secondary reads.
        return self._read(vertex_ids, key_values, sorted_filter)

    def _list_starts(self, bound_ids: np.ndarray) -> None:
        return None

    def _resolve_many(
        self, positions: np.ndarray, counts=None, list_starts=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.id_lists.edge_ids[positions], self.id_lists.nbr_ids[positions]

    def _resolve_at(self, rows, positions, list_starts) -> Tuple[np.ndarray, np.ndarray]:
        return self._resolve_many(positions)

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

    def describe(self) -> str:
        return f"AdjacencyIndex({self.name}, {self.direction.value}, {self.config.describe()})"


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
