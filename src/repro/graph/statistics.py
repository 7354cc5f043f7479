"""Catalog statistics over a property graph.

The DP optimizer's i-cost model (Section IV-A) estimates the sizes of the
adjacency lists a plan will access.  :class:`GraphStatistics` precomputes the
degree and label statistics of one graph; :class:`PlannerStatistics` is the
numbers-only copy of them (plus secondary-index entry counts) that the cost
model reads, frozen per plan epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from .graph import PropertyGraph
from .types import Direction


@dataclass
class DegreeSummary:
    """Summary statistics of a degree distribution."""

    mean: float
    maximum: int
    p50: float
    p90: float
    p99: float

    @classmethod
    def from_degrees(cls, degrees: np.ndarray) -> "DegreeSummary":
        if len(degrees) == 0:
            return cls(0.0, 0, 0.0, 0.0, 0.0)
        return cls(
            mean=float(degrees.mean()),
            maximum=int(degrees.max()),
            p50=float(np.percentile(degrees, 50)),
            p90=float(np.percentile(degrees, 90)),
            p99=float(np.percentile(degrees, 99)),
        )


def _label_counts(labels: np.ndarray) -> Dict[int, int]:
    values, counts = np.unique(labels, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}


class LabelStatistics:
    """Vertex and edge counts per label and the selectivities read off them.

    Numbers only: holding one pins no graph.
    """

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        edge_label_counts: Dict[int, int],
        vertex_label_counts: Dict[int, int],
    ) -> None:
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        self._edge_label_counts = edge_label_counts
        self._vertex_label_counts = vertex_label_counts

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # selectivities
    # ------------------------------------------------------------------
    def edge_label_selectivity(self, label_code: Optional[int]) -> float:
        """Fraction of edges carrying ``label_code`` (1.0 if None)."""
        if label_code is None:
            return 1.0
        if self._num_edges == 0:
            return 0.0
        return self._edge_label_counts.get(label_code, 0) / self._num_edges

    def vertex_label_selectivity(self, label_code: Optional[int]) -> float:
        """Fraction of vertices carrying ``label_code`` (1.0 if None)."""
        if label_code is None:
            return 1.0
        if self._num_vertices == 0:
            return 0.0
        return self._vertex_label_counts.get(label_code, 0) / self._num_vertices

    def vertices_with_label(self, label_code: Optional[int]) -> int:
        if label_code is None:
            return self._num_vertices
        return self._vertex_label_counts.get(label_code, 0)


class PlannerStatistics(LabelStatistics):
    """Everything the optimizer reads of a store's contents: the label
    counts, |V| and |E|, and each secondary index's entry count.

    A store freezes one at the first state of each plan epoch and keeps it
    through the flushes the epoch carries
    (:class:`~repro.index.index_store.StoreState`), so any two states of
    one epoch plan alike.
    """

    def __init__(self, statistics: LabelStatistics, index_entries: Dict[str, int]) -> None:
        super().__init__(
            statistics._num_vertices,
            statistics._num_edges,
            statistics._edge_label_counts,
            statistics._vertex_label_counts,
        )
        self._index_entries = index_entries

    def index_entries(self, name: str) -> int:
        """Entries the secondary index ``name`` held when the epoch began."""
        return self._index_entries[name]


class GraphStatistics(LabelStatistics):
    """Degree and label statistics of one graph.

    The label counts behind the selectivities are computed at construction
    (or carried from the previous generation by :meth:`updated`); the degree
    summaries are read only by :meth:`describe` and computed on first access.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        edge_label_counts: Optional[Dict[int, int]] = None,
        vertex_label_counts: Optional[Dict[int, int]] = None,
    ) -> None:
        self.graph = graph
        if edge_label_counts is None:
            edge_label_counts = _label_counts(graph.edge_labels)
        if vertex_label_counts is None:
            vertex_label_counts = _label_counts(graph.vertex_labels)
        super().__init__(
            graph.num_vertices, graph.num_edges, edge_label_counts, vertex_label_counts
        )
        self._avg_out_degree = graph.num_edges / max(graph.num_vertices, 1)
        self._avg_in_degree = self._avg_out_degree

    def updated(
        self,
        graph: PropertyGraph,
        inserted_labels: np.ndarray,
        deleted_labels: np.ndarray,
    ) -> "GraphStatistics":
        """Statistics of ``graph`` — this graph after an edge-only update —
        equal to ``GraphStatistics(graph)`` without re-counting it: the edge
        label counts move by the inserted minus the deleted labels and the
        vertex label counts are shared (updates never add vertices)."""
        size = graph.schema.num_edge_labels
        change = np.bincount(inserted_labels, minlength=size) - np.bincount(
            deleted_labels, minlength=size
        )
        counts = dict(self._edge_label_counts)
        for label in np.flatnonzero(change).tolist():
            counts[label] = counts.get(label, 0) + int(change[label])
            if not counts[label]:
                del counts[label]
        return GraphStatistics(graph, counts, self._vertex_label_counts)

    @cached_property
    def out_summary(self) -> DegreeSummary:
        return DegreeSummary.from_degrees(self.graph.out_degree())

    @cached_property
    def in_summary(self) -> DegreeSummary:
        return DegreeSummary.from_degrees(self.graph.in_degree())

    # ------------------------------------------------------------------
    # expected adjacency-list sizes
    # ------------------------------------------------------------------
    def average_degree(
        self,
        direction: Direction,
        edge_label_code: Optional[int] = None,
        extra_selectivity: float = 1.0,
    ) -> float:
        """Expected size of one adjacency list.

        Args:
            direction: FORWARD for out-lists, BACKWARD for in-lists.
            edge_label_code: restrict to this edge label (None = all labels).
            extra_selectivity: multiplicative selectivity of any further
                predicates on the list (e.g. a 5%-selective time predicate).
        """
        base = (
            self._avg_out_degree
            if direction is Direction.FORWARD
            else self._avg_in_degree
        )
        return base * self.edge_label_selectivity(edge_label_code) * extra_selectivity

    def describe(self) -> str:
        return (
            f"GraphStatistics(|V|={self._num_vertices:,}, |E|={self._num_edges:,}, "
            f"out={self.out_summary}, in={self.in_summary})"
        )
