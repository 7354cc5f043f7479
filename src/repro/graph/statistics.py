"""Catalog statistics over a property graph.

The DP optimizer's i-cost model (Section IV-A) estimates the sizes of the
adjacency lists a plan will access.  :class:`GraphStatistics` precomputes the
degree and label-selectivity statistics the cost model needs.
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


class GraphStatistics:
    """Degree and label statistics used by the query optimizer.

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
        self._edge_label_counts = edge_label_counts
        self._vertex_label_counts = vertex_label_counts
        self._num_edges = graph.num_edges
        self._num_vertices = graph.num_vertices
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
