"""The in-memory property graph.

A :class:`PropertyGraph` is the finalized, read-optimized representation of a
property graph: dense vertex and edge IDs, label code arrays, and columnar
property stores.  It is the substrate on which A+ indexes are built.

Graphs are normally created through :class:`repro.graph.builder.GraphBuilder`
or one of the generators in :mod:`repro.graph.generators`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphBuildError, SchemaError
from .property_store import PropertyStore
from .schema import GraphSchema
from .types import EDGE_ID_DTYPE, VERTEX_ID_DTYPE, PropertyValue


class PropertyGraph:
    """A finalized in-memory property graph.

    Attributes:
        schema: the :class:`GraphSchema` describing labels and properties.
        vertex_labels: int32 array, label code of each vertex.
        edge_labels: int32 array, label code of each edge.
        edge_src: int32 array, source vertex ID of each edge.
        edge_dst: int32 array, destination vertex ID of each edge.
        vertex_props: columnar vertex property store.
        edge_props: columnar edge property store.
    """

    def __init__(
        self,
        schema: GraphSchema,
        vertex_labels: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_labels: np.ndarray,
        vertex_props: PropertyStore,
        edge_props: PropertyStore,
    ) -> None:
        self.schema = schema
        self.vertex_labels = np.asarray(vertex_labels, dtype=np.int32)
        self.edge_src = np.asarray(edge_src, dtype=VERTEX_ID_DTYPE)
        self.edge_dst = np.asarray(edge_dst, dtype=VERTEX_ID_DTYPE)
        self.edge_labels = np.asarray(edge_labels, dtype=np.int32)
        self.vertex_props = vertex_props
        self.edge_props = edge_props
        self._out_degree: Optional[np.ndarray] = None
        self._in_degree: Optional[np.ndarray] = None
        self._validate()

    def _validate(self) -> None:
        n = self.num_vertices
        if len(self.edge_src) != len(self.edge_dst) or len(self.edge_src) != len(
            self.edge_labels
        ):
            raise GraphBuildError("edge arrays have inconsistent lengths")
        if n == 0 and self.num_edges > 0:
            raise GraphBuildError("graph has edges but no vertices")
        if self.num_edges:
            if int(self.edge_src.min()) < 0 or int(self.edge_src.max()) >= n:
                raise GraphBuildError("edge source vertex ID out of range")
            if int(self.edge_dst.min()) < 0 or int(self.edge_dst.max()) >= n:
                raise GraphBuildError("edge destination vertex ID out of range")
        if self.vertex_props.count != n:
            raise GraphBuildError("vertex property store size mismatch")
        if self.edge_props.count != self.num_edges:
            raise GraphBuildError("edge property store size mismatch")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def average_degree(self) -> float:
        """Average out-degree (edges / vertices)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def vertex_label_name(self, vertex_id: int) -> str:
        return self.schema.vertex_labels.name(int(self.vertex_labels[vertex_id]))

    def edge_label_name(self, edge_id: int) -> str:
        return self.schema.edge_labels.name(int(self.edge_labels[edge_id]))

    def vertex_property(self, vertex_id: int, name: str) -> PropertyValue:
        return self.vertex_props.value(vertex_id, name)

    def edge_property(self, edge_id: int, name: str) -> PropertyValue:
        return self.edge_props.value(edge_id, name)

    # ------------------------------------------------------------------
    # vectorized helpers used by the storage and query layers
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: str) -> np.ndarray:
        """Return the IDs of all vertices carrying ``label``."""
        code = self.schema.vertex_label_code(label)
        return np.nonzero(self.vertex_labels == code)[0].astype(VERTEX_ID_DTYPE)

    def all_vertices(self) -> np.ndarray:
        return np.arange(self.num_vertices, dtype=VERTEX_ID_DTYPE)

    def all_edges(self) -> np.ndarray:
        return np.arange(self.num_edges, dtype=EDGE_ID_DTYPE)

    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex.

        Computed once and cached (graphs are immutable after construction;
        maintenance flushes install a *new* graph).  Callers must treat the
        returned array as read-only.
        """
        if self._out_degree is None:
            self._out_degree = np.bincount(self.edge_src, minlength=self.num_vertices)
        return self._out_degree

    def in_degree(self) -> np.ndarray:
        """In-degree of every vertex (cached; treat as read-only)."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self.edge_dst, minlength=self.num_vertices)
        return self._in_degree

    # ------------------------------------------------------------------
    # accounting & description
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate memory footprint of the raw graph (without indexes)."""
        total = (
            self.vertex_labels.nbytes
            + self.edge_labels.nbytes
            + self.edge_src.nbytes
            + self.edge_dst.nbytes
        )
        total += self.vertex_props.nbytes() + self.edge_props.nbytes()
        return total

    def describe(self) -> str:
        return (
            f"PropertyGraph(|V|={self.num_vertices:,}, |E|={self.num_edges:,}, "
            f"avg_degree={self.average_degree:.2f}, "
            f"vertex_labels={self.schema.num_vertex_labels}, "
            f"edge_labels={self.schema.num_edge_labels})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
