"""Sorting criteria for the most granular ID lists of an A+ index.

"The most granular sublists can be sorted according to one or more arbitrary
properties of the adjacent edges or neighbour vertices, e.g., the date
property of Transfer edges and the city property of the Account vertices"
(Section III-A2).  Sorting on neighbour IDs is the GraphflowDB default and is
what enables intersection-based (WCOJ) plans; sorting on other properties
enables MULTI-EXTEND intersections on those properties.

Null values sort last, mirroring the partitioning convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.types import NULL_CATEGORY, NULL_INT, PropertyType


@dataclass(frozen=True)
class SortKey:
    """One component of an ID list sort order.

    Attributes:
        target: ``"edge"`` (property of the adjacent edge), ``"nbr"``
            (property of the neighbour vertex), or ``"nbr_id"`` (the neighbour
            vertex ID itself, the system default).
        prop: property name; ignored for ``"nbr_id"``.
    """

    target: str
    prop: str = ""

    def __post_init__(self) -> None:
        if self.target not in ("edge", "nbr", "nbr_id", "edge_id"):
            raise IndexConfigError(
                "sort key target must be 'edge', 'nbr', 'nbr_id' or 'edge_id', "
                f"got {self.target!r}"
            )
        if self.target in ("edge", "nbr") and not self.prop:
            raise IndexConfigError("property sort keys require a property name")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def neighbour_id(cls) -> "SortKey":
        """Sort by neighbour vertex ID (``vnbr.ID``), the system default."""
        return cls("nbr_id")

    @classmethod
    def edge_id(cls) -> "SortKey":
        """Sort by edge ID, i.e. keep edges in insertion order.

        Used to model fixed-structure systems whose adjacency lists are not
        kept in any query-relevant order (e.g. linked-list storage).
        """
        return cls("edge_id")

    @classmethod
    def edge_property(cls, name: str) -> "SortKey":
        """Sort by a property of the adjacent edge (e.g. ``eadj.date``)."""
        return cls("edge", name)

    @classmethod
    def nbr_property(cls, name: str) -> "SortKey":
        """Sort by a property of the neighbour vertex (e.g. ``vnbr.city``)."""
        return cls("nbr", name)

    @classmethod
    def parse(cls, text: str) -> "SortKey":
        """Parse the DDL form ``vnbr.ID`` / ``eadj.date`` / ``vnbr.city``."""
        text = text.strip()
        if "." not in text:
            raise IndexConfigError(f"cannot parse sort key {text!r}")
        prefix, prop = text.split(".", 1)
        prefix = prefix.strip().lower()
        prop = prop.strip()
        if prefix in ("vnbr", "v", "nbr", "vertex") and prop.lower() == "id":
            return cls.neighbour_id()
        if prefix in ("eadj", "e", "edge"):
            return cls.edge_property(prop)
        if prefix in ("vnbr", "v", "nbr", "vertex"):
            return cls.nbr_property(prop)
        raise IndexConfigError(f"sort key prefix must be 'eadj' or 'vnbr', got {prefix!r}")

    # ------------------------------------------------------------------
    # key extraction
    # ------------------------------------------------------------------
    @property
    def is_neighbour_id(self) -> bool:
        return self.target == "nbr_id"

    @property
    def is_edge_id(self) -> bool:
        return self.target == "edge_id"

    def values(
        self,
        graph: PropertyGraph,
        edge_ids: np.ndarray,
        nbr_ids: np.ndarray,
    ) -> np.ndarray:
        """Return the sortable value of each edge (nulls mapped to +inf-like).

        The returned array is always a float64 or int64 array suitable for
        :func:`~repro.storage.lex_order.lex_order` and binary search; null
        integer/categorical values are replaced by a value greater than every
        real value so that they sort last (``lex_order`` ranks such a column,
        whose span no packed key holds).
        """
        if self.is_neighbour_id:
            return np.asarray(nbr_ids, dtype=np.int64)
        if self.is_edge_id:
            return np.asarray(edge_ids, dtype=np.int64)
        if self.prop == "label":
            if self.target == "edge":
                return graph.edge_labels[edge_ids].astype(np.int64)
            return graph.vertex_labels[nbr_ids].astype(np.int64)
        ptype, raw = self._raw(graph, edge_ids, nbr_ids)
        if ptype is PropertyType.STRING:
            raise IndexConfigError(
                f"cannot sort on string property {self.prop!r}; "
                "declare it categorical instead"
            )
        if ptype is PropertyType.FLOAT:
            values = raw.astype(np.float64).copy()
            values[np.isnan(values)] = np.inf
            return values
        values = raw.astype(np.int64).copy()
        values[raw == _null_marker(ptype)] = np.iinfo(np.int64).max
        return values

    def nulls(
        self, graph: PropertyGraph, edge_ids: np.ndarray, nbr_ids: np.ndarray
    ) -> np.ndarray:
        """True for each edge whose value is null, read from the raw column
        (not from the sentinel :meth:`values` sorts it under)."""
        if self.is_neighbour_id or self.is_edge_id or self.prop == "label":
            return np.zeros(len(nbr_ids), dtype=bool)
        ptype, raw = self._raw(graph, edge_ids, nbr_ids)
        if ptype is PropertyType.FLOAT:
            return np.isnan(raw)
        return raw == _null_marker(ptype)

    def _raw(self, graph: PropertyGraph, edge_ids: np.ndarray, nbr_ids: np.ndarray):
        """``(property type, raw coded column)`` of each edge's value."""
        if self.target == "edge":
            prop = graph.schema.edge_property(self.prop)
            column = graph.edge_props.column(self.prop)
            return prop.ptype, np.asarray(column[edge_ids])
        prop = graph.schema.vertex_property(self.prop)
        column = graph.vertex_props.column(self.prop)
        return prop.ptype, np.asarray(column[nbr_ids])

    def describe(self) -> str:
        if self.is_neighbour_id:
            return "vnbr.ID"
        if self.is_edge_id:
            return "eadj.ID"
        prefix = "eadj" if self.target == "edge" else "vnbr"
        return f"{prefix}.{self.prop}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def _null_marker(ptype: PropertyType):
    return NULL_CATEGORY if ptype is PropertyType.CATEGORICAL else NULL_INT


def null_sort_value(dtype: np.dtype):
    """The value :meth:`SortKey.values` sorts nulls under in an array of
    ``dtype``: ``+inf`` for floats, ``int64.max`` otherwise."""
    return np.inf if np.dtype(dtype).kind == "f" else np.iinfo(np.int64).max


def sort_values_matrix(
    keys: Sequence[SortKey],
    graph: PropertyGraph,
    edge_ids: np.ndarray,
    nbr_ids: np.ndarray,
) -> List[np.ndarray]:
    """Extract sortable value arrays for a list of sort keys (major first)."""
    return [key.values(graph, edge_ids, nbr_ids) for key in keys]
