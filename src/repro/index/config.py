"""Index configurations: nested partitioning criteria plus a sort order.

An :class:`IndexConfig` captures everything tunable about the *structure* of
one A+ index beyond its level-0 partitioning (which is fixed: vertex IDs for
primary and vertex-partitioned indexes, edge IDs for edge-partitioned
indexes): the nested categorical partitioning levels and the sort order of the
most granular ID/offset lists (Sections III-A1 and III-A2).

The GraphflowDB default configuration ``D`` partitions by adjacent-edge label
and sorts by neighbour ID; the paper's experiments additionally use ``Ds``
(sort by neighbour label, then neighbour ID) and ``Dp`` (partition by edge
label and neighbour label, sort by neighbour ID), which are provided as
constructors here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..storage.partition_keys import PartitionKey
from ..storage.sort_keys import SortKey


@dataclass(frozen=True)
class IndexConfig:
    """Partitioning levels and sorting criterion of one A+ index.

    Attributes:
        partition_keys: nested partitioning criteria, outermost first.
        sort_keys: sort order of the most granular lists, major key first.
    """

    partition_keys: Tuple[PartitionKey, ...] = ()
    sort_keys: Tuple[SortKey, ...] = (SortKey.neighbour_id(),)

    def __post_init__(self) -> None:
        if not self.sort_keys:
            object.__setattr__(self, "sort_keys", (SortKey.neighbour_id(),))

    # ------------------------------------------------------------------
    # common configurations used in the paper's evaluation
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "IndexConfig":
        """GraphflowDB's default ``D``: partition by edge label, sort by nbr ID."""
        return cls(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.neighbour_id(),),
        )

    @classmethod
    def sorted_by_nbr_label(cls) -> "IndexConfig":
        """``Ds``: keep edge-label partitioning, sort by nbr label then nbr ID."""
        return cls(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.nbr_property("label"), SortKey.neighbour_id()),
        )

    @classmethod
    def partitioned_by_nbr_label(cls) -> "IndexConfig":
        """``Dp``: partition by edge label and nbr label, sort by nbr ID."""
        return cls(
            partition_keys=(PartitionKey.edge_label(), PartitionKey.nbr_label()),
            sort_keys=(SortKey.neighbour_id(),),
        )

    @classmethod
    def flat(cls) -> "IndexConfig":
        """No nested partitioning; sort by neighbour ID only."""
        return cls(partition_keys=(), sort_keys=(SortKey.neighbour_id(),))

    # ------------------------------------------------------------------
    # validation and introspection
    # ------------------------------------------------------------------
    def validate(self, graph: PropertyGraph) -> None:
        """Check that all keys exist and partition keys are categorical.

        ``nbr.label`` sort keys are allowed even though labels are not
        declared properties; property-based keys must exist in the schema.
        """
        for key in self.partition_keys:
            key.domain_size(graph)  # raises IndexConfigError if not categorical
        for key in self.sort_keys:
            if key.is_neighbour_id:
                continue
            if key.prop == "label":
                continue
            if key.target == "edge" and not graph.schema.has_edge_property(key.prop):
                raise IndexConfigError(f"unknown edge property {key.prop!r} in sort key")
            if key.target == "nbr" and not graph.schema.has_vertex_property(key.prop):
                raise IndexConfigError(
                    f"unknown vertex property {key.prop!r} in sort key"
                )

    @property
    def sorted_by_neighbour_id(self) -> bool:
        """True when the innermost lists are ordered by neighbour ID first."""
        return self.sort_keys[0].is_neighbour_id

    def same_partitioning_as(self, other: "IndexConfig") -> bool:
        return self.partition_keys == other.partition_keys

    def granular_segments_sorted_by(self, key: SortKey, key_values: Sequence) -> bool:
        """True when every list addressed by this key-value prefix is
        internally sorted on ``key``.

        The batched index contract behind ``segments_sorted_by`` on the index
        classes: only a prefix addressing the most granular groups is
        actually ordered by the sort keys — a coarser prefix unions several
        granular groups, each sorted individually.  The segment intersection
        kernel uses this to skip re-sorting ``list_many`` output.
        """
        if len(key_values) != len(self.partition_keys):
            return False
        return bool(self.sort_keys) and self.sort_keys[0] == key

    def describe(self) -> str:
        partition = ", ".join(k.describe() for k in self.partition_keys) or "(none)"
        sort = ", ".join(k.describe() for k in self.sort_keys)
        return f"PARTITION BY {partition} SORT BY {sort}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
