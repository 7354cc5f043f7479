"""A+ index subsystem: primary, vertex-partitioned, and edge-partitioned indexes."""

from .config import IndexConfig
from .ddl import (
    CreateOneHopCommand,
    CreateTwoHopCommand,
    DDLCommand,
    ReconfigurePrimaryCommand,
    parse_ddl,
    parse_where,
)
from .edge_partitioned import EdgePartitionedIndex
from .index_store import AccessPath, IndexStore
from .maintenance import ColumnarEdgeDelta, IndexMaintainer, MaintenanceStats
from .primary import AdjacencyIndex, PrimaryIndex, ReconfigurationResult
from .vertex_partitioned import VertexPartitionedIndex
from .views import OneHopView, TwoHopView

__all__ = [
    "AccessPath",
    "AdjacencyIndex",
    "CreateOneHopCommand",
    "CreateTwoHopCommand",
    "DDLCommand",
    "EdgePartitionedIndex",
    "IndexConfig",
    "ColumnarEdgeDelta",
    "IndexMaintainer",
    "IndexStore",
    "MaintenanceStats",
    "OneHopView",
    "PrimaryIndex",
    "ReconfigurationResult",
    "ReconfigurePrimaryCommand",
    "TwoHopView",
    "VertexPartitionedIndex",
    "parse_ddl",
    "parse_where",
]
