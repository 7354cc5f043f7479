"""Physical storage layer: nested CSR, ID lists, offset lists, accounting."""

from .csr import NestedCSR
from .id_lists import IdLists
from .intersect import (
    BatchIntersection,
    combo_positions,
    dedup_sorted,
    intersect_segments,
)
from .memory import MemoryBreakdown, MemoryReport, format_bytes
from .offset_lists import OffsetLists, bytes_needed
from .partition_keys import PartitionKey
from .sort_keys import SortKey, sort_values_matrix

__all__ = [
    "BatchIntersection",
    "IdLists",
    "MemoryBreakdown",
    "MemoryReport",
    "NestedCSR",
    "OffsetLists",
    "PartitionKey",
    "SortKey",
    "bytes_needed",
    "combo_positions",
    "dedup_sorted",
    "format_bytes",
    "intersect_segments",
    "sort_values_matrix",
]
