"""Memory accounting for A+ indexes.

The paper reports memory as the bytes consumed by the adjacency-list indexes:
ID lists (8 B per edge ID + 4 B per neighbour ID), CSR partitioning-level
offsets (4 B each), and offset lists (1-4 B per indexed edge depending on the
per-page width).  :class:`MemoryBreakdown` collects these components per index
so benchmarks can report both absolute sizes and the overhead ratios of
Tables II-IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class MemoryBreakdown:
    """Byte counts of one index, split by storage component."""

    name: str
    id_list_bytes: int = 0
    offset_list_bytes: int = 0
    partition_level_bytes: int = 0
    other_bytes: int = 0

    @property
    def total(self) -> int:
        return (
            self.id_list_bytes
            + self.offset_list_bytes
            + self.partition_level_bytes
            + self.other_bytes
        )


@dataclass
class MemoryReport:
    """Aggregate of several index breakdowns (one database configuration)."""

    breakdowns: List[MemoryBreakdown] = field(default_factory=list)

    def add(self, breakdown: MemoryBreakdown) -> None:
        self.breakdowns.append(breakdown)

    @property
    def total(self) -> int:
        return sum(b.total for b in self.breakdowns)

    def total_megabytes(self) -> float:
        return self.total / (1024 * 1024)

    def format_table(self) -> str:
        """Return a human-readable table of the breakdowns."""
        header = f"{'index':<32} {'ID lists':>12} {'offsets':>12} {'levels':>12} {'total':>12}"
        lines = [header, "-" * len(header)]
        for b in self.breakdowns:
            lines.append(
                f"{b.name:<32} {b.id_list_bytes:>12,} {b.offset_list_bytes:>12,} "
                f"{b.partition_level_bytes:>12,} {b.total:>12,}"
            )
        lines.append("-" * len(header))
        lines.append(f"{'TOTAL':<32} {'':>12} {'':>12} {'':>12} {self.total:>12,}")
        return "\n".join(lines)


def format_bytes(num_bytes: int) -> str:
    """Format a byte count as a human-readable string (KiB/MiB)."""
    if num_bytes < 1024:
        return f"{num_bytes} B"
    if num_bytes < 1024 * 1024:
        return f"{num_bytes / 1024:.1f} KiB"
    return f"{num_bytes / (1024 * 1024):.2f} MiB"
