"""The two helpers ``benchmarks/suite/`` imports from the package.

``available_cpus`` stamps the cores a run could use; ``vpt_view_and_config``
builds Table III's ``VPt`` index, which the suite's ``tuned_secondary``
workload, ``benchmarks/paper_tables.py`` and the tests read alike.
"""

from __future__ import annotations

import os
from typing import Tuple

from ..index.config import IndexConfig
from ..index.views import OneHopView
from ..storage.partition_keys import PartitionKey
from ..storage.sort_keys import SortKey


def available_cpus() -> int:
    """Number of CPU cores this process may actually use.

    Prefers the scheduler affinity mask (respects container/cgroup CPU
    pinning) over the raw core count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def vpt_view_and_config() -> Tuple[OneHopView, IndexConfig]:
    """``VPt``: global 1-hop view, primary partitioning, sorted on edge time."""
    view = OneHopView(name="VPt")
    config = IndexConfig(
        partition_keys=(PartitionKey.edge_label(),),
        sort_keys=(SortKey.edge_property("time"), SortKey.neighbour_id()),
    )
    return view, config
