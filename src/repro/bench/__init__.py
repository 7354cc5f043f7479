"""Helpers the benchmark suite imports: ``available_cpus`` and ``VPt``.

The paper's tables are measured by ``benchmarks/paper_tables.py``.
"""

from .harness import available_cpus, vpt_view_and_config

__all__ = ["available_cpus", "vpt_view_and_config"]
