"""Shared configuration of the hand-run scripts under ``benchmarks/``.

``paper_tables.py`` measures the paper's tables on the scaled stand-ins of
:mod:`repro.workloads.datasets`, and ``bench_server_load.py`` sizes its
graph; the ``BENCH_SCALE`` environment variable scales both (default 1.0).
The benchmark of record is ``benchmarks/suite/``, which does not read it.
"""

from __future__ import annotations

import os
import sys

# Allow running the bench files as plain scripts from the repository root.
sys.path.insert(0, os.path.dirname(__file__))

#: Global scale multiplier applied to every dataset the scripts build.
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))


def print_header(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)
