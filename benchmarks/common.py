"""Shared configuration of the hand-run scripts under ``benchmarks/``.

``paper_tables.py`` measures the paper's tables on the scaled stand-ins of
:mod:`repro.workloads.datasets`; the ``BENCH_SCALE`` environment variable
scales them (default 1.0).  ``soak_server.py`` and ``crossover.py`` serve
the three query shapes below: a hot 1-hop count, a mid-weight 2-hop path and
a rare triangle over ``Follows`` edges.  The benchmark of record is
``benchmarks/suite/``, which reads neither.
"""

from __future__ import annotations

import os
import sys

# Allow running the bench files as plain scripts from the repository root,
# with no ``PYTHONPATH``: the sibling scripts and the package under ``src/``.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

from repro.query.pattern import QueryGraph  # noqa: E402

#: Global scale multiplier applied to every dataset the scripts build.
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))


def print_header(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def one_hop() -> QueryGraph:
    q = QueryGraph("hot-one-hop")
    q.add_vertex("a", label="User")
    q.add_vertex("b", label="User")
    q.add_edge("a", "b", label="Follows", name="e1")
    return q


def two_hop() -> QueryGraph:
    q = QueryGraph("mid-two-hop")
    q.add_vertex("a", label="User")
    q.add_vertex("b", label="User")
    q.add_vertex("c", label="User")
    q.add_edge("a", "b", label="Follows", name="e1")
    q.add_edge("b", "c", label="Follows", name="e2")
    return q


def triangle() -> QueryGraph:
    q = two_hop()
    q.name = "rare-triangle"
    q.add_edge("a", "c", label="Follows", name="e3")
    return q
