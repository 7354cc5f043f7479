"""Labelled subgraph queries (SQ1-SQ14) for the Table II workload.

Section V-B evaluates 13 labelled subgraph queries taken from the
GraphflowDB optimizer paper (reference [4] of the A+ paper): acyclic and
cyclic shapes with dense and sparse connectivity, up to 7 query vertices and
21 query edges, with fixed edge labels and (in the A+ paper's modification)
fixed vertex labels.  The query set itself is omitted from the A+ paper "due
to space reasons", so this module reconstructs a representative family with
the same characteristics; DESIGN.md records the substitution.

Labels are assigned deterministically per query (cycling through the
dataset's vertex/edge label alphabets), so the same query object is usable on
any ``G_{i,j}`` dataset.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..query.pattern import QueryGraph

#: (query name, vertex variables, edges as (src, dst) pairs, cyclic?)
_SHAPES: List[Tuple[str, Sequence[str], Sequence[Tuple[str, str]], bool]] = [
    # Acyclic, sparse.
    ("SQ1", "abc", [("a", "b"), ("b", "c")], False),
    ("SQ2", "abcd", [("a", "b"), ("b", "c"), ("c", "d")], False),
    ("SQ3", "abcd", [("a", "b"), ("a", "c"), ("a", "d")], False),
    # Cyclic, small.
    ("SQ4", "abc", [("a", "b"), ("b", "c"), ("a", "c")], True),
    ("SQ5", "abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], True),
    ("SQ6", "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")], True),
    # Cyclic, denser.
    ("SQ7", "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")], True),
    (
        "SQ8",
        "abcd",
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
        True,
    ),
    ("SQ9", "abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")], True),
    (
        "SQ10",
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"), ("b", "e")],
        True,
    ),
    # Longer paths / trees.
    ("SQ11", "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], False),
    (
        "SQ12",
        "abcde",
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("c", "e"), ("d", "e")],
        True,
    ),
    # SQ13 is the long 5-edge path singled out in the Table V discussion.
    ("SQ13", "abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")], False),
    # SQ14 has very few or no outputs on the paper's datasets and is omitted
    # from Table II; it is kept here for completeness (a 5-vertex near-clique).
    (
        "SQ14",
        "abcdef",
        [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("d", "e"),
            ("e", "f"),
            ("a", "f"),
            ("a", "c"),
            ("b", "d"),
        ],
        True,
    ),
]


def query_names(include_sq14: bool = False) -> List[str]:
    names = [shape[0] for shape in _SHAPES]
    return names if include_sq14 else names[:-1]


def build_query(
    name: str,
    num_vertex_labels: int,
    num_edge_labels: int,
    with_vertex_labels: bool = True,
) -> QueryGraph:
    """Materialize one SQ query with labels drawn from ``VL*`` / ``EL*``.

    Args:
        name: one of ``SQ1`` ... ``SQ14``.
        num_vertex_labels: size of the dataset's vertex-label alphabet (the
            ``i`` of ``G_{i,j}``).
        num_edge_labels: size of the edge-label alphabet (the ``j``).
        with_vertex_labels: when False, only edge labels are fixed — this is
            the original workload of reference [4], for which GraphflowDB's
            default index is already tuned; the A+ paper's modification fixes
            vertex labels as well.
    """
    for shape_name, vertices, edges, _ in _SHAPES:
        if shape_name == name:
            break
    else:
        raise KeyError(f"unknown subgraph query {name!r}")

    query = QueryGraph(name)
    for position, vertex in enumerate(vertices):
        label = f"VL{position % num_vertex_labels}" if with_vertex_labels else None
        query.add_vertex(vertex, label=label)
    for position, (src, dst) in enumerate(edges):
        label = f"EL{position % num_edge_labels}" if num_edge_labels > 0 else None
        query.add_edge(src, dst, label=label, name=f"e{position}")
    return query


def build_workload(
    num_vertex_labels: int,
    num_edge_labels: int,
    names: Sequence[str] = (),
    with_vertex_labels: bool = True,
) -> Dict[str, QueryGraph]:
    """Build the whole workload (or a named subset) keyed by query name."""
    selected = list(names) if names else query_names()
    return {
        name: build_query(name, num_vertex_labels, num_edge_labels, with_vertex_labels)
        for name in selected
    }
