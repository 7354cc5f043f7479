"""Generated inputs for the searched read of a sorted-range leg.

Every index class a :class:`~repro.query.operators.SortedRangeFilter` can
read through — primary (sorted on an edge property), vertex-partitioned,
edge-partitioned and bitmap — answers ``list_many(bound_ids, key_values,
sorted_filter)`` by bisecting each list and gathering only the admitted run,
and ``count_many(..., sorted_filter)`` with that run's length.  Both are
checked against a brute-force mask of the whole list (``index.list`` plus
the filter's comparison on every entry) over: every operator ``< <= > >=
=``; probes below, at, between and above the keys, with the keys drawn from
a handful of values so duplicate runs sit at the boundary; null sort values
(``int64.max`` / ``+inf``, last); int, float and categorical keys; empty
lists; and bound IDs repeated within a batch.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graph import Direction, GraphBuilder  # noqa: E402
from repro.graph.types import EdgeAdjacencyType, PropertyType  # noqa: E402
from repro.index.bitmap import BitmapSecondaryIndex  # noqa: E402
from repro.index.config import IndexConfig  # noqa: E402
from repro.index.edge_partitioned import EdgePartitionedIndex  # noqa: E402
from repro.index.primary import AdjacencyIndex, PrimaryIndex  # noqa: E402
from repro.index.vertex_partitioned import VertexPartitionedIndex  # noqa: E402
from repro.index.views import OneHopView, TwoHopView  # noqa: E402
from repro.predicates import CompareOp, Predicate, cmp, prop  # noqa: E402
from repro.query.operators import SortedRangeFilter  # noqa: E402
from repro.storage.partition_keys import PartitionKey  # noqa: E402
from repro.storage.sort_keys import SortKey  # noqa: E402

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)

NULL_PROBE = float(np.iinfo(np.int64).max)  # where an int/categorical null sorts
#: property type -> (edge values to draw from, None = null; filter constants)
KEYS = {
    PropertyType.INT: ([-2, 0, 3, 7, None], [-5, -2, -1.5, 0, 3, 3.5, 7, 9, NULL_PROBE]),
    PropertyType.FLOAT: (
        [-1.5, 0.0, 0.25, 2.5, None],
        [-2.0, -1.5, 0.1, 0.25, 2.5, 3.0, float("inf")],
    ),
    PropertyType.CATEGORICAL: (
        ["c0", "c1", "c2", None],
        [-1, 0, 0.5, 1, 2, 3, NULL_PROBE],
    ),
}
OPS = [CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE, CompareOp.EQ]
INDEX_KINDS = ("primary", "vertex", "edge", "bitmap")


@st.composite
def searched_reads(draw):
    """A small graph, one index sorted on edge property ``w``, a filter on
    ``w`` and a batch of bound IDs."""
    ptype = draw(st.sampled_from(sorted(KEYS, key=lambda t: t.value)))
    values, probes = KEYS[ptype]
    num_vertices = draw(st.integers(1, 6))
    num_edges = draw(st.integers(1, 30))
    vertex = st.integers(0, num_vertices - 1)
    edges = st.lists(vertex, min_size=num_edges, max_size=num_edges)
    src, dst = draw(edges), draw(edges)
    labels = draw(st.lists(st.sampled_from(["L0", "L1"]), min_size=num_edges, max_size=num_edges))
    w = draw(st.lists(st.sampled_from(values), min_size=num_edges, max_size=num_edges))
    if ptype is PropertyType.CATEGORICAL:
        # Categories are inferred from the strings: keep one.
        w[0] = draw(st.sampled_from(values[:-1]))
    k = draw(st.lists(st.integers(0, 2), min_size=num_edges, max_size=num_edges))
    kind = draw(st.sampled_from(INDEX_KINDS))
    # Sorted lists are the most granular groups: every partition level keyed.
    key_values = (draw(st.sampled_from(sorted(set(labels)))),) if draw(st.booleans()) else None
    domain = num_edges if kind == "edge" else num_vertices
    bounds = draw(st.lists(st.integers(0, domain - 1), max_size=12))
    sorted_filter = SortedRangeFilter(
        sort_key=SortKey.edge_property("w"),
        op=draw(st.sampled_from(OPS)),
        value=float(draw(st.sampled_from(probes))),
    )
    return ptype, (num_vertices, src, dst, labels, w, k), kind, key_values, bounds, sorted_filter


def _graph(ptype, num_vertices, src, dst, labels, w, k):
    builder = GraphBuilder()
    if ptype is not PropertyType.CATEGORICAL:
        builder.declare_edge_property("w", ptype)
    for _ in range(num_vertices):
        builder.add_vertex("V")
    builder.add_edges(src, dst, labels, properties={"w": w, "k": k})
    return builder.build()


def _index(graph, kind, partitioned):
    config = IndexConfig(
        partition_keys=(PartitionKey.edge_label(),) if partitioned else (),
        sort_keys=(SortKey.edge_property("w"), SortKey.neighbour_id()),
    )
    view = OneHopView("K", predicate=Predicate.of(cmp(prop("eadj", "k"), ">", 0)))
    if kind == "primary":
        return AdjacencyIndex(graph, Direction.BACKWARD, config)
    if kind == "bitmap":
        # A bitmap keeps its primary's order, so the primary is the sorted one.
        primary = AdjacencyIndex(graph, Direction.FORWARD, config)
        return BitmapSecondaryIndex(graph, view, Direction.FORWARD, primary)
    primary = PrimaryIndex(graph)
    if kind == "vertex":
        return VertexPartitionedIndex(
            graph, view, Direction.FORWARD, config, primary.forward
        )
    two_hop = TwoHopView(
        "KK",
        EdgeAdjacencyType.DST_FW,
        Predicate.of(cmp(prop("eb", "k"), "<=", prop("eadj", "k"))),
    )
    return EdgePartitionedIndex(graph, two_hop, config, primary)


def _admitted(values: np.ndarray, op: CompareOp, value: float) -> np.ndarray:
    return {
        CompareOp.LT: values < value,
        CompareOp.LE: values <= value,
        CompareOp.GT: values > value,
        CompareOp.GE: values >= value,
        CompareOp.EQ: values == value,
    }[op]


def _check_searched_read(case):
    ptype, graph_spec, kind, key_values, bounds, sorted_filter = case
    graph = _graph(ptype, *graph_spec)
    index = _index(graph, kind, partitioned=key_values is not None)
    key_values = list(key_values or ())
    bounds = np.asarray(bounds, dtype=np.int64)

    want_edges, want_nbrs, want_counts = [], [], []
    for bound in bounds.tolist():
        edge_ids, nbr_ids = index.list(bound, key_values)
        values = sorted_filter.sort_key.values(graph, edge_ids, nbr_ids)
        mask = _admitted(values, sorted_filter.op, sorted_filter.value)
        # The list is sorted on ``w``, so the admitted entries are one run.
        assert np.all(np.diff(np.flatnonzero(mask)) == 1)
        want_edges.extend(edge_ids[mask].tolist())
        want_nbrs.extend(nbr_ids[mask].tolist())
        want_counts.append(int(mask.sum()))

    edge_ids, nbr_ids, counts = index.list_many(bounds, key_values, sorted_filter)
    assert edge_ids.tolist() == want_edges
    assert nbr_ids.tolist() == want_nbrs
    assert counts.tolist() == want_counts
    assert index.count_many(bounds, key_values, sorted_filter).tolist() == want_counts
    # No filter: the whole lists, as before.
    assert (
        index.count_many(bounds, key_values).tolist()
        == index.list_many(bounds, key_values)[2].tolist()
    )


@settings(max_examples=300, deadline=None)
@given(searched_reads())
def test_searched_read_equals_masking_the_whole_list(case):
    _check_searched_read(case)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(searched_reads())
def test_fuzz_searched_read_equals_masking_the_whole_list(case):
    _check_searched_read(case)


def test_every_operator_and_null_probe_on_one_list():
    """Deterministic anchors: a duplicate run at the probe, nulls last."""
    builder = GraphBuilder()
    builder.declare_edge_property("w", PropertyType.INT)
    for _ in range(3):
        builder.add_vertex("V")
    w = [5, 1, None, 3, 3, 3, 9, None]
    builder.add_edges([0] * 8, [1, 2, 1, 2, 1, 2, 1, 2], "L0", properties={"w": w})
    graph = builder.build()
    config = IndexConfig(partition_keys=(), sort_keys=(SortKey.edge_property("w"),))
    index = AdjacencyIndex(graph, Direction.FORWARD, config)
    bounds = np.array([0, 1, 0])  # vertex 1 has no out-edges; 0 repeats
    expected = {
        (CompareOp.LT, 3): 1,
        (CompareOp.LE, 3): 4,
        (CompareOp.GT, 3): 4,  # 5, 9 and both nulls
        (CompareOp.GE, 3): 7,
        (CompareOp.EQ, 3): 3,
        (CompareOp.EQ, NULL_PROBE): 2,
        (CompareOp.LT, NULL_PROBE): 6,
        (CompareOp.GT, 10): 2,
        (CompareOp.LT, 0): 0,
    }
    for (op, value), admitted in expected.items():
        sorted_filter = SortedRangeFilter(SortKey.edge_property("w"), op, float(value))
        counts = index.count_many(bounds, (), sorted_filter)
        assert counts.tolist() == [admitted, 0, admitted], (op, value)
        edge_ids, _, searched = index.list_many(bounds, (), sorted_filter)
        assert searched.tolist() == counts.tolist()
        one = index.list(0)
        assert edge_ids[:admitted].tolist() == sorted_filter.apply(graph, *one)[0].tolist()
