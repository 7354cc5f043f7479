"""Generated inputs for the searched read of a sorted-range leg.

Every index class a :class:`~repro.query.operators.SortedRangeFilter` can
read through — primary (sorted on an edge property), vertex-partitioned
and edge-partitioned — answers ``list_many(bound_ids, key_values,
sorted_filter, probe_ids)`` by searching each list and gathering only the
admitted run, and ``count_many(...)`` with that run's length.  Both are
checked against a brute-force mask of the whole list (the filter's
comparison on every entry) over: every operator ``< <= > >= =``; constant probes below, at, between
and above the keys, with the keys drawn from a handful of values so
duplicate runs sit at the boundary; per-row probes read off a bound edge,
null ones included; null sort values (``int64.max`` / ``+inf``, last),
with one draw in three a constant at that sentinel under ``=``/``<=``
over a list that holds a null; int, float and categorical keys; empty
lists, which share their start with the next list; bound IDs repeated
within a batch; and coarse prefixes, whose lists union one sorted run per
partition.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Database  # noqa: E402
from repro.graph import Direction, GraphBuilder  # noqa: E402
from repro.graph.types import EdgeAdjacencyType, PropertyType  # noqa: E402
from repro.index.config import IndexConfig  # noqa: E402
from repro.index.edge_partitioned import EdgePartitionedIndex  # noqa: E402
from repro.index.primary import AdjacencyIndex, PrimaryIndex  # noqa: E402
from repro.index.vertex_partitioned import VertexPartitionedIndex  # noqa: E402
from repro.index.views import OneHopView, TwoHopView  # noqa: E402
from repro.predicates import CompareOp, Predicate, PropertyRef, cmp, prop  # noqa: E402
from repro.query.naive import NaiveMatcher  # noqa: E402
from repro.query.operators import SortedRangeFilter  # noqa: E402
from repro.query.pattern import QueryGraph  # noqa: E402
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
INDEX_KINDS = ("primary", "vertex", "edge")


#: Where a null sorts for each property type: a constant there under
#: ``=``/``<=`` must still admit no null.
SENTINEL = {
    PropertyType.INT: NULL_PROBE,
    PropertyType.FLOAT: float("inf"),
    PropertyType.CATEGORICAL: NULL_PROBE,
}


@st.composite
def searched_reads(draw):
    """A small graph, one index sorted on edge property ``w``, a filter on
    ``w`` (a constant, or the ``w`` of a per-row probe edge) and a batch of
    bound IDs.

    One draw in three is the null-sentinel case, which independent draws
    almost never hit: a constant at the key's sentinel under ``=``/``<=``
    and a batch that reads a list holding a null."""
    ptype = draw(st.sampled_from(sorted(KEYS, key=lambda t: t.value)))
    values, probes = KEYS[ptype]
    kind = draw(st.sampled_from(INDEX_KINDS))
    sentinel = draw(st.sampled_from([False, False, True]))
    num_vertices = draw(st.integers(1, 6))
    num_edges = draw(st.integers(2 if sentinel else 1, 30))
    vertex = st.integers(0, num_vertices - 1)
    edges = st.lists(vertex, min_size=num_edges, max_size=num_edges)
    src, dst = draw(edges), draw(edges)
    labels = draw(st.lists(st.sampled_from(["L0", "L1"]), min_size=num_edges, max_size=num_edges))
    w = draw(st.lists(st.sampled_from(values), min_size=num_edges, max_size=num_edges))
    if ptype is PropertyType.CATEGORICAL:
        # Categories are inferred from the strings: keep one.
        w[0] = draw(st.sampled_from(values[:-1]))
    k = draw(st.lists(st.integers(0, 2), min_size=num_edges, max_size=num_edges))
    # flat: no partition level; granular: the label level keyed; coarse: the
    # label level left open, so a list is one sorted run per label.
    layout = draw(st.sampled_from(("flat", "granular", "coarse")))
    key_values = (draw(st.sampled_from(sorted(set(labels)))),) if layout == "granular" else ()
    domain = num_edges if kind == "edge" else num_vertices
    bounds = draw(st.lists(st.integers(0, domain - 1), max_size=12))
    if sentinel:
        # Edge ``null`` (not edge 0, which keeps a category) gets a null ``w``
        # and lands in the list of bound ``bound``, which the batch reads.
        null = draw(st.integers(1, num_edges - 1))
        w[null] = None
        if key_values:
            labels[null] = key_values[0]
        if kind == "primary":  # backward: bound to its destination
            bound = dst[null]
        elif kind == "vertex":  # forward, in the view ``k > 0``
            bound, k[null] = src[null], 2
        else:  # edge 0 precedes it, ``eb.k <= eadj.k``
            bound, dst[0], k[0] = 0, src[null], 0
        bounds.insert(draw(st.integers(0, len(bounds))), bound)
        value, probe_ids = SENTINEL[ptype], None
        op = draw(st.sampled_from([CompareOp.EQ, CompareOp.LE]))
    elif draw(st.booleans()):
        value = PropertyRef("p", "w")
        probe_ids = draw(
            st.lists(
                st.integers(0, num_edges - 1), min_size=len(bounds), max_size=len(bounds)
            )
        )
        op = draw(st.sampled_from(OPS))
    else:
        value, probe_ids = float(draw(st.sampled_from(probes))), None
        op = draw(st.sampled_from(OPS))
    sorted_filter = SortedRangeFilter(
        sort_key=SortKey.edge_property("w"), op=op, value=value
    )
    return (
        ptype,
        (num_vertices, src, dst, labels, w, k),
        kind,
        layout,
        key_values,
        bounds,
        sorted_filter,
        probe_ids,
    )


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
    ptype, graph_spec, kind, layout, key_values, bounds, sorted_filter, probe_ids = case
    graph = _graph(ptype, *graph_spec)
    index = _index(graph, kind, partitioned=layout != "flat")
    key_values = list(key_values)
    # The sorted runs a row's list is made of, in position order.
    runs = [key_values]
    if layout == "coarse":
        runs = [[code] for code in range(index.csr.level_domains[0])]
    bounds = np.asarray(bounds, dtype=np.int64)
    sort_key = sorted_filter.sort_key

    want_edges, want_nbrs, want_counts = [], [], []
    for row, bound in enumerate(bounds.tolist()):
        probe_id = None if probe_ids is None else probe_ids[row]
        count = 0
        for run in runs:
            edge_ids, nbr_ids = index.list(bound, run)
            # The admitted run is the predicate on every entry of the list.
            values = sort_key.values(graph, edge_ids, nbr_ids)
            if probe_id is None:
                mask = _admitted(values, sorted_filter.op, sorted_filter.value)
                # Every run stops before the nulls (last), also under a
                # constant equal to their sentinel.
                mask &= ~sort_key.nulls(graph, edge_ids, nbr_ids)
            else:
                probe = np.array([probe_id])
                mask = _admitted(values, sorted_filter.op, sort_key.values(graph, probe, probe)[0])
                mask &= ~sort_key.nulls(graph, edge_ids, nbr_ids)
                mask &= ~sort_key.nulls(graph, probe, probe)[0]
            admitted, admitted_nbrs = edge_ids[mask], nbr_ids[mask]
            want_edges.extend(admitted.tolist())
            want_nbrs.extend(admitted_nbrs.tolist())
            count += len(admitted)
        want_counts.append(count)

    edge_ids, nbr_ids, counts = index.list_many(bounds, key_values, sorted_filter, probe_ids)
    assert edge_ids.tolist() == want_edges
    assert nbr_ids.tolist() == want_nbrs
    assert counts.tolist() == want_counts
    assert (
        index.count_many(bounds, key_values, sorted_filter, probe_ids).tolist()
        == want_counts
    )
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


def _one_list_graph(ptype=PropertyType.INT):
    """Vertex 0's eight out-edges, ``w`` with a duplicate run and two nulls."""
    builder = GraphBuilder()
    builder.declare_edge_property("w", ptype)
    for _ in range(3):
        builder.add_vertex("V")
    w = [5, 1, None, 3, 3, 3, 9, None]
    builder.add_edges([0] * 8, [1, 2, 1, 2, 1, 2, 1, 2], "L0", properties={"w": w})
    return builder.build()


def test_every_operator_and_null_probe_on_one_list():
    """Deterministic anchors: a duplicate run at the probe, nulls last."""
    graph = _one_list_graph()
    config = IndexConfig(partition_keys=(), sort_keys=(SortKey.edge_property("w"),))
    index = AdjacencyIndex(graph, Direction.FORWARD, config)
    bounds = np.array([0, 1, 0])  # vertex 1 has no out-edges; 0 repeats
    expected = {
        (CompareOp.LT, 3): 1,
        (CompareOp.LE, 3): 4,
        (CompareOp.GT, 3): 2,  # 5 and 9, not the nulls
        (CompareOp.GE, 3): 5,
        (CompareOp.EQ, 3): 3,
        (CompareOp.EQ, NULL_PROBE): 0,  # a null equals nothing
        (CompareOp.LE, NULL_PROBE): 6,
        (CompareOp.LT, NULL_PROBE): 6,
        (CompareOp.GT, 10): 0,
        (CompareOp.LT, 0): 0,
    }
    for (op, value), admitted in expected.items():
        sorted_filter = SortedRangeFilter(SortKey.edge_property("w"), op, float(value))
        counts = index.count_many(bounds, (), sorted_filter)
        assert counts.tolist() == [admitted, 0, admitted], (op, value)
        edge_ids, _, searched = index.list_many(bounds, (), sorted_filter)
        assert searched.tolist() == counts.tolist()
        one = index.list(0)
        sort_key = sorted_filter.sort_key
        mask = _admitted(sort_key.values(graph, *one), op, float(value))
        mask &= ~sort_key.nulls(graph, *one)
        assert edge_ids[:admitted].tolist() == one[0][mask].tolist()


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
@pytest.mark.parametrize(
    "ptype,sentinel",
    [(PropertyType.INT, int(np.iinfo(np.int64).max)), (PropertyType.FLOAT, float("inf"))],
)
def test_a_constant_at_the_null_sentinel_admits_no_null(ptype, sentinel, op):
    """``e.w op int64.max`` (``+inf`` on a float key) counts what the naive
    matcher counts: the nulls sort under that very value, and no search
    may admit them."""
    graph = _one_list_graph(ptype)
    db = Database(
        graph,
        primary_config=IndexConfig(
            partition_keys=(), sort_keys=(SortKey.edge_property("w"), SortKey.neighbour_id())
        ),
    )
    query = QueryGraph(f"w{op}sentinel")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e")
    query.add_predicate(cmp(prop("e", "w"), op, sentinel))
    expected = NaiveMatcher(graph).count(query)
    assert expected == {"<": 6, "<=": 6, ">": 0, ">=": 0, "=": 0}[op]
    plan = db.plan(query)
    assert db.count(plan) == expected
    assert db.count(plan, factorized=False) == expected


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
@pytest.mark.parametrize("ptype", [PropertyType.INT, PropertyType.FLOAT])
def test_constant_filter_on_a_w_sorted_list_counts_as_the_oracle(ptype, op):
    """A ``>``/``>=`` constant admits no null: batched and count-only
    runs both count what the naive matcher counts.  On a
    float key the optimizer keeps ``>``/``>=`` in the residual instead."""
    graph = _one_list_graph(ptype)
    db = Database(
        graph,
        primary_config=IndexConfig(
            partition_keys=(), sort_keys=(SortKey.edge_property("w"), SortKey.neighbour_id())
        ),
    )
    query = QueryGraph(f"w{op}3")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e")
    query.add_predicate(cmp(prop("e", "w"), op, 3))
    expected = NaiveMatcher(graph).count(query)
    assert expected == {"<": 1, "<=": 4, ">": 2, ">=": 5, "=": 3}[op]
    plan = db.plan(query)
    searched = [
        leg.sorted_filter
        for operator in plan.operators
        for leg in getattr(operator, "legs", ())
        if leg.sorted_filter is not None
    ]
    open_above = op in (">", ">=")
    assert bool(searched) is not (open_above and ptype is PropertyType.FLOAT)
    assert db.count(plan, factorized=False) == expected
    assert db.count(plan) == expected
