"""Tests of the batched gather path.

Randomized property tests asserting that the batched index contract
(:meth:`NestedCSR.gather`, ``list_many`` on all three index classes) agrees
with looped one-list lookups; that the extension operators produce the
naive matcher's rows and edge bindings, as a multiset, on graphs with
parallel edges and empty adjacency lists; and that the logical
:class:`ExecutionStats` counters of the flat, count-only and shared runs
equal counts taken from the graph's edge arrays.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import Database
from repro.errors import IndexLookupError
from repro.graph import Direction
from repro.graph.generators import (
    LabelledGraphSpec,
    generate_labelled_graph,
)
from repro.graph.types import EdgeAdjacencyType, OFFSET_DTYPE
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.index_store import AccessPath, IndexStore
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import CompareOp, Predicate, PropertyRef, cmp, prop
from repro.query import operators as operators_module
from repro.query.executor import PlanRunner
from repro.query.naive import NaiveMatcher
from repro.query.operators import (
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    ScanVertices,
    SortedRangeFilter,
)
from repro.query.pattern import QueryGraph
from repro.query.pipeline import CountSink
from repro.query.plan import QueryPlan
from repro.storage.csr import NestedCSR
from repro.storage.intersect import intersect_segments
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


# ----------------------------------------------------------------------
# storage: gather vs group_range
# ----------------------------------------------------------------------
def _random_csr(rng, num_bound, num_entries, domains):
    bound_ids = rng.integers(0, num_bound, size=num_entries)
    level_codes = [rng.integers(0, d, size=num_entries) for d in domains]
    sort_values = [rng.integers(0, 40, size=num_entries)]
    return NestedCSR.build(num_bound, bound_ids, level_codes, list(domains), sort_values)[0]


class TestGather:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gather_matches_group_range(self, seed):
        rng = np.random.default_rng(seed)
        csr = _random_csr(rng, 30, 200, [3, 2])
        for _ in range(10):
            n = int(rng.integers(0, 15))
            bounds = rng.integers(0, 30, size=n)
            for codes in ((), (1,), (2, 1)):
                positions, counts = csr.gather(bounds, codes)
                expected_positions = []
                expected_counts = []
                for bound in bounds:
                    start, end = csr.group_range(int(bound), codes)
                    expected_positions.append(np.arange(start, end))
                    expected_counts.append(end - start)
                flat = (
                    np.concatenate(expected_positions)
                    if expected_positions
                    else np.empty(0, dtype=np.int64)
                )
                assert positions.tolist() == flat.tolist()
                assert counts.tolist() == expected_counts
                assert positions.dtype == np.int64
                assert counts.dtype == np.int64

    def test_prefix_ranges_generalize_bound_lookups(self):
        rng = np.random.default_rng(5)
        csr = _random_csr(rng, 20, 120, [2, 2])
        bounds = rng.integers(0, 20, size=12)
        starts, ends = csr.prefix_ranges(bounds)
        assert starts.tolist() == csr.bound_starts(bounds).tolist()
        assert ends.tolist() == csr.bound_ends(bounds).tolist()
        starts, ends = csr.prefix_ranges(bounds, (1,))
        for bound, start, end in zip(bounds, starts, ends):
            assert (int(start), int(end)) == csr.group_range(int(bound), (1,))

    def test_gather_validates_inputs(self):
        rng = np.random.default_rng(0)
        csr = _random_csr(rng, 10, 40, [2])
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0, 10]))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([-1]))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0]), (5,))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0]), (0, 0))

    def test_offsets_dtype_and_shape(self):
        rng = np.random.default_rng(1)
        csr = _random_csr(rng, 10, 40, [2])
        assert csr.offsets.dtype == OFFSET_DTYPE
        assert len(csr.offsets) == 10 * 2 + 1
        assert csr.offsets[0] == 0
        assert csr.offsets[-1] == 40


# ----------------------------------------------------------------------
# indexes: list_many vs looped list
# ----------------------------------------------------------------------
def _assert_list_many_matches(index, bounds, key_values=()):
    edge_ids, nbr_ids, counts = index.list_many(
        np.asarray(bounds, dtype=np.int64), key_values
    )
    expected_edges, expected_nbrs, expected_counts = [], [], []
    for bound in bounds:
        e, n = index.list(int(bound), key_values)
        expected_edges.extend(int(x) for x in e)
        expected_nbrs.extend(int(x) for x in n)
        expected_counts.append(len(e))
    assert edge_ids.tolist() == expected_edges
    assert nbr_ids.tolist() == expected_nbrs
    assert counts.tolist() == expected_counts


class TestListMany:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_primary_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_vertices, size=40)
        for key_values in ((), ("Wire",), ("DirDeposit",)):
            _assert_list_many_matches(primary.forward, bounds, key_values)
            _assert_list_many_matches(primary.backward, bounds, key_values)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_vertex_partitioned_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        view = OneHopView(
            "usd", predicate=Predicate.of(cmp(prop("eadj", "currency"), "=", "USD"))
        )
        index = VertexPartitionedIndex(
            financial_graph,
            view,
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_vertices, size=40)
        for key_values in ((), ("Wire",)):
            _assert_list_many_matches(index, bounds, key_values)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_edge_partitioned_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        view = TwoHopView(
            "cheaper",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))),
        )
        index = EdgePartitionedIndex(
            financial_graph, view, IndexConfig.default(), primary
        )
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_edges, size=40)
        for key_values in ((), ("Wire",)):
            _assert_list_many_matches(index, bounds, key_values)

    def test_empty_and_repeated_bounds(self, example_graph):
        primary = PrimaryIndex(example_graph)
        # Customer vertices (5..7) have no out-edges beyond Owns; vertex 5
        # repeated exercises repeated gathers and empty lists in one batch.
        bounds = [0, 0, 6, 7, 3, 6, 0]
        _assert_list_many_matches(primary.forward, bounds)
        _assert_list_many_matches(primary.forward, bounds, ("Wire",))
        _assert_list_many_matches(primary.forward, [])


# ----------------------------------------------------------------------
# operators: rows against the naive matcher
# ----------------------------------------------------------------------
def _run(graph, plan):
    stats = ExecutionStats()
    rows = []
    for batch in PlanRunner(graph).execute(plan, stats=stats):
        rows.extend(batch.to_dicts())
    return rows, stats


def _output_vars(plan):
    """The variables a row of ``plan`` binds: every vertex and every
    tracked edge."""
    names = set()
    for operator in plan.operators:
        if isinstance(operator, ScanVertices):
            names.add(operator.var)
            continue
        targets = (
            operator.target_vars
            if isinstance(operator, MultiExtend)
            else [operator.target_var]
        )
        names.update(targets)
        names.update(leg.edge_var for leg in operator.legs if leg.track_edge)
    return sorted(names)


def _assert_matches_naive(graph, plan):
    """Run ``plan`` and compare its rows, as a multiset, with the naive
    matcher's matches of ``plan.query`` (which carries every predicate the
    plan's legs apply) projected onto the variables a row binds."""
    rows, _ = _run(graph, plan)
    names = _output_vars(plan)
    assert all(sorted(row) == names for row in rows)

    def key(row):
        return tuple(row[name] for name in names)

    expected = Counter(key(match) for match in NaiveMatcher(graph).match(plan.query))
    assert Counter(map(key, rows)) == expected
    return rows


def _forward_leg(store, bound, target, edge_var, **kwargs):
    path = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]
    return ExtensionLeg(
        access_path=path,
        bound_var=bound,
        target_var=target,
        edge_var=edge_var,
        presorted_by_nbr=path.sorted_by_neighbour_id,
        **kwargs,
    )


def _query(edges, *predicates):
    """A query graph over ``edges`` — ``(src, dst, name)`` triples — that
    carries ``predicates``."""
    query = QueryGraph("q")
    for src, dst, name in edges:
        for var in (src, dst):
            if var not in query.vertices:
                query.add_vertex(var)
        query.add_edge(src, dst, name=name)
    for predicate in predicates:
        query.add_predicate(predicate)
    return query


def _two_vertex_query(*predicates):
    return _query([("a", "b", "e0")], *predicates)


class TestExtendEquivalence:
    def test_single_leg_tracked(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))
        plan = QueryPlan(
            query=_two_vertex_query(),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                ),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        assert len(rows) == financial_graph.num_edges

    def test_single_leg_with_partition_key_values(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))
        path = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]
        path.key_values = ("Wire",)
        leg = ExtensionLeg(
            access_path=path,
            bound_var="a",
            target_var="b",
            edge_var="e0",
            track_edge=True,
            presorted_by_nbr=path.sorted_by_neighbour_id,
        )
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0", label="Wire")
        plan = QueryPlan(
            query=query,
            operators=[ScanVertices(var="a"), ExtendIntersect(target_var="b", legs=[leg])],
        )
        _assert_matches_naive(financial_graph, plan)

    def test_single_leg_with_residual_on_bound_and_new_vars(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))
        conjuncts = (
            cmp(prop("a", "ID"), "<", prop("b", "ID")),
            cmp(prop("e0", "amt"), ">", 300),
        )
        plan = QueryPlan(
            query=_two_vertex_query(*conjuncts),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(
                            store,
                            "a",
                            "b",
                            "e0",
                            track_edge=True,
                            residual=Predicate.of(*conjuncts),
                        )
                    ],
                ),
            ],
        )
        _assert_matches_naive(financial_graph, plan)

    @pytest.mark.parametrize(
        "op,value",
        [
            (CompareOp.LT, 900),
            (CompareOp.LE, 900),
            (CompareOp.GT, 900),
            (CompareOp.GE, 900),
            (CompareOp.EQ, 4),
        ],
    )
    def test_single_leg_sorted_filter(self, financial_graph, op, value):
        date_key = SortKey.edge_property("date")
        config = IndexConfig(
            partition_keys=(), sort_keys=(date_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        plan = QueryPlan(
            query=_two_vertex_query(cmp(prop("e0", "date"), op.value, value)),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(
                            store,
                            "a",
                            "b",
                            "e0",
                            track_edge=True,
                            sorted_filter=SortedRangeFilter(
                                sort_key=date_key, op=op, value=value
                            ),
                        )
                    ],
                ),
            ],
        )
        _assert_matches_naive(financial_graph, plan)

    @pytest.mark.parametrize("graph_fixture", ["example_graph", "financial_graph"])
    def test_two_leg_intersection_with_parallel_edges(self, graph_fixture, request):
        graph = request.getfixturevalue(graph_fixture)
        store = IndexStore(graph, PrimaryIndex(graph))
        plan = QueryPlan(
            query=_query([("a", "c", "ec"), ("a", "b", "e0"), ("c", "b", "e1")]),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(store, "a", "b", "e0", track_edge=True),
                        _forward_leg(store, "c", "b", "e1", track_edge=True),
                    ],
                ),
            ],
        )
        rows = _assert_matches_naive(graph, plan)
        for row in rows:
            assert int(graph.edge_src[row["e0"]]) == row["a"]
            assert int(graph.edge_dst[row["e0"]]) == row["b"]
            assert int(graph.edge_src[row["e1"]]) == row["c"]
            assert int(graph.edge_dst[row["e1"]]) == row["b"]

    def test_edge_partitioned_leg(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        view = TwoHopView(
            "cheaper",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))),
        )
        edge_index = EdgePartitionedIndex(
            financial_graph, view, IndexConfig.default(), primary
        )
        store = IndexStore(financial_graph, primary)
        epath = AccessPath(
            index=edge_index,
            kind="edge_secondary",
            direction=Direction.FORWARD,
            key_values=(),
            sort_keys=tuple(edge_index.config.sort_keys),
            uses_bound_edge=True,
        )
        leg = ExtensionLeg(
            access_path=epath,
            bound_var="e0",
            target_var="c",
            edge_var="e1",
            track_edge=True,
        )
        plan = QueryPlan(
            # The view's eadj.amt < eb.amt, with eb = e0 and eadj = e1.
            query=_query(
                [("a", "b", "e0"), ("b", "c", "e1")],
                cmp(prop("e1", "amt"), "<", prop("e0", "amt")),
            ),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                ),
                ExtendIntersect(target_var="c", legs=[leg]),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        assert rows
        for row in rows:
            assert int(
                financial_graph.edge_property(row["e1"], "amt")
            ) < int(financial_graph.edge_property(row["e0"], "amt"))


class TestMultiExtendEquivalence:
    def _city_store(self, graph, presorted):
        city_key = SortKey.nbr_property("city")
        if presorted:
            config = IndexConfig(
                partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
            )
        else:
            config = IndexConfig.flat()
        return IndexStore(graph, PrimaryIndex(graph, config=config)), city_key

    @pytest.mark.parametrize("presorted", [True, False])
    @pytest.mark.parametrize("shared_target", [True, False])
    def test_city_join(self, financial_graph, presorted, shared_target):
        store, city_key = self._city_store(financial_graph, presorted)
        limit = 40  # keep the naive matcher fast
        scan_predicate = cmp(prop("a", "ID"), "<", limit)
        if shared_target:
            # Legs into one target join on that vertex's own city.
            query = _query(
                [("a", "c", "ec"), ("a", "b", "e0"), ("c", "b", "e1")], scan_predicate
            )
            targets = ("b", "b")
        else:
            query = _query(
                [("a", "c", "ec"), ("a", "b1", "e0"), ("c", "b2", "e1")],
                scan_predicate,
                cmp(prop("b1", "city"), "=", prop("b2", "city")),
            )
            targets = ("b1", "b2")
        legs = [
            _forward_leg(store, "a", targets[0], "e0", track_edge=True),
            _forward_leg(store, "c", targets[1], "e1", track_edge=True),
        ]
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a", predicate=Predicate.of(scan_predicate)),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                MultiExtend(legs=legs, equality_key=city_key),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        city = financial_graph.vertex_props.column("city")
        for row in rows:
            target_a = row["b"] if shared_target else row["b1"]
            target_c = row["b"] if shared_target else row["b2"]
            assert city[target_a] == city[target_c]


class TestMultiLegKernelEquivalence:
    """The batch-wide intersection kernel against the naive matcher.

    Exercises the batch-wide intersection kernel through 2- and 3-leg
    ExtendIntersect and MULTI-EXTEND on random graphs with parallel edges,
    sorted-range filters (unsorted-by-neighbour legs) and rows whose
    intersection is empty.
    """

    def _random_graph(self, seed, num_vertices=40, num_edges=240):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=num_vertices,
                num_edges=num_edges,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.6,
                seed=seed,
            )
        )
        # Dense enough that parallel edges are present (they stress the
        # combination expansion of the kernel).
        pairs = graph.edge_src.astype(np.int64) * graph.num_vertices + graph.edge_dst
        assert len(np.unique(pairs)) < graph.num_edges
        return graph

    @pytest.mark.parametrize("seed", [2, 13, 31])
    def test_three_leg_intersection(self, seed):
        graph = self._random_graph(seed)
        store = IndexStore(graph, PrimaryIndex(graph))
        scan_predicate = cmp(prop("a", "ID"), "<", 25)
        plan = QueryPlan(
            query=_query(
                [
                    ("a", "c", "ec"),
                    ("a", "d", "ed"),
                    ("a", "b", "e0"),
                    ("c", "b", "e1"),
                    ("d", "b", "e2"),
                ],
                scan_predicate,
            ),
            operators=[
                ScanVertices(var="a", predicate=Predicate.of(scan_predicate)),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                ExtendIntersect(
                    target_var="d", legs=[_forward_leg(store, "a", "d", "ed")]
                ),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(store, "a", "b", "e0", track_edge=True),
                        _forward_leg(store, "c", "b", "e1", track_edge=True),
                        _forward_leg(store, "d", "b", "e2", track_edge=True),
                    ],
                ),
            ],
        )
        rows = _assert_matches_naive(graph, plan)
        for row in rows:
            assert int(graph.edge_dst[row["e0"]]) == row["b"]
            assert int(graph.edge_dst[row["e1"]]) == row["b"]
            assert int(graph.edge_dst[row["e2"]]) == row["b"]

    @pytest.mark.parametrize("seed", [1, 19])
    def test_two_leg_with_sorted_filter_legs(self, financial_graph, seed):
        """Legs behind a date-sorted index (not neighbour-sorted) with a
        sorted-range filter: the kernel must segment-sort both legs."""
        date_key = SortKey.edge_property("date")
        config = IndexConfig(
            partition_keys=(), sort_keys=(date_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        rng = np.random.default_rng(seed)
        threshold = int(rng.integers(300, 1200))
        sorted_filter = SortedRangeFilter(
            sort_key=date_key, op=CompareOp.LT, value=threshold
        )
        plan = QueryPlan(
            query=_query(
                [("a", "c", "ec"), ("a", "b", "e0"), ("c", "b", "e1")],
                cmp(prop("e0", "date"), "<", threshold),
            ),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(
                            store,
                            "a",
                            "b",
                            "e0",
                            track_edge=True,
                            sorted_filter=sorted_filter,
                        ),
                        _forward_leg(store, "c", "b", "e1", track_edge=True),
                    ],
                ),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        for row in rows:
            assert int(financial_graph.edge_property(row["e0"], "date")) < threshold

    def test_two_leg_rows_with_empty_intersection(self):
        """Sparse random graph: most rows intersect to nothing."""
        graph = self._random_graph(97, num_vertices=60, num_edges=150)
        store = IndexStore(graph, PrimaryIndex(graph))
        plan = QueryPlan(
            query=_query([("a", "c", "ec"), ("a", "b", "e0"), ("c", "b", "e1")]),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        _forward_leg(store, "a", "b", "e0", track_edge=True),
                        _forward_leg(store, "c", "b", "e1", track_edge=True),
                    ],
                ),
            ],
        )
        _assert_matches_naive(graph, plan)

    def test_single_leg_multi_extend(self, financial_graph):
        """MULTI-EXTEND with one leg (regression: the kernel must accept it)."""
        city_key = SortKey.nbr_property("city")
        config = IndexConfig(
            partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        scan_predicate = cmp(prop("a", "ID"), "<", 30)
        plan = QueryPlan(
            query=_two_vertex_query(scan_predicate),
            operators=[
                ScanVertices(var="a", predicate=Predicate.of(scan_predicate)),
                MultiExtend(
                    legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                    equality_key=city_key,
                ),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        assert rows  # the plan extends every out-edge of the scanned vertices
        for row in rows:
            assert int(financial_graph.edge_src[row["e0"]]) == row["a"]
            assert int(financial_graph.edge_dst[row["e0"]]) == row["b"]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_three_leg_multi_extend(self, financial_graph, seed):
        """3-leg MULTI-EXTEND city join, mixed shared/distinct targets."""
        city_key = SortKey.nbr_property("city")
        config = IndexConfig(
            partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        rng = np.random.default_rng(seed)
        scan_predicate = cmp(prop("a", "ID"), "<", int(rng.integers(8, 20)))
        legs = [
            _forward_leg(store, "a", "b", "e0", track_edge=True),
            _forward_leg(store, "c", "b", "e1", track_edge=True),
            _forward_leg(store, "c", "b2", "e2", track_edge=True),
        ]
        plan = QueryPlan(
            query=_query(
                [("a", "c", "ec"), ("a", "b", "e0"), ("c", "b", "e1"), ("c", "b2", "e2")],
                scan_predicate,
                cmp(prop("b", "city"), "=", prop("b2", "city")),
            ),
            operators=[
                ScanVertices(var="a", predicate=Predicate.of(scan_predicate)),
                ExtendIntersect(
                    target_var="c", legs=[_forward_leg(store, "a", "c", "ec")]
                ),
                MultiExtend(legs=legs, equality_key=city_key),
            ],
        )
        rows = _assert_matches_naive(financial_graph, plan)
        city = financial_graph.vertex_props.column("city")
        for row in rows:
            assert city[row["b"]] == city[row["b2"]]


class TestJoinEntriesNaN:
    """MULTI-EXTEND's join kernel on NaN equality keys: NaN never joins
    across legs, and a NaN run expands each entry once."""

    def test_single_leg_nan_run_expands_once(self):
        keys = np.array([1.0, np.nan, np.nan])
        kernel = intersect_segments([keys], [np.array([3])], 1, [True])
        assert kernel.total == 3
        assert kernel.counts_out.tolist() == [3]
        assert kernel.positions[0].tolist() == [0, 1, 2]

    def test_nan_never_joins_across_legs(self):
        keys = [np.array([1.0, np.nan]), np.array([1.0, np.nan])]
        kernel = intersect_segments(keys, [np.array([2]), np.array([2])], 1, [True, True])
        assert kernel.total == 1  # only the 1.0 keys join; NaN != NaN
        assert [pos.tolist() for pos in kernel.positions] == [[0], [0]]


# ----------------------------------------------------------------------
# logical counters against the edge arrays
# ----------------------------------------------------------------------
COUNTERS = ("lists_accessed", "list_entries_fetched", "predicate_evaluations")


def _rows(graph, query, operators):
    """The flat rows of the plan ``operators``, as ``(kind, id)`` bindings."""
    rows = PlanRunner(graph).collect(QueryPlan(query=query, operators=list(operators)))
    return [
        {name: (query.variable_kind(name), value) for name, value in row.items()}
        for row in rows
    ]


def _searched_run(graph, query, leg, row):
    """The entries of the list ``leg`` reads for ``row`` that the leg is
    charged for, from the edge arrays: the bound vertex's out- or in-edges,
    cut to the leg's edge-label partition, and under a sorted-range filter
    those for which the filter's comparison holds on the whole list."""
    index = leg.access_path.index
    view = getattr(index, "view", None)
    assert view is None or view.predicate.is_true, "a one-hop list of every edge"
    kind, bound = row[leg.bound_var]
    assert kind == "vertex"
    forward = leg.access_path.direction is Direction.FORWARD
    edges = np.flatnonzero((graph.edge_src if forward else graph.edge_dst) == bound)
    for key, value in zip(index.config.partition_keys, leg.access_path.key_values):
        assert key == PartitionKey.edge_label()
        code = value if isinstance(value, int) else graph.schema.edge_label_code(value)
        edges = edges[graph.edge_labels[edges] == code]
    if leg.sorted_filter is None:
        return edges
    sorted_filter = leg.sorted_filter
    sort_key = sorted_filter.sort_key
    var = leg.edge_var if sort_key.target == "edge" else leg.target_var
    comparison = Predicate.of(
        cmp(prop(var, sort_key.prop), sorted_filter.op.value, sorted_filter.value)
    )
    nbrs = (graph.edge_dst if forward else graph.edge_src)[edges]
    arrays = {leg.edge_var: ("edge", edges), leg.target_var: ("vertex", nbrs)}
    return edges[comparison.evaluate_bulk(graph, row, arrays)]


def _expected_counters(graph, plan):
    """``lists_accessed``, ``list_entries_fetched`` and
    ``predicate_evaluations`` of ``plan``, counted without the indexes.

    Every partial match reaching an extension reads one list per leg and
    is charged its searched run (:func:`_searched_run`); a residual is
    evaluated on each entry of that run, a post predicate on each extended
    row, a :class:`Filter` on each row it is fed and a scan predicate on
    each candidate.  The partial matches reaching a stage are the flat
    rows of the plan cut before it."""
    query, operators = plan.query, plan.operators
    expected = dict.fromkeys(COUNTERS, 0)
    for position, operator in enumerate(operators):
        if isinstance(operator, ScanVertices):
            if not operator.predicate.is_true:
                candidates = (
                    graph.num_vertices
                    if operator.label is None
                    else len(graph.vertices_with_label(operator.label))
                )
                expected["predicate_evaluations"] += candidates
            continue
        rows = _rows(graph, query, operators[:position])
        if isinstance(operator, Filter):
            expected["predicate_evaluations"] += len(rows)
            continue
        for leg in operator.legs:
            for row in rows:
                searched = len(_searched_run(graph, query, leg, row))
                expected["lists_accessed"] += 1
                expected["list_entries_fetched"] += searched
                if not leg.residual.is_true:
                    expected["predicate_evaluations"] += searched
        if not operator.post_predicate.is_true:
            unfiltered = dataclasses.replace(operator, post_predicate=Predicate.true())
            extended = _rows(graph, query, list(operators[:position]) + [unfiltered])
            expected["predicate_evaluations"] += len(extended)
    return expected


def _counted(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


def _count_only(graph, plan):
    stats = ExecutionStats()
    CountSink().drain(PlanRunner(graph).execute(plan, stats=stats, count_only=True))
    return stats


def _counter_plan(graph, config, tail_kwargs, *predicates):
    """``a -> b -> c -> d`` on an index built with ``config``; the last
    leg (``c -> d``, the count-only suffix) takes ``tail_kwargs``.  The
    ``b`` stage is a merge point and the suffix's keys repeat, so a
    count-only run shares lists in a flat stage and in the suffix."""
    store = IndexStore(graph, PrimaryIndex(graph, config=config))
    return QueryPlan(
        query=_query(
            [("a", "b", "e0"), ("b", "c", "e1"), ("c", "d", "e2")], *predicates
        ),
        operators=[
            ScanVertices(var="a"),
            ExtendIntersect(target_var="b", legs=[_forward_leg(store, "a", "b", "e0")]),
            ExtendIntersect(target_var="c", legs=[_forward_leg(store, "b", "c", "e1")]),
            ExtendIntersect(
                target_var="d",
                legs=[_forward_leg(store, "c", "d", "e2", **tail_kwargs)],
            ),
        ],
    )


def _counter_cases():
    date_key = SortKey.edge_property("date")
    city_key = SortKey.nbr_property("city")
    by_date = IndexConfig(partition_keys=(), sort_keys=(date_key, SortKey.neighbour_id()))
    by_city = IndexConfig(partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id()))
    residual = cmp(prop("e2", "amt"), ">", 300)
    return {
        "single_leg": (IndexConfig.default(), {}, ()),
        "residual": (
            IndexConfig.default(),
            {"residual": Predicate.of(residual)},
            (residual,),
        ),
        "sorted_constant": (
            by_date,
            {"sorted_filter": SortedRangeFilter(date_key, CompareOp.LT, 900)},
            (cmp(prop("e2", "date"), "<", 900),),
        ),
        "sorted_probe": (
            by_city,
            {
                "sorted_filter": SortedRangeFilter(
                    city_key, CompareOp.EQ, PropertyRef("c", "city")
                )
            },
            (cmp(prop("d", "city"), "=", prop("c", "city")),),
        ),
    }


@pytest.mark.parametrize("case", list(_counter_cases()))
def test_counters_match_the_edge_arrays(financial_graph, case, monkeypatch):
    """Flat, count-only and shared runs charge what the edge arrays say."""
    graph = financial_graph
    config, tail_kwargs, predicates = _counter_cases()[case]
    plan = _counter_plan(graph, config, tail_kwargs, *predicates)
    assert plan.factorized_suffix_start() == 3 and plan.merge_points()
    expected = _expected_counters(graph, plan)
    assert expected["list_entries_fetched"] > expected["lists_accessed"] > 0
    assert (expected["predicate_evaluations"] > 0) is (case == "residual")

    flat = PlanRunner(graph).run(plan)
    assert flat.count == NaiveMatcher(graph).count(plan.query)
    assert _counted(flat.stats) == expected

    shared = _count_only(graph, plan)
    assert shared.lists_shared > 0
    assert _counted(shared) == expected

    monkeypatch.setattr(QueryPlan, "merge_points", lambda self: {})
    monkeypatch.setattr(QueryPlan, "suffix_keys_may_repeat", lambda self, op: False)
    monkeypatch.setattr(operators_module, "_SHARE_MIN_REPEAT", 1 << 40)
    count_only = _count_only(graph, plan)
    assert count_only.lists_shared == count_only.entries_shared == 0
    assert _counted(count_only) == expected


class TestScanPushdown:
    """Chunked ScanVertices: label/predicate filtering inside the scan."""

    def test_chunked_scan_matches_full_materialization(
        self, financial_graph, monkeypatch
    ):
        monkeypatch.setattr(operators_module, "_SCAN_CHUNK_MIN", 16)
        predicate = Predicate.of(cmp(prop("a", "ID"), "<", 70))
        plan = QueryPlan(
            query=_two_vertex_query(),
            operators=[ScanVertices(var="a", predicate=predicate)],
        )
        batch_size = 16
        stats = ExecutionStats()
        batches = list(
            PlanRunner(financial_graph, batch_size=batch_size).execute(
                plan, stats=stats
            )
        )
        scanned = np.concatenate([batch.column("a") for batch in batches])
        expected = np.arange(70, dtype=np.int64)
        assert scanned.tolist() == expected.tolist()
        # Survivors are packed into full batches regardless of chunking.
        assert all(len(batch) == batch_size for batch in batches[:-1])
        assert 0 < len(batches[-1]) <= batch_size
        # Predicate is evaluated once per candidate, exactly as before.
        assert stats.predicate_evaluations == financial_graph.num_vertices
        assert stats.intermediate_rows == 70

    def test_chunked_scan_with_label(self, example_graph, monkeypatch):
        monkeypatch.setattr(operators_module, "_SCAN_CHUNK_MIN", 2)
        plan = QueryPlan(
            query=_two_vertex_query(),
            operators=[ScanVertices(var="a", label="Account")],
        )
        batches = list(PlanRunner(example_graph, batch_size=3).execute(plan))
        scanned = np.concatenate([batch.column("a") for batch in batches])
        assert scanned.tolist() == example_graph.vertices_with_label(
            "Account"
        ).tolist()


class TestRandomizedGraphs:
    """The default stack against the naive matcher on random graphs."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_two_path_matches_everything(self, seed):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=50,
                num_edges=220,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.6,
                seed=seed,
            )
        )
        store = IndexStore(graph, PrimaryIndex(graph))
        plan = QueryPlan(
            query=_query([("a", "b", "e0"), ("b", "c", "e1")]),
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                ),
                ExtendIntersect(
                    target_var="c",
                    legs=[_forward_leg(store, "b", "c", "e1", track_edge=True)],
                ),
            ],
        )
        _assert_matches_naive(graph, plan)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_database_default_stack_matches_naive(self, seed):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=40,
                num_edges=160,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.5,
                seed=seed,
            )
        )
        db = Database(graph)
        query = QueryGraph("tri")
        for name in ("a", "b", "c"):
            query.add_vertex(name)
        query.add_edge("a", "b", name="e0")
        query.add_edge("b", "c", name="e1")
        query.add_edge("a", "c", name="e2")
        assert db.count(query) == NaiveMatcher(graph).count(query)
