"""Unit tests for MatchBatch and the physical operators on hand-built plans."""

import numpy as np
import pytest

from repro.errors import ExecutionError, PlanningError
from repro.graph import Direction
from repro.index.index_store import IndexStore
from repro.index.primary import PrimaryIndex
from repro.predicates import Predicate, cmp, prop
from repro.query.binding import MatchBatch, concat_batches
from repro.query.executor import Executor
from repro.query.operators import (
    ExecutionContext,
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    ScanVertices,
    SortedRangeFilter,
)
from repro.query.pattern import QueryGraph
from repro.query.plan import QueryPlan
from repro.predicates import CompareOp
from repro.storage.sort_keys import SortKey


class TestMatchBatch:
    def test_basic_accessors(self):
        batch = MatchBatch({"a": np.array([1, 2, 3]), "b": np.array([4, 5, 6])})
        assert len(batch) == 3
        assert set(batch.variables) == {"a", "b"}
        assert batch.row(1) == {"a": 2, "b": 5}
        assert batch.has_variable("a") and not batch.has_variable("c")

    def test_ragged_batch_rejected(self):
        with pytest.raises(ExecutionError):
            MatchBatch({"a": np.array([1]), "b": np.array([1, 2])})

    def test_select_repeat_with_columns(self):
        batch = MatchBatch({"a": np.array([1, 2, 3])})
        selected = batch.select(np.array([True, False, True]))
        assert selected.column("a").tolist() == [1, 3]
        repeated = batch.repeat(np.array([2, 0, 1]))
        assert repeated.column("a").tolist() == [1, 1, 3]
        extended = batch.with_columns({"b": np.array([7, 8, 9])})
        assert extended.column("b").tolist() == [7, 8, 9]
        with pytest.raises(ExecutionError):
            extended.with_columns({"b": np.array([1, 2, 3])})

    def test_concat_and_split(self):
        first = MatchBatch({"a": np.array([1, 2])})
        second = MatchBatch({"a": np.array([3])})
        merged = first.concat(second)
        assert merged.column("a").tolist() == [1, 2, 3]
        chunks = list(merged.split(2))
        assert [len(c) for c in chunks] == [2, 1]
        assert concat_batches([first, second]).column("a").tolist() == [1, 2, 3]
        assert concat_batches([]) is None

    def test_unknown_column_raises(self):
        batch = MatchBatch({"a": np.array([1])})
        with pytest.raises(ExecutionError):
            batch.column("zz")


def build_store(graph):
    return IndexStore(graph, PrimaryIndex(graph))


def make_leg(store, direction, bound, target, edge_var, key_values=(), **kwargs):
    path = store.find_vertex_access_paths(direction, Predicate.true())[0]
    path.key_values = tuple(key_values)
    path.covers_all_levels = len(path.key_values) == len(path.index.config.partition_keys)
    return ExtensionLeg(
        access_path=path,
        bound_var=bound,
        target_var=target,
        edge_var=edge_var,
        presorted_by_nbr=path.sorted_by_neighbour_id,
        **kwargs,
    )


class TestScanAndExtend:
    def test_scan_with_label_and_predicate(self, example_graph):
        query = QueryGraph("q")
        query.add_vertex("c", label="Customer")
        scan = ScanVertices(
            var="c", label="Customer", predicate=Predicate.of(cmp(prop("c", "name"), "=", "Bob"))
        )
        context = ExecutionContext(graph=example_graph, query=query)
        batches = list(scan.execute(context))
        total = sum(len(b) for b in batches)
        assert total == 1

    def test_single_leg_extend_matches_adjacency(self, example_graph):
        store = build_store(example_graph)
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[make_leg(store, Direction.FORWARD, "a", "b", "e0")],
                ),
            ],
        )
        count = Executor(example_graph).count(plan)
        assert count == example_graph.num_edges

    def test_two_leg_intersection(self, example_graph):
        # Wedges a -> b <- c  closed into common neighbours: count pairs of
        # incoming edges per shared destination.
        store = build_store(example_graph)
        query = QueryGraph("q")
        for name in ("a", "c", "b"):
            query.add_vertex(name)
        query.add_edge("a", "b", name="e0")
        query.add_edge("c", "b", name="e1")
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="c",
                    legs=[
                        ExtensionLeg(
                            access_path=store.find_vertex_access_paths(
                                Direction.FORWARD, Predicate.true()
                            )[0],
                            bound_var="a",
                            target_var="c",
                            edge_var="_dummy",
                        )
                    ],
                ),
            ],
        )
        # Simpler equivalent check: intersection of a's and c's forward lists
        # equals the brute-force count of common out-neighbours.
        executor = Executor(example_graph)
        query2 = QueryGraph("wedge")
        for name in ("a", "c", "b"):
            query2.add_vertex(name)
        query2.add_edge("a", "b", name="e0")
        query2.add_edge("c", "b", name="e1")
        plan2 = QueryPlan(
            query=query2,
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="c",
                    legs=[make_leg(store, Direction.FORWARD, "a", "c", "_x")],
                ),
                ExtendIntersect(
                    target_var="b",
                    legs=[
                        make_leg(store, Direction.FORWARD, "a", "b", "e0"),
                        make_leg(store, Direction.FORWARD, "c", "b", "e1"),
                    ],
                ),
            ],
        )
        # Brute force count of (a, c, b) with a->b and c->b, where c is any
        # out-neighbour of a (that is what plan2's first extend produces).
        out = {}
        for e in range(example_graph.num_edges):
            out.setdefault(int(example_graph.edge_src[e]), []).append(
                int(example_graph.edge_dst[e])
            )
        expected = 0
        for a, nbrs in out.items():
            for c in nbrs:
                for b in out.get(a, []):
                    expected += out.get(c, []).count(b)
        assert executor.count(plan2) == expected

    def test_tracked_edges_are_bound(self, example_graph):
        store = build_store(example_graph)
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        leg = make_leg(store, Direction.FORWARD, "a", "b", "e0", track_edge=True)
        plan = QueryPlan(
            query=query,
            operators=[ScanVertices(var="a"), ExtendIntersect(target_var="b", legs=[leg])],
        )
        rows = Executor(example_graph).collect(plan)
        assert all("e0" in row for row in rows)
        for row in rows:
            assert int(example_graph.edge_src[row["e0"]]) == row["a"]
            assert int(example_graph.edge_dst[row["e0"]]) == row["b"]

    def test_sorted_range_filter(self, example_graph):
        values_key = SortKey.edge_property("date")
        # Primary with no nested partitioning and a date sort: the level-0
        # list is the most granular group, so a binary-search filter is valid.
        from repro.index.config import IndexConfig

        config = IndexConfig(
            partition_keys=(),
            sort_keys=(values_key, SortKey.neighbour_id()),
        )
        store = IndexStore(example_graph, PrimaryIndex(example_graph, config=config))
        path = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]
        leg = ExtensionLeg(
            access_path=path,
            bound_var="a",
            target_var="b",
            edge_var="e0",
            track_edge=True,
            sorted_filter=SortedRangeFilter(sort_key=values_key, op=CompareOp.LT, value=10),
        )
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        plan = QueryPlan(
            query=query,
            operators=[ScanVertices(var="a"), ExtendIntersect(target_var="b", legs=[leg])],
        )
        rows = Executor(example_graph).collect(plan)
        expected = sum(
            1
            for e in range(example_graph.num_edges)
            if (example_graph.edge_property(e, "date") or 10**9) < 10
        )
        assert len(rows) == expected
        assert all(example_graph.edge_property(r["e0"], "date") < 10 for r in rows)

    def test_filter_operator(self, example_graph):
        store = build_store(example_graph)
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[make_leg(store, Direction.FORWARD, "a", "b", "e0")],
                ),
                Filter(Predicate.of(cmp(prop("b", "label"), "=", "Account"))),
            ],
        )
        count = Executor(example_graph).count(plan)
        expected = sum(
            1
            for e in range(example_graph.num_edges)
            if example_graph.vertex_label_name(int(example_graph.edge_dst[e])) == "Account"
        )
        assert count == expected


class TestPlanValidation:
    def test_plan_must_start_with_scan(self, example_graph):
        query = QueryGraph("q")
        query.add_vertex("a")
        with pytest.raises(PlanningError):
            QueryPlan(query=query, operators=[Filter(Predicate.true())])

    def test_plan_introspection(self, example_graph):
        store = build_store(example_graph)
        query = QueryGraph("q")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a"),
                ExtendIntersect(
                    target_var="b",
                    legs=[make_leg(store, Direction.FORWARD, "a", "b", "e0")],
                ),
            ],
        )
        assert plan.operator_names() == ["ScanVertices", "ExtendIntersect"]
        assert len(plan.operators[1].legs) == 1
        assert "via primary-fw[" in plan.describe()
        assert "SCAN" in plan.describe()
