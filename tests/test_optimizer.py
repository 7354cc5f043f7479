"""Optimizer-focused tests: plan shapes, costing, and random-pattern equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import PlanningError
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.index.config import IndexConfig
from repro.predicates import cmp, prop
from repro.query.naive import NaiveMatcher
from repro.query.operators import ExtendIntersect, MultiExtend, ScanVertices
from repro.query.optimizer import CostModel, Optimizer
from repro.query.pattern import QueryGraph


class TestPlanShapes:
    def test_single_vertex_query_is_a_scan(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("customers")
        query.add_vertex("c", label="Customer")
        plan = db.plan(query)
        assert len(plan.operators) == 1
        assert isinstance(plan.operators[0], ScanVertices)
        assert db.count(query) == 3

    def test_disconnected_pattern_rejected(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("disconnected")
        query.add_vertex("a")
        query.add_vertex("b")
        with pytest.raises(PlanningError):
            db.plan(query)

    def test_empty_pattern_rejected(self, example_graph):
        db = Database(example_graph)
        with pytest.raises(PlanningError):
            db.plan(QueryGraph("empty"))

    def test_selective_scan_is_chosen_as_start(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("alice")
        query.add_vertex("c", label="Customer")
        query.add_vertex("a", label="Account")
        query.add_edge("c", "a", label="Owns", name="r")
        query.add_predicate(cmp(prop("c", "name"), "=", "Alice"))
        plan = db.plan(query)
        scan = plan.operators[0]
        assert scan.var == "c"
        assert "Alice" in scan.predicate.describe()

    def test_cyclic_query_uses_multiway_intersection(self, labelled_graph):
        db = Database(labelled_graph)
        query = QueryGraph("triangle")
        for name in ("a", "b", "c"):
            query.add_vertex(name)
        query.add_edge("a", "b", label="EL0", name="e0")
        query.add_edge("b", "c", label="EL0", name="e1")
        query.add_edge("a", "c", label="EL0", name="e2")
        plan = db.plan(query)
        assert any(len(getattr(op, "legs", ())) >= 2 for op in plan.operators)

    def test_edge_labels_become_partition_key_values(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("wires")
        query.add_vertex("a", label="Account")
        query.add_vertex("b", label="Account")
        query.add_edge("a", "b", label="Wire", name="e0")
        plan = db.plan(query)
        assert "keys=(Wire)" in plan.describe()

    def test_estimated_cost_monotone_in_query_size(self, labelled_graph):
        db = Database(labelled_graph)
        small = QueryGraph("path2")
        for name in ("a", "b"):
            small.add_vertex(name)
        small.add_edge("a", "b", name="e0")
        large = QueryGraph("path4")
        for name in ("a", "b", "c", "d"):
            large.add_vertex(name)
        large.add_edge("a", "b", name="e0")
        large.add_edge("b", "c", name="e1")
        large.add_edge("c", "d", name="e2")
        assert db.plan(large).estimated_cost >= db.plan(small).estimated_cost

    def test_final_plan_binds_every_query_vertex(self, labelled_graph):
        db = Database(labelled_graph)
        query = QueryGraph("star")
        for name in ("a", "b", "c", "d"):
            query.add_vertex(name)
        query.add_edge("a", "b", name="e0")
        query.add_edge("a", "c", name="e1")
        query.add_edge("d", "a", name="e2")
        (match,) = db.collect(db.plan(query), limit=1)
        assert {"a", "b", "c", "d"} <= set(match)

    def test_label_conjunct_that_cannot_fail_is_dropped(self, social_graph):
        """Every vertex of the follower graph is a ``User``: testing the
        neighbour's label would cost one predicate per fetched entry to
        learn nothing, and keeps the extension off the offsets-only count."""
        db = Database(social_graph)
        query = QueryGraph("one_hop")
        query.add_vertex("a", label="User")
        query.add_vertex("b", label="User")
        query.add_edge("a", "b", label="Follows", name="e1")
        plan = db.plan(query)
        assert "label" not in plan.describe()
        assert plan.operators[1].legs[0].is_unfiltered
        result = db.run(query, factorized=True)
        assert result.count == NaiveMatcher(social_graph).count(query)
        assert result.stats.predicate_evaluations == 0
        assert result.stats.list_entries_fetched == result.count

    def test_label_conjunct_that_can_fail_is_kept(self, labelled_graph):
        db = Database(labelled_graph)
        query = QueryGraph("one_hop")
        query.add_vertex("a", label="VL0")
        query.add_vertex("b", label="VL1")
        query.add_edge("a", "b", label="EL0", name="e0")
        plan = db.plan(query)
        assert "label = 'VL" in plan.operators[1].describe()
        assert db.count(query) == NaiveMatcher(labelled_graph).count(query)


class TestCostModel:
    def test_equality_selectivities(self, financial_graph):
        db = Database(financial_graph)
        query = QueryGraph("q")
        query.add_vertex("a", label="Account")
        model = CostModel(db.store, query)
        city_sel = model.conjunct_selectivity(cmp(prop("a", "city"), "=", "city0"))
        acc_sel = model.conjunct_selectivity(cmp(prop("a", "acc"), "=", "CQ"))
        assert city_sel < acc_sel <= 0.5
        id_sel = model.conjunct_selectivity(cmp(prop("a", "ID"), "=", 3))
        assert id_sel == pytest.approx(1.0 / financial_graph.num_vertices)

    def test_range_selectivity_for_id(self, financial_graph):
        db = Database(financial_graph)
        query = QueryGraph("q")
        query.add_vertex("a", label="Account")
        model = CostModel(db.store, query)
        sel = model.conjunct_selectivity(
            cmp(prop("a", "ID"), "<", financial_graph.num_vertices // 2)
        )
        assert 0.3 < sel <= 0.6

    def test_cross_variable_equality_selectivity(self, financial_graph):
        db = Database(financial_graph)
        query = QueryGraph("q")
        query.add_vertex("a", label="Account")
        query.add_vertex("b", label="Account")
        query.add_edge("a", "b", name="e0")
        model = CostModel(db.store, query)
        sel = model.conjunct_selectivity(cmp(prop("a", "city"), "=", prop("b", "city")))
        num_cities = financial_graph.schema.vertex_property("city").num_categories
        assert sel == pytest.approx(1.0 / num_cities)

    def test_scan_cardinality_uses_labels(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("q")
        query.add_vertex("c", label="Customer")
        model = CostModel(db.store, query)
        assert model.scan_cardinality("c", []) == pytest.approx(3.0)


def _random_path_query(num_vertices, labels, directions):
    query = QueryGraph(f"path{num_vertices}")
    for position in range(num_vertices):
        query.add_vertex(f"v{position}", label=labels[position])
    for position in range(num_vertices - 1):
        src, dst = f"v{position}", f"v{position + 1}"
        if directions[position]:
            src, dst = dst, src
        query.add_edge(src, dst, name=f"e{position}")
    return query


class TestRandomEquivalence:
    """Optimizer + executor agree with the oracle on random path/cycle patterns."""

    @settings(max_examples=15, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=4),
        label_seed=st.integers(min_value=0, max_value=2),
        directions=st.lists(st.booleans(), min_size=3, max_size=3),
        graph_seed=st.integers(min_value=0, max_value=3),
        close_cycle=st.booleans(),
    )
    def test_counts_match_oracle(
        self, num_vertices, label_seed, directions, graph_seed, close_cycle
    ):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=40,
                num_edges=160,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.2,
                seed=graph_seed,
            )
        )
        labels = [
            None if (label_seed + i) % 3 == 0 else f"VL{(label_seed + i) % 2}"
            for i in range(num_vertices)
        ]
        query = _random_path_query(num_vertices, labels, directions)
        if close_cycle and num_vertices >= 3:
            query.add_edge(f"v{num_vertices - 1}", "v0", name="e_close")
        db = Database(graph)
        oracle = NaiveMatcher(graph)
        assert db.count(query) == oracle.count(query)
