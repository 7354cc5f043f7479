"""Tests for the predicate AST: evaluation, renaming, subsumption."""

import numpy as np
import pytest

from repro.errors import QueryParseError
from repro.predicates import (
    CompareOp,
    Comparison,
    Constant,
    Predicate,
    PropertyRef,
    cmp,
    comparison_subsumes,
    const,
    predicate_subsumes,
    prop,
    residual_conjuncts,
)


class TestComparisonBasics:
    def test_cmp_builder_and_describe(self):
        comparison = cmp(prop("a", "amt"), ">", 10)
        assert comparison.op is CompareOp.GT
        assert "a.amt > 10" in comparison.describe()

    def test_unknown_operator_raises(self):
        with pytest.raises(QueryParseError):
            cmp(prop("a", "amt"), "~", 10)

    def test_flipped_operator(self):
        assert CompareOp.LT.flipped is CompareOp.GT
        assert CompareOp.EQ.flipped is CompareOp.EQ

    def test_normalized_moves_reference_left(self):
        comparison = Comparison(const(5), CompareOp.LT, prop("a", "amt"))
        normalized = comparison.normalized()
        assert isinstance(normalized.left, PropertyRef)
        assert normalized.op is CompareOp.GT

    def test_normalized_orders_cross_variable_refs(self):
        first = cmp(prop("e2", "amt"), "<", prop("e1", "amt"))
        second = cmp(prop("e1", "amt"), ">", prop("e2", "amt"))
        assert first.normalized() == second.normalized()

    def test_normalized_cross_variable_with_offset(self):
        # e2.amt < e1.amt + 5   <=>   e1.amt > e2.amt - 5
        first = cmp(prop("e2", "amt"), "<", prop("e1", "amt"), offset=5.0)
        flipped = first.normalized()
        assert flipped.left == prop("e1", "amt")
        assert flipped.op is CompareOp.GT
        assert flipped.offset == -5.0

    def test_renamed(self):
        comparison = cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))
        renamed = comparison.renamed({"eadj": "edge", "eb": "bound_edge"})
        assert renamed.variables() == {"edge", "bound_edge"}

    def test_variables(self):
        cross = cmp(prop("a", "city"), "=", prop("b", "city"))
        assert cross.variables() == {"a", "b"}
        constant = cmp(prop("a", "city"), "=", "SF")
        assert constant.variables() == {"a"}


class TestEvaluation:
    def test_scalar_evaluation_on_graph(self, example_graph):
        alice = None
        for vertex in range(example_graph.num_vertices):
            if example_graph.vertex_props.value(vertex, "name") == "Alice":
                alice = vertex
        predicate = Predicate.of(cmp(prop("c", "name"), "=", "Alice"))
        assert predicate.evaluate(example_graph, {"c": ("vertex", alice)})
        other = (alice + 1) % example_graph.num_vertices
        assert not predicate.evaluate(example_graph, {"c": ("vertex", other)})

    def test_cross_variable_evaluation(self, example_graph):
        predicate = Predicate.of(cmp(prop("e1", "date"), "<", prop("e2", "date")))
        transfers = [
            e
            for e in range(example_graph.num_edges)
            if example_graph.edge_label_name(e) in ("Wire", "DirDeposit")
        ]
        early, late = transfers[0], transfers[-1]
        binding = {"e1": ("edge", early), "e2": ("edge", late)}
        assert predicate.evaluate(example_graph, binding)
        binding = {"e1": ("edge", late), "e2": ("edge", early)}
        assert not predicate.evaluate(example_graph, binding)

    def test_offset_evaluation(self, example_graph):
        transfers = [
            e
            for e in range(example_graph.num_edges)
            if example_graph.edge_label_name(e) in ("Wire", "DirDeposit")
        ]
        amounts = {e: example_graph.edge_property(e, "amt") for e in transfers}
        e_small = min(amounts, key=amounts.get)
        e_big = max(amounts, key=amounts.get)
        # big < small + offset holds only for a large enough offset.
        small_gap = cmp(prop("a", "amt"), "<", prop("b", "amt"), offset=1.0)
        big_gap = cmp(prop("a", "amt"), "<", prop("b", "amt"), offset=1e6)
        binding = {"a": ("edge", e_big), "b": ("edge", e_small)}
        assert not Predicate.of(small_gap).evaluate(example_graph, binding)
        assert Predicate.of(big_gap).evaluate(example_graph, binding)

    def test_null_comparisons_are_false(self, example_graph):
        # Owns edges have no amt property.
        owns = [
            e
            for e in range(example_graph.num_edges)
            if example_graph.edge_label_name(e) == "Owns"
        ]
        predicate = Predicate.of(cmp(prop("e", "amt"), ">", 0))
        assert not predicate.evaluate(example_graph, {"e": ("edge", owns[0])})

    def test_bulk_evaluation_matches_scalar(self, example_graph):
        predicate = Predicate.of(
            cmp(prop("e", "amt"), ">", 50), cmp(prop("e", "currency"), "=", "USD")
        )
        edges = np.arange(example_graph.num_edges)
        mask = predicate.evaluate_bulk(example_graph, {}, {"e": ("edge", edges)})
        for edge in range(example_graph.num_edges):
            scalar = predicate.evaluate(example_graph, {"e": ("edge", edge)})
            assert bool(mask[edge]) == scalar

    def test_bulk_with_fixed_variable(self, example_graph):
        predicate = Predicate.of(cmp(prop("v", "city"), "=", prop("w", "city")))
        vertices = np.arange(5)  # accounts v1..v5 are ids 0..4
        mask = predicate.evaluate_bulk(
            example_graph, {"w": ("vertex", 0)}, {"v": ("vertex", vertices)}
        )
        for vertex in range(5):
            scalar = predicate.evaluate(
                example_graph, {"v": ("vertex", vertex), "w": ("vertex", 0)}
            )
            assert bool(mask[vertex]) == scalar

    def test_bulk_requires_an_array(self, example_graph):
        with pytest.raises(QueryParseError):
            Predicate.true().evaluate_bulk(example_graph, {}, {})

    def test_label_comparison_with_name(self, example_graph):
        predicate = Predicate.of(cmp(prop("v", "label"), "=", "Customer"))
        vertices = np.arange(example_graph.num_vertices)
        mask = predicate.evaluate_bulk(example_graph, {}, {"v": ("vertex", vertices)})
        assert mask.sum() == 3


class TestPredicateStructure:
    def test_true_predicate(self):
        assert Predicate.true().is_true
        assert Predicate.true().describe() == "TRUE"

    def test_and_also(self):
        p = Predicate.of(cmp(prop("a", "x"), ">", 1)).and_also(
            Predicate.of(cmp(prop("b", "y"), "<", 2))
        )
        assert len(p.conjuncts()) == 2
        assert p.variables() == {"a", "b"}

    def test_without(self):
        c1 = cmp(prop("a", "x"), ">", 1)
        c2 = cmp(prop("b", "y"), "<", 2)
        p = Predicate.of(c1, c2)
        assert p.without([c1]).conjuncts() == [c2]

    def test_equality_and_hash(self):
        p1 = Predicate.of(cmp(prop("a", "x"), ">", 1))
        p2 = Predicate.of(cmp(prop("a", "x"), ">", 1))
        assert p1 == p2
        assert hash(p1) == hash(p2)


class TestSubsumption:
    def test_exact_match_subsumes(self):
        a = cmp(prop("e", "currency"), "=", "USD")
        b = cmp(prop("e", "currency"), "=", "USD")
        assert comparison_subsumes(a, b)

    def test_range_subsumption(self):
        index_comp = cmp(prop("e", "amt"), ">", 10000)
        query_comp = cmp(prop("e", "amt"), ">", 15000)
        assert comparison_subsumes(index_comp, query_comp)
        assert not comparison_subsumes(query_comp, index_comp)

    def test_range_subsumption_less_than(self):
        index_comp = cmp(prop("e", "amt"), "<", 100)
        query_comp = cmp(prop("e", "amt"), "<", 50)
        assert comparison_subsumes(index_comp, query_comp)
        assert not comparison_subsumes(query_comp, index_comp)

    def test_equality_implies_range(self):
        index_comp = cmp(prop("e", "amt"), ">", 10)
        query_comp = cmp(prop("e", "amt"), "=", 50)
        assert comparison_subsumes(index_comp, query_comp)
        query_below = cmp(prop("e", "amt"), "=", 5)
        assert not comparison_subsumes(index_comp, query_below)

    def test_boundary_strictness(self):
        ge = cmp(prop("e", "amt"), ">=", 10)
        gt = cmp(prop("e", "amt"), ">", 10)
        assert comparison_subsumes(ge, gt)
        assert not comparison_subsumes(gt, ge)

    def test_different_properties_do_not_subsume(self):
        a = cmp(prop("e", "amt"), ">", 10)
        b = cmp(prop("e", "date"), ">", 10)
        assert not comparison_subsumes(a, b)

    def test_cross_variable_subsumption_via_normalization(self):
        view = cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))
        query = cmp(prop("eb", "amt"), ">", prop("eadj", "amt"))
        assert comparison_subsumes(view, query)

    def test_predicate_subsumes_requires_all_index_conjuncts(self):
        index_pred = Predicate.of(
            cmp(prop("e", "currency"), "=", "USD"), cmp(prop("e", "amt"), ">", 100)
        )
        query_pred = Predicate.of(
            cmp(prop("e", "currency"), "=", "USD"),
            cmp(prop("e", "amt"), ">", 500),
            cmp(prop("e", "date"), "<", 10),
        )
        assert predicate_subsumes(index_pred, query_pred)
        weaker_query = Predicate.of(cmp(prop("e", "currency"), "=", "USD"))
        assert not predicate_subsumes(index_pred, weaker_query)

    def test_empty_index_predicate_subsumes_everything(self):
        assert predicate_subsumes(Predicate.true(), Predicate.of(cmp(prop("a", "x"), ">", 1)))

    def test_residual_conjuncts(self):
        index_pred = Predicate.of(cmp(prop("e", "amt"), ">", 100))
        query_pred = Predicate.of(
            cmp(prop("e", "amt"), ">", 500), cmp(prop("e", "date"), "<", 10)
        )
        residual = residual_conjuncts(index_pred, query_pred)
        assert len(residual) == 2
        exact_query = Predicate.of(cmp(prop("e", "amt"), ">", 100))
        assert residual_conjuncts(index_pred, exact_query) == []
