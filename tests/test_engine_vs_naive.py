"""End-to-end equivalence tests: optimizer + executor versus the naive oracle.

Every workload query of the paper (SQ, MR, MF families) is run through the
full stack — DP optimizer with index selection, then the batch executor —
under several index configurations, and the match counts are compared with
the naive backtracking matcher.  Counts are a complete check here because the
matching semantics (homomorphisms over vertices and edges) makes the number
of matches sensitive to any lost or duplicated binding.
"""

import numpy as np
import pytest

from repro import Database, Direction, IndexConfig
from repro.bench.harness import vpt_view_and_config
from repro.graph.builder import GraphBuilder
from repro.graph.types import PropertyType
from repro.predicates import cmp, prop
from repro.query.naive import NaiveMatcher
from repro.query.pattern import QueryGraph
from repro.workloads import fraud, labelled_subgraph, magicrecs


# ----------------------------------------------------------------------
# labelled subgraph queries (Table II workload)
# ----------------------------------------------------------------------
SQ_SUBSET = ["SQ1", "SQ3", "SQ4", "SQ6", "SQ7", "SQ11"]


@pytest.fixture(scope="module")
def sq_queries():
    return labelled_subgraph.build_workload(3, 2, names=SQ_SUBSET)


@pytest.fixture(scope="module")
def sq_oracle_counts(labelled_graph, sq_queries):
    oracle = NaiveMatcher(labelled_graph)
    return {name: oracle.count(query) for name, query in sq_queries.items()}


class TestLabelledSubgraphQueries:
    @pytest.mark.parametrize("config_name", ["D", "Ds", "Dp"])
    def test_counts_match_oracle_under_all_primary_configs(
        self, labelled_graph, sq_queries, sq_oracle_counts, config_name
    ):
        config = {
            "D": IndexConfig.default(),
            "Ds": IndexConfig.sorted_by_nbr_label(),
            "Dp": IndexConfig.partitioned_by_nbr_label(),
        }[config_name]
        db = Database(labelled_graph, primary_config=config)
        for name, query in sq_queries.items():
            assert db.count(query) == sq_oracle_counts[name], name

    def test_dp_plans_use_nbr_label_partition(self, labelled_graph, sq_queries):
        db = Database(labelled_graph, primary_config=IndexConfig.partitioned_by_nbr_label())
        plan = db.plan(sq_queries["SQ4"])
        # With Dp every leg can address (edge label, nbr label) sub-lists, so
        # there must be no residual label filters left in the plan text.
        assert "label" not in plan.describe().lower() or "filter" not in plan.describe().lower()


# ----------------------------------------------------------------------
# MagicRecs queries (Table III workload)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mr_queries(social_graph):
    return magicrecs.build_workload(social_graph, selectivity=0.1)


@pytest.fixture(scope="module")
def mr_oracle_counts(social_graph, mr_queries):
    oracle = NaiveMatcher(social_graph)
    return {name: oracle.count(query) for name, query in mr_queries.items()}


class TestMagicRecsQueries:
    def test_counts_under_default_config(self, social_graph, mr_queries, mr_oracle_counts):
        db = Database(social_graph)
        for name, query in mr_queries.items():
            assert db.count(query) == mr_oracle_counts[name], name

    def test_counts_with_vpt_index(self, social_graph, mr_queries, mr_oracle_counts):
        db = Database(social_graph)
        view, config = vpt_view_and_config()
        db.create_vertex_index(view, directions=(Direction.FORWARD,), config=config, name="VPt")
        for name, query in mr_queries.items():
            assert db.count(query) == mr_oracle_counts[name], name

    def test_vpt_plan_uses_secondary_index_and_sorted_filter(
        self, social_graph, mr_queries
    ):
        db = Database(social_graph)
        view, config = vpt_view_and_config()
        db.create_vertex_index(view, directions=(Direction.FORWARD,), config=config, name="VPt")
        plan = db.plan(mr_queries["MR1"])
        assert "via VPt[" in plan.describe()
        assert "sorted eadj.time" in plan.describe()

    def test_vpt_reduces_entries_fetched(self, social_graph, mr_queries):
        """The D+VPt benefit: fewer predicate evaluations on the time filter."""
        base = Database(social_graph)
        tuned = Database(social_graph)
        view, config = vpt_view_and_config()
        tuned.create_vertex_index(
            view, directions=(Direction.FORWARD,), config=config, name="VPt"
        )
        query = mr_queries["MR1"]
        base_result = base.run(query)
        tuned_result = tuned.run(query)
        assert tuned_result.count == base_result.count
        assert (
            tuned_result.stats.predicate_evaluations
            < base_result.stats.predicate_evaluations
        )


# ----------------------------------------------------------------------
# fraud queries (Table IV workload)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mf_queries(financial_graph):
    return fraud.build_workload(financial_graph, selectivity=0.1)


@pytest.fixture(scope="module")
def mf_oracle_counts(financial_graph, mf_queries):
    oracle = NaiveMatcher(financial_graph)
    return {name: oracle.count(query) for name, query in mf_queries.items()}


def fraud_database(graph, with_vpc=False, with_epc=False, selectivity=0.1):
    db = Database(graph)
    if with_vpc:
        view, config = fraud.vpc_view_and_config()
        db.create_vertex_index(
            view,
            directions=(Direction.FORWARD, Direction.BACKWARD),
            config=config,
            name="VPc",
        )
    if with_epc:
        alpha = fraud.amount_alpha(graph, selectivity)
        view, config = fraud.epc_view_and_config(alpha)
        db.create_edge_index(view, config=config, name="EPc")
    return db


class TestFraudQueries:
    def test_counts_under_default_config(self, financial_graph, mf_queries, mf_oracle_counts):
        db = fraud_database(financial_graph)
        for name, query in mf_queries.items():
            assert db.count(query) == mf_oracle_counts[name], name

    def test_counts_with_vpc(self, financial_graph, mf_queries, mf_oracle_counts):
        db = fraud_database(financial_graph, with_vpc=True)
        for name, query in mf_queries.items():
            assert db.count(query) == mf_oracle_counts[name], name

    def test_counts_with_vpc_and_epc(self, financial_graph, mf_queries, mf_oracle_counts):
        db = fraud_database(financial_graph, with_vpc=True, with_epc=True)
        for name, query in mf_queries.items():
            assert db.count(query) == mf_oracle_counts[name], name

    def test_vpc_enables_multi_extend_plan(self, financial_graph, mf_queries):
        base = fraud_database(financial_graph)
        tuned = fraud_database(financial_graph, with_vpc=True)
        base_plan = base.plan(mf_queries["MF1"])
        tuned_plan = tuned.plan(mf_queries["MF1"])
        assert "MULTI-EXTEND" not in base_plan.describe()
        assert "MULTI-EXTEND" in tuned_plan.describe()
        assert "via VPc-" in tuned_plan.describe()

    def test_epc_used_for_money_flow_path(self, financial_graph, mf_queries):
        tuned = fraud_database(financial_graph, with_vpc=True, with_epc=True)
        plan = tuned.plan(mf_queries["MF5"])
        assert "via EPc[" in plan.describe()

    def test_epc_reduces_intermediate_rows(self, financial_graph, mf_queries):
        base = fraud_database(financial_graph)
        tuned = fraud_database(financial_graph, with_vpc=True, with_epc=True)
        query = mf_queries["MF5"]
        base_result = base.run(query)
        tuned_result = tuned.run(query)
        assert tuned_result.count == base_result.count
        assert (
            tuned_result.stats.intermediate_rows <= base_result.stats.intermediate_rows
        )


# ----------------------------------------------------------------------
# string properties: comparisons involving a null string are False
# ----------------------------------------------------------------------
def string_graph(names, src, dst):
    builder = GraphBuilder()
    builder.declare_edge_property("name", PropertyType.STRING)
    builder.declare_vertex_property("nick", PropertyType.STRING)
    for vertex in range(max(max(src), max(dst)) + 1):
        builder.add_vertex("V", nick=(None, "p", "q")[vertex % 3])
    builder.add_edges(np.asarray(src), np.asarray(dst), "E", properties={"name": names})
    return builder.build()


def two_path(*comparisons):
    query = QueryGraph("two-path")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e1")
    query.add_edge("b", "c", name="e2")
    query.add_predicate(*comparisons)
    return query


class TestStringProperties:
    @pytest.mark.parametrize(
        "names, op",
        [([None, "x"], "<>"), ([None, None], "="), ([None, "x"], "<"), (["x", "x"], "=")],
    )
    def test_a_null_string_never_compares_true(self, names, op):
        graph = string_graph(names, [0, 1], [1, 2])
        query = two_path(cmp(prop("e1", "name"), op, prop("e2", "name")))
        expected = int(None not in names and op == "=")
        assert Database(graph).count(query) == expected
        assert NaiveMatcher(graph).count(query) == expected

    @pytest.mark.parametrize("op", ["=", "<>", "<", ">="])
    def test_engine_matches_oracle_on_a_string_graph(self, op):
        rng = np.random.default_rng(17)
        src = rng.integers(0, 12, 60).tolist()
        dst = rng.integers(0, 12, 60).tolist()
        names = [(None, "ann", "bob", "cy")[i] for i in rng.integers(0, 4, 60)]
        graph = string_graph(names, src, dst)
        for query in (
            two_path(cmp(prop("e1", "name"), op, prop("e2", "name"))),
            two_path(
                cmp(prop("e1", "name"), op, "bob"),
                cmp(prop("b", "nick"), "<>", prop("c", "nick")),
            ),
        ):
            expected = NaiveMatcher(graph).count(query)
            assert Database(graph).count(query) == expected
            assert Database(graph).count(query, factorized=False) == expected
