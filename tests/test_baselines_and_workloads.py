"""Tests for the baseline configurations, the workload queries, the scaled
datasets and the measuring loop of ``benchmarks/paper_tables.py``."""

import pytest

from repro.query.naive import NaiveMatcher
from repro.workloads import fraud, labelled_subgraph, magicrecs
from repro.workloads.datasets import financial_dataset, labelled_dataset, social_dataset


class TestBaselines:
    """Table V's baselines are configuration rows: Neo4j-like keeps edge-label
    partitions in edge-ID order, and TigerGraph-like is D's fixed layout."""

    def test_fixed_engines_answer_queries_correctly(self, labelled_graph, paper_tables):
        query = labelled_subgraph.build_query("SQ1", 3, 2)
        oracle = NaiveMatcher(labelled_graph).count(query)
        for config in (paper_tables.NEO4J_LIKE, paper_tables.D):
            db, _, _ = config.build(labelled_graph)
            assert db.count(query) == oracle

    def test_fixed_configs_differ(self, paper_tables):
        neo4j_like, d = paper_tables.NEO4J_LIKE.primary, paper_tables.D.primary
        assert neo4j_like != d
        assert not neo4j_like.sorted_by_neighbour_id
        assert d.sorted_by_neighbour_id

    def test_describe(self, labelled_graph, paper_tables):
        db, _, _ = paper_tables.NEO4J_LIKE.build(labelled_graph)
        assert paper_tables.NEO4J_LIKE.primary.describe() in db.describe()
        assert db.memory_report().total > 0


class TestSubgraphWorkload:
    def test_query_catalog(self):
        specs = labelled_subgraph.query_specs()
        assert len(specs) == 14
        names = labelled_subgraph.query_names()
        assert "SQ14" not in names
        assert "SQ13" in names
        full = labelled_subgraph.query_names(include_sq14=True)
        assert "SQ14" in full

    def test_sq13_is_a_five_edge_path(self):
        query = labelled_subgraph.build_query("SQ13", 2, 2)
        assert query.num_vertices == 6
        assert query.num_edges == 5

    def test_labels_cycle_through_alphabets(self):
        query = labelled_subgraph.build_query("SQ4", 2, 2)
        vertex_labels = {v.label for v in query.vertices.values()}
        assert vertex_labels <= {"VL0", "VL1"}
        edge_labels = {e.label for e in query.edges.values()}
        assert edge_labels <= {"EL0", "EL1"}

    def test_without_vertex_labels(self):
        query = labelled_subgraph.build_query("SQ4", 2, 2, with_vertex_labels=False)
        assert all(v.label is None for v in query.vertices.values())

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            labelled_subgraph.build_query("SQ99", 2, 2)

    def test_build_workload_subset(self):
        workload = labelled_subgraph.build_workload(2, 2, names=["SQ1", "SQ4"])
        assert set(workload) == {"SQ1", "SQ4"}
        for query in workload.values():
            assert query.is_connected()


class TestMagicRecsWorkload:
    def test_threshold_matches_requested_selectivity(self, social_graph):
        alpha = magicrecs.time_threshold(social_graph, 0.05)
        times = social_graph.edge_props.column("time")
        fraction = (times < alpha).mean()
        assert abs(fraction - 0.05) < 0.02

    def test_queries_have_time_predicates(self, social_graph):
        workload = magicrecs.build_workload(social_graph)
        assert set(workload) == {"MR1", "MR2", "MR3"}
        for name, query in workload.items():
            assert query.is_connected()
            assert any(
                "time" in comparison.describe()
                for comparison in query.predicate.conjuncts()
            ), name

    def test_mr3_shape(self, social_graph):
        query = magicrecs.build_workload(social_graph)["MR3"]
        assert query.num_vertices == 5
        assert query.num_edges == 6


class TestFraudWorkload:
    def test_alpha_scales_with_selectivity(self, financial_graph):
        small = fraud.amount_alpha(financial_graph, 0.01)
        large = fraud.amount_alpha(financial_graph, 0.2)
        assert small < large

    def test_queries_built_and_connected(self, financial_graph):
        workload = fraud.build_workload(financial_graph)
        assert set(workload) == set(fraud.MF_QUERY_NAMES)
        for query in workload.values():
            assert query.is_connected()

    def test_mf5_has_money_flow_chain(self, financial_graph):
        query = fraud.build_workload(financial_graph)["MF5"]
        tracked = query.tracked_edges()
        assert {"e1", "e2", "e3", "e4"} <= tracked

    def test_views(self, financial_graph):
        view, config = fraud.vpc_view_and_config()
        assert view.is_global
        assert config.sort_keys[0].prop == "city"
        eview, econfig = fraud.epc_view_and_config(50)
        assert eview.adjacency.value == "destination-fw"
        assert len(eview.predicate.conjuncts()) == 3


class TestDatasetsAndRunner:
    def test_scaled_datasets_build(self):
        graph = labelled_dataset("brk", 2, 2, scale=0.05)
        assert graph.num_vertices > 0
        social = social_dataset("brk", scale=0.05)
        assert social.schema.has_edge_property("time")
        financial = financial_dataset("brk", scale=0.05)
        assert financial.schema.has_edge_property("amt")

    def _table(self, paper_tables, configs):
        return paper_tables.QueryTable(
            "test", "labelled", "brk", configs, paper={}, paper_memory={},
            labels=(3, 2), queries=("SQ1", "SQ4"),
        )

    def test_workload_runner_collects_measurements(self, paper_tables):
        table = self._table(paper_tables, (paper_tables.D,))
        measured = paper_tables.measure_queries(table, scale=0.05)
        assert measured["dataset"] == "brk"
        assert {row["query"] for row in measured["rows"]} == {"SQ1", "SQ4"}
        assert all(row["config"] == "D" and row["ms"] > 0 for row in measured["rows"])
        (config,) = measured["configs"]
        assert config["config"] == "D"
        assert config["memory_bytes"] > 0
        assert config["setup_s"] > 0

    def test_speedup_and_memory_ratio(self, paper_tables):
        twin = paper_tables.Config("B")
        table = self._table(paper_tables, (paper_tables.D, twin))
        measured = paper_tables.measure_queries(table, scale=0.05)
        rows = [row for row in measured["rows"] if row["config"] == "B"]
        assert [row["query"] for row in rows] == ["SQ1", "SQ4"]
        assert all(row["ratio_over_d"] > 0 and row["verdict"] == "n/a" for row in rows)
        (config,) = [row for row in measured["configs"] if row["config"] == "B"]
        assert config["memory_ratio_over_d"] == pytest.approx(1.0)
