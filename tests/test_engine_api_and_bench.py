"""Tests for the Database facade, memory reporting, and bench helpers."""

from repro import Database, Direction, IndexConfig
from repro.bench.harness import vpt_view_and_config
from repro.index.views import OneHopView
from repro.workloads import fraud
from repro.query.pattern import QueryGraph
from repro.predicates import cmp, prop


class TestDatabaseFacade:
    def test_graph_and_primary_accessors(self, example_graph):
        db = Database(example_graph)
        assert db.graph is example_graph
        assert db.primary_index.config == IndexConfig.default()
        assert "PrimaryIndex" in db.describe() or "primary" in db.describe()

    def test_run_accepts_query_or_plan(self, example_graph):
        db = Database(example_graph)
        query = QueryGraph("q")
        query.add_vertex("a", label="Account")
        query.add_vertex("b", label="Account")
        query.add_edge("a", "b", label="Wire", name="e")
        plan = db.plan(query)
        assert db.run(query).count == db.run(plan).count
        result = db.run(query, materialize=True)
        assert len(result.matches) == result.count
        assert len(result) == result.count

    def test_memory_report_covers_secondary_indexes(self, example_graph):
        db = Database(example_graph)
        before = db.memory_report().total
        db.create_vertex_index(
            OneHopView("AllEdges"), directions=(Direction.FORWARD,), name="AllEdges"
        )
        after = db.memory_report().total
        assert after > before
        names = {b.name for b in db.memory_report().breakdowns}
        assert "AllEdges" in names

    def test_secondary_memory_overhead_is_small(self, financial_graph):
        """The Table III/IV space claim at test scale: shared-level secondary
        vertex indexes cost only a few percent of the primary indexes."""
        db = Database(financial_graph)
        base = db.memory_report().total
        view, config = fraud.vpc_view_and_config()
        db.create_vertex_index(
            view,
            directions=(Direction.FORWARD, Direction.BACKWARD),
            config=config,
            name="VPc",
        )
        ratio = db.memory_report().total / base
        assert 1.0 < ratio < 1.35

    def test_executor_and_optimizer_factories(self, example_graph):
        db = Database(example_graph)
        assert db.executor().graph is example_graph
        assert db.optimizer().store is db.store
        assert db.maintainer().store is db.store


class TestBenchHarness:
    """The configurations ``benchmarks/paper_tables.py`` measures."""

    def test_primary_configs(self, paper_tables):
        assert paper_tables.D.primary == IndexConfig.default()
        assert paper_tables.DS.primary == IndexConfig.sorted_by_nbr_label()
        assert paper_tables.DP.primary == IndexConfig.partitioned_by_nbr_label()

    def test_database_with_primary_config(self, labelled_graph, paper_tables):
        db, indexed_edges, setup_s = paper_tables.DP.build(labelled_graph)
        assert db.primary_index.config == IndexConfig.partitioned_by_nbr_label()
        assert indexed_edges == labelled_graph.num_edges
        assert setup_s > 0
        assert db.memory_report().total > 0

    def test_magicrecs_configs(self, social_graph, paper_tables):
        (table,) = [t for t in paper_tables.QUERY_TABLES if t.name == "III"]
        assert [config.name for config in table.configs] == ["D", "D+VPt"]
        db, indexed_edges, _ = paper_tables.D_VPT.build(social_graph)
        # VPt is a global view: it indexes every edge once more.
        assert indexed_edges == 2 * social_graph.num_edges
        assert "VPt" in db.store.secondary_index_names()

    def test_fraud_configs(self, financial_graph, paper_tables):
        (table,) = [t for t in paper_tables.QUERY_TABLES if t.name == "IV"]
        assert [config.name for config in table.configs] == ["D", "D+VPc", "D+VPc+EPc"]
        _, vpc_edges, _ = paper_tables.D_VPC.build(financial_graph)
        epc_db, epc_edges, _ = paper_tables.D_VPC_EPC.build(financial_graph)
        assert "EPc" in epc_db.store.secondary_index_names()
        assert epc_edges > vpc_edges

    def test_maintenance_configs(self, social_graph, paper_tables):
        configs = paper_tables.MAINTENANCE_CONFIGS
        assert [config.name for config in configs] == ["Ds", "Dp", "Dps", "Dps+VPt", "Dps+EPt"]
        db, _, _ = configs[-1].build(social_graph)
        assert set(db.store.secondary_index_names()) == {"VPt", "EPt"}
        db, _, _ = configs[0].build(social_graph)
        assert not db.store.secondary_index_names()

    def test_vpt_view_and_config(self):
        view, config = vpt_view_and_config()
        assert view.is_global
        assert config.sort_keys[0].prop == "time"


class TestReporting:
    def test_speedup_and_ratio(self, paper_tables):
        # A speedup matches when it falls on the paper's side of par.
        assert paper_tables.speedup_verdict(2.0, 1.65) == "match"
        assert paper_tables.speedup_verdict(1.0, 2.6) == "miss"
        assert paper_tables.speedup_verdict(0.5, 2.0) == "miss"
        assert paper_tables.speedup_verdict(1.05, 0.95) == "match"
        assert paper_tables.speedup_verdict(2.0, None) == "n/a"
        # A memory ratio matches when it is within PAR of the paper's.
        assert paper_tables.memory_verdict(1.04, 1.1) == "match"
        assert paper_tables.memory_verdict(1.5, 1.1) == "miss"
        assert paper_tables.memory_verdict(1.0, None) == "n/a"
