"""Tests for GraphBuilder, PropertyGraph and the property store."""

import numpy as np
import pytest

from repro.errors import GraphBuildError, SchemaError
from repro.graph import GraphBuilder, PropertyType
from repro.graph.generators import running_example_graph
from repro.graph.property_store import PropertyStore
from repro.graph.schema import GraphSchema


class TestGraphBuilder:
    def test_build_small_graph(self):
        builder = GraphBuilder()
        v1 = builder.add_vertex("Account", acc="SV", city="SF")
        v2 = builder.add_vertex("Account", acc="CQ", city="SF")
        edge = builder.add_edge(v1, v2, "Wire", amt=50, currency="USD")
        graph = builder.build()
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert edge == 0
        assert (graph.edge_src[0], graph.edge_dst[0]) == (v1, v2)
        assert graph.edge_label_name(0) == "Wire"
        assert graph.vertex_property(0, "city") == "SF"
        assert graph.edge_property(0, "amt") == 50
        assert graph.edge_property(0, "currency") == "USD"

    def test_vertex_keys_are_resolvable_and_unique(self):
        builder = GraphBuilder()
        builder.add_vertex("V", key="x")
        assert builder.vertex_id("x") == 0
        with pytest.raises(GraphBuildError):
            builder.add_vertex("V", key="x")
        with pytest.raises(GraphBuildError):
            builder.vertex_id("missing")

    def test_edge_endpoint_validation(self):
        builder = GraphBuilder()
        builder.add_vertex("V")
        with pytest.raises(GraphBuildError):
            builder.add_edge(0, 5, "E")

    def test_build_twice_raises(self):
        builder = GraphBuilder()
        builder.add_vertex("V")
        builder.build()
        with pytest.raises(GraphBuildError):
            builder.add_vertex("V")
        with pytest.raises(GraphBuildError):
            builder.build()

    def test_missing_property_values_are_null(self):
        builder = GraphBuilder()
        builder.add_vertex("V", age=10)
        builder.add_vertex("V")
        graph = builder.build()
        assert graph.vertex_property(0, "age") == 10
        assert graph.vertex_property(1, "age") is None

    def test_string_properties_default_to_categorical(self):
        builder = GraphBuilder()
        builder.add_vertex("V", city="SF")
        builder.add_vertex("V", city="LA")
        graph = builder.build()
        prop = graph.schema.vertex_property("city")
        assert prop.ptype is PropertyType.CATEGORICAL
        assert set(prop.categories) == {"SF", "LA"}

    def test_declared_property_type_is_respected(self):
        builder = GraphBuilder()
        builder.declare_vertex_property("score", PropertyType.FLOAT)
        builder.add_vertex("V", score=1)
        graph = builder.build()
        assert graph.schema.vertex_property("score").ptype is PropertyType.FLOAT
        assert graph.vertex_property(0, "score") == pytest.approx(1.0)


class TestRunningExample:
    def test_sizes_match_figure_1(self):
        graph = running_example_graph()
        assert graph.num_vertices == 8
        # 5 Owns edges + 20 transfers.
        assert graph.num_edges == 25
        assert graph.schema.num_vertex_labels == 2
        assert graph.schema.num_edge_labels == 3

    def test_dates_follow_transfer_ordering(self):
        graph = running_example_graph()
        transfers = [
            e
            for e in range(graph.num_edges)
            if graph.edge_label_name(e) in ("Wire", "DirDeposit")
        ]
        dates = [graph.edge_property(e, "date") for e in transfers]
        assert dates == sorted(dates)

    def test_degree_helpers(self):
        graph = running_example_graph()
        assert graph.out_degree().sum() == graph.num_edges
        assert graph.in_degree().sum() == graph.num_edges
        assert graph.average_degree == pytest.approx(graph.num_edges / graph.num_vertices)

    def test_label_selection(self):
        graph = running_example_graph()
        accounts = graph.vertices_with_label("Account")
        customers = graph.vertices_with_label("Customer")
        assert len(accounts) == 5
        assert len(customers) == 3
        wires = np.nonzero(graph.edge_labels == graph.schema.edge_label_code("Wire"))[0]
        assert len(wires) > 0
        assert all(graph.edge_label_name(int(e)) == "Wire" for e in wires)


class TestPropertyStore:
    def test_set_column_and_vectorized_read(self):
        schema = GraphSchema()
        schema.add_vertex_property("age", PropertyType.INT)
        store = PropertyStore(schema, "vertex")
        store.set_count(3)
        store.set_column("age", [10, None, 30])
        values = store.values_for(np.array([0, 1, 2]), "age")
        assert values[0] == 10 and values[2] == 30
        assert store.value(1, "age") is None

    def test_unknown_kind_raises(self):
        with pytest.raises(SchemaError):
            PropertyStore(GraphSchema(), "thing")

    def test_column_length_mismatch_raises(self):
        schema = GraphSchema()
        schema.add_vertex_property("age", PropertyType.INT)
        store = PropertyStore(schema, "vertex")
        store.set_count(2)
        with pytest.raises(SchemaError):
            store.set_column("age", [1, 2, 3])

    def test_cannot_shrink(self):
        schema = GraphSchema()
        store = PropertyStore(schema, "vertex")
        store.set_count(5)
        with pytest.raises(SchemaError):
            store.set_count(2)

    def test_categorical_round_trip(self):
        schema = GraphSchema()
        schema.add_edge_property(
            "currency", PropertyType.CATEGORICAL, categories=["USD", "EUR"]
        )
        store = PropertyStore(schema, "edge")
        store.set_count(2)
        store.set_value(0, "currency", "EUR")
        store.set_value(1, "currency", None)
        assert store.value(0, "currency") == "EUR"
        assert store.value(1, "currency") is None
        assert store.raw_value(0, "currency") == 1

    def test_nbytes_positive_after_population(self):
        schema = GraphSchema()
        schema.add_vertex_property("age", PropertyType.INT)
        store = PropertyStore(schema, "vertex")
        store.set_count(10)
        store.set_column("age", list(range(10)))
        assert store.nbytes() > 0
