"""Tests for the INDEX STORE: registration, access-path matching, subsumption."""

import pytest

from repro.errors import IndexConfigError
from repro.graph import Direction, EdgeAdjacencyType
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.index_store import IndexStore
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


@pytest.fixture()
def store(example_graph):
    return IndexStore(example_graph, PrimaryIndex(example_graph))


def register_usd_view(store, graph, threshold=50):
    view = OneHopView(
        name="BigUsd",
        predicate=Predicate.of(
            cmp(prop("eadj", "currency"), "=", "USD"),
            cmp(prop("eadj", "amt"), ">", threshold),
        ),
    )
    index = VertexPartitionedIndex(
        graph, view, Direction.FORWARD, IndexConfig.default(), store.primary.forward
    )
    store.register_vertex_index(index)
    return index


class TestRegistration:
    def test_register_and_drop(self, store, example_graph):
        index = register_usd_view(store, example_graph)
        assert index.name in store.secondary_index_names()
        with pytest.raises(IndexConfigError):
            store.register_vertex_index(index)
        store.drop_index(index.name)
        assert index.name not in store.secondary_index_names()
        with pytest.raises(IndexConfigError):
            store.drop_index("missing")

    def test_memory_breakdowns_cover_all_indexes(self, store, example_graph):
        register_usd_view(store, example_graph)
        names = {b.name for b in store.memory_breakdowns()}
        assert {"primary-fw", "primary-bw", "BigUsd-fw"} <= names
        assert store.nbytes() > 0


class TestVertexAccessPaths:
    def test_primary_always_usable(self, store):
        paths = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())
        assert len(paths) == 1
        assert paths[0].kind == "primary"

    def test_partition_values_from_label_equality(self, store):
        predicate = Predicate.of(cmp(prop("edge", "label"), "=", "Wire"))
        paths = store.find_vertex_access_paths(Direction.FORWARD, predicate)
        primary = paths[0]
        assert primary.key_values == ("Wire",)
        assert primary.residual == ()

    def test_secondary_matching_requires_subsumption(self, store, example_graph):
        register_usd_view(store, example_graph, threshold=50)
        # Query predicate tighter than the view: index usable, residual kept.
        tight = Predicate.of(
            cmp(prop("edge", "currency"), "=", "USD"),
            cmp(prop("edge", "amt"), ">", 100),
        )
        paths = store.find_vertex_access_paths(Direction.FORWARD, tight)
        names = {p.name for p in paths}
        assert "BigUsd-fw" in names
        secondary = next(p for p in paths if p.name == "BigUsd-fw")
        assert any("amt" in c.describe() for c in secondary.residual)

        # Query predicate weaker than the view: index unusable.
        weak = Predicate.of(cmp(prop("edge", "currency"), "=", "USD"))
        paths = store.find_vertex_access_paths(Direction.FORWARD, weak)
        assert "BigUsd-fw" not in {p.name for p in paths}

    def test_direction_mismatch_excludes_secondary(self, store, example_graph):
        register_usd_view(store, example_graph)
        paths = store.find_vertex_access_paths(
            Direction.BACKWARD,
            Predicate.of(
                cmp(prop("edge", "currency"), "=", "USD"),
                cmp(prop("edge", "amt"), ">", 100),
            ),
        )
        assert all(p.name != "BigUsd-fw" for p in paths)

    def test_estimated_list_size_shrinks_with_partition_values(self, store):
        no_keys = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]
        with_label = store.find_vertex_access_paths(
            Direction.FORWARD, Predicate.of(cmp(prop("edge", "label"), "=", "Wire"))
        )[0]
        assert with_label.estimated_list_size < no_keys.estimated_list_size


class TestEdgeAccessPaths:
    def register_money_flow(self, store, graph, adjacency=EdgeAdjacencyType.DST_FW):
        view = TwoHopView(
            "MoneyFlow",
            adjacency,
            Predicate.of(
                cmp(prop("eb", "date"), "<", prop("eadj", "date")),
                cmp(prop("eadj", "amt"), "<", prop("eb", "amt")),
            ),
        )
        index = EdgePartitionedIndex(graph, view, IndexConfig.flat(), store.primary)
        store.register_edge_index(index)
        return index

    def query_predicate(self):
        return Predicate.of(
            cmp(prop("bound_edge", "date"), "<", prop("edge", "date")),
            cmp(prop("bound_edge", "amt"), ">", prop("edge", "amt")),
        )

    def test_matching_adjacency_and_predicate(self, store, example_graph):
        self.register_money_flow(store, example_graph)
        paths = store.find_edge_access_paths(
            EdgeAdjacencyType.DST_FW, self.query_predicate()
        )
        assert len(paths) == 1
        assert paths[0].uses_bound_edge
        assert paths[0].residual == ()

    def test_wrong_adjacency_not_matched(self, store, example_graph):
        self.register_money_flow(store, example_graph)
        paths = store.find_edge_access_paths(
            EdgeAdjacencyType.DST_BW, self.query_predicate()
        )
        assert paths == []

    def test_missing_predicate_not_matched(self, store, example_graph):
        self.register_money_flow(store, example_graph)
        weak = Predicate.of(cmp(prop("bound_edge", "date"), "<", prop("edge", "date")))
        paths = store.find_edge_access_paths(EdgeAdjacencyType.DST_FW, weak)
        assert paths == []

    def test_describe_mentions_indexes(self, store, example_graph):
        self.register_money_flow(store, example_graph)
        register_usd_view(store, example_graph)
        text = store.describe()
        assert "MoneyFlow" in text and "BigUsd" in text
