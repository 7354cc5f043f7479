"""Tests for secondary vertex-partitioned A+ indexes."""

import numpy as np
import pytest

from repro.errors import IndexConfigError
from repro.graph import Direction
from repro.index.config import IndexConfig
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


def usd_view():
    return OneHopView(
        name="UsdWires",
        predicate=Predicate.of(cmp(prop("eadj", "currency"), "=", "USD")),
        edge_label="Wire",
    )


class TestViewSelection:
    def test_one_hop_view_rejects_unknown_variables(self):
        with pytest.raises(IndexConfigError):
            OneHopView("bad", Predicate.of(cmp(prop("x", "amt"), ">", 1)))

    def test_global_view_flag(self):
        assert OneHopView("all").is_global
        assert not usd_view().is_global

    def test_selected_edges_match_bruteforce(self, example_graph):
        primary = PrimaryIndex(example_graph)
        index = VertexPartitionedIndex(
            example_graph,
            usd_view(),
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        expected = sum(
            1
            for e in range(example_graph.num_edges)
            if example_graph.edge_label_name(e) == "Wire"
            and example_graph.edge_property(e, "currency") == "USD"
        )
        assert index.num_indexed_edges == expected


class TestOffsetListStorage:
    def test_lists_are_subsets_of_primary_lists(self, example_graph):
        primary = PrimaryIndex(example_graph)
        index = VertexPartitionedIndex(
            example_graph,
            usd_view(),
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        for vertex in range(example_graph.num_vertices):
            secondary_edges, secondary_nbrs = index.list(vertex)
            primary_edges, _ = primary.forward.list(vertex)
            assert set(secondary_edges.tolist()) <= set(primary_edges.tolist())
            for edge, nbr in zip(secondary_edges, secondary_nbrs):
                assert example_graph.edge_property(int(edge), "currency") == "USD"
                assert int(example_graph.edge_dst[int(edge)]) == int(nbr)

    def test_lists_hold_every_selected_primary_edge(self, example_graph):
        primary = PrimaryIndex(example_graph)
        index = VertexPartitionedIndex(
            example_graph,
            usd_view(),
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        for vertex in range(example_graph.num_vertices):
            primary_edges, _ = primary.forward.list(vertex)
            selected = sorted(
                int(edge)
                for edge in primary_edges
                if example_graph.edge_label_name(int(edge)) == "Wire"
                and example_graph.edge_property(int(edge), "currency") == "USD"
            )
            secondary_edges, _ = index.list(vertex)
            assert sorted(secondary_edges.tolist()) == selected

    def test_backward_direction(self, example_graph):
        primary = PrimaryIndex(example_graph)
        index = VertexPartitionedIndex(
            example_graph,
            usd_view(),
            Direction.BACKWARD,
            IndexConfig.default(),
            primary.backward,
        )
        for vertex in range(example_graph.num_vertices):
            edges, nbrs = index.list(vertex)
            for edge, nbr in zip(edges, nbrs):
                assert int(example_graph.edge_dst[int(edge)]) == vertex
                assert int(example_graph.edge_src[int(edge)]) == int(nbr)

    def test_direction_mismatch_raises(self, example_graph):
        primary = PrimaryIndex(example_graph)
        with pytest.raises(IndexConfigError):
            VertexPartitionedIndex(
                example_graph,
                usd_view(),
                Direction.FORWARD,
                IndexConfig.default(),
                primary.backward,
            )

    def test_custom_sorting_on_city(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        config = IndexConfig(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.nbr_property("city"), SortKey.neighbour_id()),
        )
        index = VertexPartitionedIndex(
            financial_graph,
            OneHopView("VPc"),
            Direction.FORWARD,
            config,
            primary.forward,
        )
        city = financial_graph.vertex_props.column("city")
        for vertex in range(0, financial_graph.num_vertices, 7):
            for label in financial_graph.schema.edge_labels.names:
                _, nbrs = index.list(vertex, [label])
                cities = city[nbrs]
                assert list(cities) == sorted(cities)


class TestPartitionLevelSharing:
    def test_global_same_structure_shares_levels(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        config = IndexConfig(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.nbr_property("city"),),
        )
        index = VertexPartitionedIndex(
            financial_graph, OneHopView("VPc"), Direction.FORWARD, config, primary.forward
        )
        assert index.shares_partition_levels
        breakdown = index.memory_breakdown()
        assert breakdown.partition_level_bytes == 0
        assert breakdown.offset_list_bytes > 0

    def test_view_with_predicate_needs_own_levels(self, example_graph):
        primary = PrimaryIndex(example_graph)
        index = VertexPartitionedIndex(
            example_graph,
            usd_view(),
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        assert not index.shares_partition_levels
        assert index.memory_breakdown().partition_level_bytes > 0

    def test_offset_lists_much_smaller_than_id_lists(self, financial_graph):
        """The headline space claim: a few bytes per indexed edge instead of 12."""
        primary = PrimaryIndex(financial_graph)
        config = IndexConfig(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.nbr_property("city"),),
        )
        index = VertexPartitionedIndex(
            financial_graph, OneHopView("VPc"), Direction.FORWARD, config, primary.forward
        )
        per_edge = index.memory_breakdown().total / index.num_indexed_edges
        assert per_edge <= 2.0  # bytes per indexed edge
        primary_per_edge = primary.forward.id_lists.nbytes() / financial_graph.num_edges
        assert per_edge < primary_per_edge / 4
