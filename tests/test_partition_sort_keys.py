"""Tests for partition keys, sort keys, and index configurations."""

import numpy as np
import pytest

from repro.errors import IndexConfigError
from repro.graph.types import NULL_CATEGORY
from repro.index.config import IndexConfig
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


class TestPartitionKey:
    def test_parse_forms(self):
        assert PartitionKey.parse("eadj.label") == PartitionKey.edge_label()
        assert PartitionKey.parse("vnbr.label") == PartitionKey.nbr_label()
        assert PartitionKey.parse("eadj.currency") == PartitionKey.edge_property("currency")
        assert PartitionKey.parse(" vnbr.city ") == PartitionKey.nbr_property("city")

    def test_parse_errors(self):
        with pytest.raises(IndexConfigError):
            PartitionKey.parse("currency")
        with pytest.raises(IndexConfigError):
            PartitionKey.parse("foo.currency")
        with pytest.raises(IndexConfigError):
            PartitionKey("elsewhere", "x")

    def test_domain_sizes(self, example_graph):
        assert PartitionKey.edge_label().domain_size(example_graph) == 3
        assert PartitionKey.nbr_label().domain_size(example_graph) == 2
        currency = PartitionKey.edge_property("currency")
        assert currency.domain_size(example_graph) == 3  # USD, EUR, GBP in Figure 1
        assert currency.effective_domain_size(example_graph) == 4

    def test_non_categorical_property_rejected(self, example_graph):
        with pytest.raises(IndexConfigError):
            PartitionKey.edge_property("amt").domain_size(example_graph)

    def test_codes_and_null_partition(self, example_graph):
        key = PartitionKey.edge_property("currency")
        edge_ids = np.arange(example_graph.num_edges)
        nbr_ids = example_graph.edge_dst
        raw = key.codes(example_graph, edge_ids, nbr_ids)
        effective = key.effective_codes(example_graph, edge_ids, nbr_ids)
        domain = key.domain_size(example_graph)
        # Owns edges have no currency: they map to the trailing partition.
        assert (raw == NULL_CATEGORY).sum() == 5
        assert (effective == domain).sum() == 5
        assert effective.min() >= 0

    def test_code_for_value(self, example_graph):
        key = PartitionKey.edge_label()
        assert key.code_for_value(example_graph, "Wire") == example_graph.schema.edge_label_code("Wire")
        assert key.code_for_value(example_graph, 1) == 1
        assert key.code_for_value(example_graph, None) == key.domain_size(example_graph)
        city = PartitionKey.nbr_property("city")
        assert city.code_for_value(example_graph, "SF") == example_graph.schema.vertex_property("city").code_of("SF")


class TestSortKey:
    def test_parse_forms(self):
        assert SortKey.parse("vnbr.ID") == SortKey.neighbour_id()
        assert SortKey.parse("eadj.date") == SortKey.edge_property("date")
        assert SortKey.parse("vnbr.city") == SortKey.nbr_property("city")

    def test_parse_errors(self):
        with pytest.raises(IndexConfigError):
            SortKey.parse("city")
        with pytest.raises(IndexConfigError):
            SortKey("nbr", "")

    def test_neighbour_id_values(self, example_graph):
        key = SortKey.neighbour_id()
        values = key.values(example_graph, np.arange(3), np.array([5, 2, 9]))
        assert list(values) == [5, 2, 9]

    def test_edge_id_values(self, example_graph):
        key = SortKey.edge_id()
        values = key.values(example_graph, np.array([3, 1, 2]), np.zeros(3, dtype=int))
        assert list(values) == [3, 1, 2]

    def test_property_values_with_nulls_sort_last(self, example_graph):
        key = SortKey.edge_property("amt")
        edge_ids = np.arange(example_graph.num_edges)
        values = key.values(example_graph, edge_ids, example_graph.edge_dst)
        owns_edges = [
            e for e in range(example_graph.num_edges)
            if example_graph.edge_label_name(e) == "Owns"
        ]
        # Null amounts (Owns edges) must be larger than any real amount.
        assert values[owns_edges].min() > values.max() - 1 or np.all(
            values[owns_edges] == np.iinfo(np.int64).max
        )

    def test_describe(self):
        assert SortKey.neighbour_id().describe() == "vnbr.ID"
        assert SortKey.edge_property("date").describe() == "eadj.date"


class TestIndexConfig:
    def test_default_configurations(self):
        d = IndexConfig.default()
        assert d.partition_keys == (PartitionKey.edge_label(),)
        assert d.sorted_by_neighbour_id
        ds = IndexConfig.sorted_by_nbr_label()
        assert not ds.sorted_by_neighbour_id
        dp = IndexConfig.partitioned_by_nbr_label()
        assert len(dp.partition_keys) == 2

    def test_empty_sort_defaults_to_neighbour_id(self):
        config = IndexConfig(partition_keys=(), sort_keys=())
        assert config.sorted_by_neighbour_id

    def test_validate(self, example_graph):
        IndexConfig.default().validate(example_graph)
        bad = IndexConfig(partition_keys=(PartitionKey.edge_property("amt"),))
        with pytest.raises(IndexConfigError):
            bad.validate(example_graph)
        bad_sort = IndexConfig(sort_keys=(SortKey.edge_property("missing"),))
        with pytest.raises(IndexConfigError):
            bad_sort.validate(example_graph)

    def test_same_partitioning_as(self):
        assert IndexConfig.default().same_partitioning_as(IndexConfig.sorted_by_nbr_label())
        assert not IndexConfig.default().same_partitioning_as(
            IndexConfig.partitioned_by_nbr_label()
        )

    def test_describe(self):
        text = IndexConfig.partitioned_by_nbr_label().describe()
        assert "PARTITION BY" in text and "SORT BY" in text
