"""The read surface every A+ index shares (:mod:`repro.index.lists`).

Primary, vertex-partitioned, edge-partitioned and bitmap indexes answer the
same ``list`` / ``list_many`` / ``count_many`` calls and check their
partition values the same way, on the paper's running example.
"""

import numpy as np
import pytest

from repro.errors import IndexLookupError
from repro.graph import Direction, EdgeAdjacencyType
from repro.index.bitmap import BitmapSecondaryIndex
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop

INDEX_KINDS = ("primary", "vertex", "edge", "bitmap")


def _index(graph, kind):
    primary = PrimaryIndex(graph)
    if kind == "primary":
        return primary.forward
    view = OneHopView("All")
    if kind == "vertex":
        return VertexPartitionedIndex(
            graph, view, Direction.FORWARD, IndexConfig.default(), primary.forward
        )
    if kind == "bitmap":
        return BitmapSecondaryIndex(graph, view, Direction.FORWARD, primary.forward)
    two_hop = TwoHopView(
        "Later",
        EdgeAdjacencyType.DST_FW,
        Predicate.of(cmp(prop("eb", "date"), "<", prop("eadj", "date"))),
    )
    return EdgePartitionedIndex(graph, two_hop, IndexConfig.default(), primary)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_more_partition_values_than_levels_raise(example_graph, kind):
    index = _index(example_graph, kind)
    label = example_graph.schema.edge_labels.names[0]
    bounds = np.arange(3)
    index.list(0, [label])  # one value per level is fine
    with pytest.raises(IndexLookupError):
        index.list(0, [label, "bogus"])
    with pytest.raises(IndexLookupError):
        index.list_many(bounds, [label, "bogus"])
    with pytest.raises(IndexLookupError):
        index.count_many(bounds, [label, "bogus"])
