"""The read surface every A+ index shares (:mod:`repro.index.lists`).

Primary, vertex-partitioned and edge-partitioned indexes answer the
same ``list`` / ``list_many`` / ``count_many`` calls and check their
partition values the same way, on the paper's running example; and each
holds no array its CSR offsets determine, after a build and after a flush.
"""

import enum

import numpy as np
import pytest

from repro import Database
from repro.errors import IndexLookupError
from repro.graph import Direction, EdgeAdjacencyType
from repro.graph.generators import FinancialGraphSpec, generate_financial_graph
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey

INDEX_KINDS = ("primary", "vertex", "edge")


def _index(graph, kind):
    primary = PrimaryIndex(graph)
    if kind == "primary":
        return primary.forward
    view = OneHopView("All")
    if kind == "vertex":
        return VertexPartitionedIndex(
            graph, view, Direction.FORWARD, IndexConfig.default(), primary.forward
        )
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


def _arrays(obj, path=""):
    """The ndarrays reachable from ``obj`` through the attributes of index
    and storage objects, by attribute path; the graph, the primary an index
    points into, its view, a built search key and a built edge-position
    inverse are not its own."""
    if isinstance(obj, np.ndarray):
        return {path: obj}
    if isinstance(obj, (list, tuple)):
        found = {}
        for i, value in enumerate(obj):
            found.update(_arrays(value, f"{path}[{i}]"))
        return found
    if isinstance(obj, enum.Enum) or not type(obj).__module__.startswith("repro."):
        return {}
    found = {}
    for name, value in vars(obj).items():
        if name not in ("graph", "primary", "view", "_search_key", "_position_of_edge"):
            found.update(_arrays(value, f"{path}.{name}" if path else name))
    return found


PRIMARY_ARRAYS = {"id_lists.edge_ids", "id_lists.nbr_ids", "csr.offsets"}
SECONDARY_ARRAYS = {"offset_lists.offsets", "csr.offsets"}


def test_an_index_stores_each_fact_once():
    """An index holds its CSR offsets and its payload (ID lists for a
    primary, offsets for a secondary) and nothing its CSR offsets or ID
    lists determine: no sort permutation, no per-entry bound ID, no edge
    positions but a lazily built inverse.  Checked after a fresh build and
    after an incremental flush."""
    graph = generate_financial_graph(
        FinancialGraphSpec(num_vertices=30, num_edges=200, num_cities=4, seed=7)
    )
    db = Database(graph)
    db.create_vertex_index(
        OneHopView("Big", predicate=Predicate.of(cmp(prop("eadj", "amt"), ">", 300))),
        directions=(Direction.FORWARD,),
        config=IndexConfig(
            partition_keys=(PartitionKey.edge_property("currency"),),
            sort_keys=(SortKey.edge_property("date"),),
        ),
        name="Big",
    )
    db.create_edge_index(
        TwoHopView(
            "Later",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eb", "date"), "<", prop("eadj", "date"))),
        ),
        config=IndexConfig.flat(),
        name="Later",
    )

    def check():
        primary = db.primary_index.forward
        (vertex,) = db.store.vertex_indexes
        (edge,) = db.store.edge_indexes
        assert vertex.csr.num_levels == 1 and vertex.num_indexed_edges > 0
        assert edge.num_indexed_edges > 0
        assert set(_arrays(primary)) == PRIMARY_ARRAYS
        assert set(_arrays(vertex)) == SECONDARY_ARRAYS
        assert set(_arrays(edge)) == SECONDARY_ARRAYS

    check()
    maintainer = db.maintainer(merge_threshold=10**9)
    rng = np.random.default_rng(7)
    maintainer.insert_edges(
        rng.integers(0, 30, size=20),
        rng.integers(0, 30, size=20),
        "Wire",
        properties=dict(
            amt=rng.integers(1, 1000, size=20),
            date=rng.integers(0, 1800, size=20),
            currency=rng.integers(0, 4, size=20),
        ),
    )
    maintainer.delete_edges(np.arange(0, 200, 9))
    maintainer.flush()
    check()
