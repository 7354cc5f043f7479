"""Tests for secondary edge-partitioned A+ indexes (2-hop views)."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexConfigError
from repro.graph import EdgeAdjacencyType
from repro.graph.builder import GraphBuilder
from repro.graph.types import PropertyType
from repro.index import edge_partitioned
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.primary import PrimaryIndex
from repro.index.views import TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)


def money_flow_view(adjacency=EdgeAdjacencyType.DST_FW, alpha=None):
    conjuncts = [
        cmp(prop("eb", "date"), "<", prop("eadj", "date")),
        cmp(prop("eb", "amt"), ">", prop("eadj", "amt")),
    ]
    if alpha is not None:
        conjuncts.append(cmp(prop("eb", "amt"), "<", prop("eadj", "amt"), offset=alpha))
    return TwoHopView("MoneyFlow", adjacency, Predicate(conjuncts))


def expected_pairs(graph, adjacency, predicate):
    """Brute-force enumeration of qualifying (bound edge, adjacent edge) pairs."""
    pairs = set()
    for eb in range(graph.num_edges):
        if adjacency.bound_endpoint_is_destination:
            shared = int(graph.edge_dst[eb])
        else:
            shared = int(graph.edge_src[eb])
        for eadj in range(graph.num_edges):
            if eadj == eb:
                continue
            if adjacency.adjacency_direction.value == "fw":
                if int(graph.edge_src[eadj]) != shared:
                    continue
                nbr = int(graph.edge_dst[eadj])
            else:
                if int(graph.edge_dst[eadj]) != shared:
                    continue
                nbr = int(graph.edge_src[eadj])
            binding = {
                "eb": ("edge", eb),
                "eadj": ("edge", eadj),
                "vnbr": ("vertex", nbr),
                "vs": ("vertex", int(graph.edge_src[eb])),
                "vd": ("vertex", int(graph.edge_dst[eb])),
            }
            if predicate.evaluate(graph, binding):
                pairs.add((eb, eadj))
    return pairs


class TestTwoHopViewValidation:
    def test_predicate_must_relate_both_edges(self):
        with pytest.raises(IndexConfigError):
            TwoHopView(
                "Redundant",
                EdgeAdjacencyType.DST_FW,
                Predicate.of(cmp(prop("eadj", "amt"), "<", 10000)),
            )

    def test_unknown_variable_rejected(self):
        with pytest.raises(IndexConfigError):
            TwoHopView(
                "bad",
                EdgeAdjacencyType.DST_FW,
                Predicate.of(cmp(prop("eb", "amt"), ">", prop("zz", "amt"))),
            )

    def test_adjacency_direction_mapping(self):
        assert EdgeAdjacencyType.DST_FW.adjacency_direction.value == "fw"
        assert EdgeAdjacencyType.DST_BW.adjacency_direction.value == "bw"
        assert EdgeAdjacencyType.SRC_FW.adjacency_direction.value == "bw"
        assert EdgeAdjacencyType.SRC_BW.adjacency_direction.value == "fw"


def zoo_graph(seed=3, num_vertices=9, num_edges=44, hub_share=0.3):
    """A small multigraph with a hub, self-loops and parallel edges, whose edge
    columns hold every kind of null: ``amt`` and ``date`` ints with
    ``NULL_INT`` holes, ``w`` floats with NaN holes and ``tag`` strings with
    ``None`` holes."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    builder.declare_edge_property("amt", PropertyType.INT)
    builder.declare_edge_property("date", PropertyType.INT)
    builder.declare_edge_property("w", PropertyType.FLOAT)
    builder.declare_edge_property("tag", PropertyType.STRING)
    for vertex in range(num_vertices):
        builder.add_vertex("V", score=int(vertex % 4))
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    hub = int(num_edges * hub_share)
    src[:hub] = 0
    dst[hub : 2 * hub] = 0

    def holes(values, share=0.15):
        return [None if rng.random() < share else value for value in values]

    builder.add_edges(
        src,
        dst,
        [("A", "B")[i % 2] for i in range(num_edges)],
        properties={
            "amt": holes(int(v) for v in rng.integers(-4, 5, num_edges)),
            "date": holes(int(v) for v in rng.integers(0, 12, num_edges)),
            "w": holes(float(v) for v in rng.choice([-1.5, 0.0, 0.5, 2.25], num_edges)),
            "tag": holes(str(v) for v in rng.choice(["a", "b", "c"], num_edges)),
        },
    )
    return builder.build()


def _amt(var):
    return prop(var, "amt")


#: ``name -> (conjuncts, sort keys)`` covering every operator, offsets of
#: both signs, bands, two banded properties, IDs, strings and nulls of each
#: kind.
ZOO_VIEWS = {
    **{
        f"amt {op}": ([cmp(_amt("eb"), op, _amt("eadj"))], ())
        for op in ("<", "<=", ">", ">=", "=", "<>")
    },
    "amt < +2": ([cmp(_amt("eadj"), "<", _amt("eb"), offset=2.0)], ()),
    "amt >= -1": ([cmp(_amt("eadj"), ">=", _amt("eb"), offset=-1.0)], ()),
    "w = +0.5": ([cmp(prop("eadj", "w"), "=", prop("eb", "w"), offset=0.5)], ()),
    "w <= -0.5": (
        [cmp(prop("eb", "w"), "<=", prop("eadj", "w"), offset=-0.5)],
        (SortKey.edge_property("w"),),
    ),
    "money flow": (
        [
            cmp(prop("eb", "date"), "<", prop("eadj", "date")),
            cmp(_amt("eb"), ">", _amt("eadj")),
            cmp(_amt("eb"), "<", _amt("eadj"), offset=3.0),
        ],
        (SortKey.edge_property("amt"),),
    ),
    "two bands": (
        [
            cmp(_amt("eadj"), ">=", _amt("eb"), offset=-2.0),
            cmp(_amt("eadj"), "<", _amt("eb"), offset=2.0),
            cmp(prop("eadj", "date"), ">", prop("eb", "date"), offset=-3.0),
            cmp(prop("eadj", "date"), "<=", prop("eb", "date")),
        ],
        (SortKey.edge_property("date"),),
    ),
    "ID": ([cmp(prop("eb", "ID"), "<", prop("eadj", "ID"))], ()),
    "int vs float": ([cmp(_amt("eadj"), ">", prop("eb", "w"))], ()),
    "string =": ([cmp(prop("eb", "tag"), "=", prop("eadj", "tag"))], ()),
    "string <> and band": (
        [
            cmp(prop("eb", "tag"), "<>", prop("eadj", "tag")),
            cmp(_amt("eadj"), "<=", _amt("eb"), offset=1.0),
            cmp(prop("vnbr", "score"), ">", 0),
        ],
        (SortKey.edge_property("date"), SortKey.neighbour_id()),
    ),
}

ADJACENCY_TYPES = [
    EdgeAdjacencyType.DST_FW,
    EdgeAdjacencyType.DST_BW,
    EdgeAdjacencyType.SRC_FW,
    EdgeAdjacencyType.SRC_BW,
]


def check_against_bruteforce(graph, adjacency, conjuncts, sort_keys=()):
    """The index holds exactly the brute-force pairs, each list ordered by
    the sort keys and then by position in the shared vertex's primary list."""
    primary = PrimaryIndex(graph)
    view = TwoHopView("Zoo", adjacency, Predicate(conjuncts))
    config = IndexConfig(partition_keys=(), sort_keys=tuple(sort_keys))
    index = EdgePartitionedIndex(graph, view, config, primary)
    expected = expected_pairs(graph, adjacency, view.predicate)
    actual = set()
    for eb in range(graph.num_edges):
        edges, nbrs = index.list(eb)
        actual.update((eb, int(eadj)) for eadj in edges)
        start, _ = index.list_range(eb)
        offsets = index.offset_lists.offsets[start : start + len(edges)].tolist()
        keys = [key.values(graph, edges, nbrs).tolist() for key in config.sort_keys]
        order = list(zip(*keys, offsets))
        assert order == sorted(order), (eb, order)
    assert actual == expected
    assert index.candidates_examined >= len(expected)
    return index


NUMERIC_COLUMNS = ("amt", "date", "w", "ID")


@st.composite
def random_zoo_case(draw):
    """``(graph, adjacency, conjuncts, sort_keys)``: a random small zoo graph
    and a random view of one to three ``eadj``-``eb`` conjuncts."""
    graph = zoo_graph(
        seed=draw(st.integers(0, 10_000)),
        num_vertices=draw(st.integers(1, 6)),
        num_edges=draw(st.integers(0, 24)),
        hub_share=draw(st.sampled_from([0.0, 0.2, 0.45])),
    )
    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            left = right = "tag"
        else:
            left = draw(st.sampled_from(NUMERIC_COLUMNS))
            right = draw(st.sampled_from(NUMERIC_COLUMNS))
        sides = [prop("eadj", left), prop("eb", right)]
        if draw(st.booleans()):
            sides.reverse()
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        offsets = [0.0] if left == "tag" else [0.0, 0.0, -2.0, -0.5, 1.0, 2.5]
        offset = draw(st.sampled_from(offsets))
        conjuncts.append(cmp(sides[0], op, sides[1], offset=offset))
    sort_keys = draw(
        st.sampled_from(
            [
                (),
                (SortKey.edge_property("w"),),
                (SortKey.edge_property("amt"), SortKey.neighbour_id()),
            ]
        )
    )
    return graph, draw(st.sampled_from(ADJACENCY_TYPES)), conjuncts, sort_keys


class TestEdgePartitionedContents:
    @pytest.mark.parametrize("view_name", list(ZOO_VIEWS))
    @pytest.mark.parametrize("adjacency", ADJACENCY_TYPES)
    def test_contents_match_bruteforce(self, adjacency, view_name):
        conjuncts, sort_keys = ZOO_VIEWS[view_name]
        check_against_bruteforce(zoo_graph(), adjacency, conjuncts, sort_keys)

    def test_band_narrows_the_candidates(self):
        graph = zoo_graph()
        band = check_against_bruteforce(
            graph, EdgeAdjacencyType.DST_FW, ZOO_VIEWS["two bands"][0]
        )
        unsearched = check_against_bruteforce(
            graph, EdgeAdjacencyType.DST_FW, ZOO_VIEWS["amt <>"][0]
        )
        assert band.candidates_examined < unsearched.candidates_examined
        assert "pairs examined" in band.describe()

    @pytest.mark.parametrize("view_name", ["amt <>", "two bands", "string <> and band"])
    def test_chunk_cuts_leave_the_index_unchanged(self, monkeypatch, view_name):
        graph = zoo_graph(num_edges=80, hub_share=0.45)
        conjuncts, sort_keys = ZOO_VIEWS[view_name]
        whole = check_against_bruteforce(graph, EdgeAdjacencyType.DST_FW, conjuncts, sort_keys)
        monkeypatch.setattr(edge_partitioned, "_BUILD_CHUNK_ENTRIES", 3)
        cut = check_against_bruteforce(graph, EdgeAdjacencyType.DST_FW, conjuncts, sort_keys)
        assert cut.candidates_examined == whole.candidates_examined
        assert np.array_equal(cut.csr.offsets, whole.csr.offsets)
        assert np.array_equal(cut.offset_lists.offsets, whole.offset_lists.offsets)

    @settings(max_examples=40, deadline=None)
    @given(random_zoo_case())
    def test_random_views_match_bruteforce(self, case):
        check_against_bruteforce(*case)

    @fuzz
    @pytest.mark.fuzz
    @settings(max_examples=2000, deadline=None)
    @given(random_zoo_case())
    def test_fuzz_random_views_match_bruteforce(self, case):
        check_against_bruteforce(*case)

    def test_neighbour_ids_are_correct(self, example_graph):
        primary = PrimaryIndex(example_graph)
        view = money_flow_view()
        index = EdgePartitionedIndex(example_graph, view, IndexConfig.flat(), primary)
        for eb in range(example_graph.num_edges):
            edges, nbrs = index.list(eb)
            for eadj, nbr in zip(edges, nbrs):
                assert int(example_graph.edge_dst[int(eadj)]) == int(nbr)
                assert int(example_graph.edge_src[int(eadj)]) == int(
                    example_graph.edge_dst[eb]
                )

    def test_partitioning_and_sorting(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        alpha = 200.0
        view = money_flow_view(alpha=alpha)
        config = IndexConfig(
            partition_keys=(PartitionKey.nbr_property("acc"),),
            sort_keys=(SortKey.nbr_property("city"), SortKey.neighbour_id()),
        )
        index = EdgePartitionedIndex(financial_graph, view, config, primary)
        acc = financial_graph.vertex_props.column("acc")
        city = financial_graph.vertex_props.column("city")
        checked = 0
        for eb in range(0, financial_graph.num_edges, 17):
            for acc_value in ("CQ", "SV"):
                edges, nbrs = index.list(eb, [acc_value])
                code = financial_graph.schema.vertex_property("acc").code_of(acc_value)
                assert all(acc[n] == code for n in nbrs)
                cities = city[nbrs]
                assert list(cities) == sorted(cities)
                checked += len(edges)
        assert index.num_indexed_edges > 0

    def test_alpha_reduces_index_size(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        without_cut = EdgePartitionedIndex(
            financial_graph, money_flow_view(), IndexConfig.flat(), primary
        )
        with_cut = EdgePartitionedIndex(
            financial_graph, money_flow_view(alpha=50.0), IndexConfig.flat(), primary
        )
        assert with_cut.num_indexed_edges < without_cut.num_indexed_edges

    def test_memory_breakdown_uses_offsets_not_id_lists(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        index = EdgePartitionedIndex(
            financial_graph, money_flow_view(alpha=100.0), IndexConfig.flat(), primary
        )
        breakdown = index.memory_breakdown()
        assert breakdown.id_list_bytes == 0
        assert breakdown.offset_list_bytes == index.offset_lists.nbytes(index.csr)
        if index.num_indexed_edges:
            assert breakdown.offset_list_bytes / index.num_indexed_edges <= 2.0

    def test_empty_view(self, example_graph):
        primary = PrimaryIndex(example_graph)
        never = TwoHopView(
            "never",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(
                cmp(prop("eb", "amt"), "<", prop("eadj", "amt")),
                cmp(prop("eb", "amt"), ">", prop("eadj", "amt")),
            ),
        )
        index = EdgePartitionedIndex(example_graph, never, IndexConfig.flat(), primary)
        assert index.num_indexed_edges == 0
        for eb in range(example_graph.num_edges):
            edges, _ = index.list(eb)
            assert len(edges) == 0


def hub_graph(spokes=1000, odd_share=0.02, seed=5):
    """A hub with ``spokes`` in-edges and ``spokes`` out-edges: ``spokes**2``
    destination-forward 2-paths through one vertex.  ``amt`` is 7 on every
    edge but ``odd_share`` of the out-edges, where it is 6."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    builder.declare_edge_property("amt", PropertyType.INT)
    for _ in range(2 * spokes + 1):
        builder.add_vertex("V")
    leaves = np.arange(1, spokes + 1)
    amt = np.full(2 * spokes, 7)
    amt[spokes:][rng.random(spokes) < odd_share] = 6
    builder.add_edges(
        np.concatenate([leaves, np.zeros(spokes, dtype=np.int64)]),
        np.concatenate([np.zeros(spokes, dtype=np.int64), leaves + spokes]),
        "A",
        properties={"amt": amt},
    )
    return builder.build()


class TestBuildMemory:
    #: The build's result (≈31 k entries here) plus a few evaluation chunks
    #: of candidates, whatever the number of 2-paths (a million here).
    PEAK_BOUND = 16 << 20

    @pytest.mark.parametrize(
        "conjuncts",
        [
            [
                cmp(_amt("eadj"), "<", _amt("eb")),
                cmp(_amt("eadj"), ">=", _amt("eb"), offset=-50.0),
            ],
            [cmp(_amt("eadj"), "<>", _amt("eb"))],
        ],
        ids=["band", "not-equal"],
    )
    def test_peak_is_bounded_by_entries_not_by_two_paths(self, conjuncts):
        graph = hub_graph()
        primary = PrimaryIndex(graph)
        view = TwoHopView("Hub", EdgeAdjacencyType.DST_FW, Predicate(conjuncts))
        tracemalloc.start()
        try:
            index = EdgePartitionedIndex(graph, view, IndexConfig.flat(), primary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < index.num_indexed_edges * 20 <= 1000 * 1000
        assert peak < self.PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"
