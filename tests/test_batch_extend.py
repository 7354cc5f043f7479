"""Batch/per-row equivalence tests for the vectorized gather path.

Randomized property tests asserting that the batched index contract
(:meth:`NestedCSR.gather`, ``list_many`` on all three index classes) agrees
with looped tuple-at-a-time lookups, and that the vectorized extension
operators produce identical rows, edge bindings and :class:`ExecutionStats`
counters to the legacy per-row path — on graphs with parallel edges and
empty adjacency lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.errors import IndexLookupError
from repro.graph import Direction
from repro.graph.generators import (
    LabelledGraphSpec,
    generate_labelled_graph,
)
from repro.graph.types import EdgeAdjacencyType, OFFSET_DTYPE
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.index_store import AccessPath, IndexStore
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import CompareOp, Predicate, cmp, prop
from repro.query.executor import Executor
from repro.query.naive import NaiveMatcher
from repro.query.operators import (
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    MultiExtend,
    ScanVertices,
    SortedRangeFilter,
)
from repro.query.pattern import QueryGraph
from repro.query.plan import QueryPlan
from repro.storage.csr import NestedCSR
from repro.storage.sort_keys import SortKey


# ----------------------------------------------------------------------
# storage: gather vs group_range
# ----------------------------------------------------------------------
def _random_csr(rng, num_bound, num_entries, domains):
    bound_ids = rng.integers(0, num_bound, size=num_entries)
    level_codes = [rng.integers(0, d, size=num_entries) for d in domains]
    sort_values = [rng.integers(0, 40, size=num_entries)]
    return NestedCSR(num_bound, bound_ids, level_codes, list(domains), sort_values)


class TestGather:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gather_matches_group_range(self, seed):
        rng = np.random.default_rng(seed)
        csr = _random_csr(rng, 30, 200, [3, 2])
        for _ in range(10):
            n = int(rng.integers(0, 15))
            bounds = rng.integers(0, 30, size=n)
            for codes in ((), (1,), (2, 1)):
                positions, counts = csr.gather(bounds, codes)
                expected_positions = []
                expected_counts = []
                for bound in bounds:
                    start, end = csr.group_range(int(bound), codes)
                    expected_positions.append(np.arange(start, end))
                    expected_counts.append(end - start)
                flat = (
                    np.concatenate(expected_positions)
                    if expected_positions
                    else np.empty(0, dtype=np.int64)
                )
                assert positions.tolist() == flat.tolist()
                assert counts.tolist() == expected_counts
                assert positions.dtype == np.int64
                assert counts.dtype == np.int64

    def test_prefix_ranges_generalize_bound_lookups(self):
        rng = np.random.default_rng(5)
        csr = _random_csr(rng, 20, 120, [2, 2])
        bounds = rng.integers(0, 20, size=12)
        starts, ends = csr.prefix_ranges(bounds)
        assert starts.tolist() == csr.bound_starts(bounds).tolist()
        assert ends.tolist() == csr.bound_ends(bounds).tolist()
        starts, ends = csr.prefix_ranges(bounds, (1,))
        for bound, start, end in zip(bounds, starts, ends):
            assert (int(start), int(end)) == csr.group_range(int(bound), (1,))

    def test_gather_validates_inputs(self):
        rng = np.random.default_rng(0)
        csr = _random_csr(rng, 10, 40, [2])
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0, 10]))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([-1]))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0]), (5,))
        with pytest.raises(IndexLookupError):
            csr.gather(np.array([0]), (0, 0))

    def test_offsets_dtype_and_shape(self):
        rng = np.random.default_rng(1)
        csr = _random_csr(rng, 10, 40, [2])
        assert csr.offsets.dtype == OFFSET_DTYPE
        assert len(csr.offsets) == 10 * 2 + 1
        assert csr.offsets[0] == 0
        assert csr.offsets[-1] == 40


# ----------------------------------------------------------------------
# indexes: list_many vs looped list
# ----------------------------------------------------------------------
def _assert_list_many_matches(index, bounds, key_values=()):
    edge_ids, nbr_ids, counts = index.list_many(
        np.asarray(bounds, dtype=np.int64), key_values
    )
    expected_edges, expected_nbrs, expected_counts = [], [], []
    for bound in bounds:
        e, n = index.list(int(bound), key_values)
        expected_edges.extend(int(x) for x in e)
        expected_nbrs.extend(int(x) for x in n)
        expected_counts.append(len(e))
    assert edge_ids.tolist() == expected_edges
    assert nbr_ids.tolist() == expected_nbrs
    assert counts.tolist() == expected_counts


class TestListMany:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_primary_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_vertices, size=40)
        for key_values in ((), ("Wire",), ("DirDeposit",)):
            _assert_list_many_matches(primary.forward, bounds, key_values)
            _assert_list_many_matches(primary.backward, bounds, key_values)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_vertex_partitioned_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        view = OneHopView(
            "usd", predicate=Predicate.of(cmp(prop("eadj", "currency"), "=", "USD"))
        )
        index = VertexPartitionedIndex(
            financial_graph,
            view,
            Direction.FORWARD,
            IndexConfig.default(),
            primary.forward,
        )
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_vertices, size=40)
        for key_values in ((), ("Wire",)):
            _assert_list_many_matches(index, bounds, key_values)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_edge_partitioned_index(self, financial_graph, seed):
        primary = PrimaryIndex(financial_graph)
        view = TwoHopView(
            "cheaper",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))),
        )
        index = EdgePartitionedIndex(
            financial_graph, view, IndexConfig.default(), primary
        )
        rng = np.random.default_rng(seed)
        bounds = rng.integers(0, financial_graph.num_edges, size=40)
        for key_values in ((), ("Wire",)):
            _assert_list_many_matches(index, bounds, key_values)

    def test_empty_and_repeated_bounds(self, example_graph):
        primary = PrimaryIndex(example_graph)
        # Customer vertices (5..7) have no out-edges beyond Owns; vertex 5
        # repeated exercises repeated gathers and empty lists in one batch.
        bounds = [0, 0, 6, 7, 3, 6, 0]
        _assert_list_many_matches(primary.forward, bounds)
        _assert_list_many_matches(primary.forward, bounds, ("Wire",))
        _assert_list_many_matches(primary.forward, [])


# ----------------------------------------------------------------------
# operators: vectorized vs per-row
# ----------------------------------------------------------------------
def _run(graph, plan):
    stats = ExecutionStats()
    rows = []
    for batch in Executor(graph).execute(plan, stats=stats):
        rows.extend(batch.to_dicts())
    return rows, stats


def _assert_paths_equivalent(graph, plan_factory):
    """Build the plan twice (vectorized / per-row) and compare everything."""
    vector_rows, vector_stats = _run(graph, plan_factory(True))
    rowwise_rows, rowwise_stats = _run(graph, plan_factory(False))
    assert vector_rows == rowwise_rows
    assert vector_stats == rowwise_stats
    return vector_rows


def _forward_leg(store, bound, target, edge_var, **kwargs):
    path = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]
    return ExtensionLeg(
        access_path=path,
        bound_var=bound,
        target_var=target,
        edge_var=edge_var,
        presorted_by_nbr=path.sorted_by_neighbour_id,
        **kwargs,
    )


def _two_vertex_query():
    query = QueryGraph("q")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    return query


class TestExtendEquivalence:
    def test_single_leg_tracked(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))

        def factory(vectorized):
            return QueryPlan(
                query=_two_vertex_query(),
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(store, "a", "b", "e0", track_edge=True)
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        assert len(rows) == financial_graph.num_edges

    def test_single_leg_with_partition_key_values(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))

        def factory(vectorized):
            path = store.find_vertex_access_paths(
                Direction.FORWARD, Predicate.true()
            )[0]
            path.key_values = ("Wire",)
            leg = ExtensionLeg(
                access_path=path,
                bound_var="a",
                target_var="b",
                edge_var="e0",
                track_edge=True,
                presorted_by_nbr=path.sorted_by_neighbour_id,
            )
            return QueryPlan(
                query=_two_vertex_query(),
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b", legs=[leg], vectorized=vectorized
                    ),
                ],
            )

        _assert_paths_equivalent(financial_graph, factory)

    def test_single_leg_with_residual_on_bound_and_new_vars(self, financial_graph):
        store = IndexStore(financial_graph, PrimaryIndex(financial_graph))
        residual = Predicate.of(
            cmp(prop("a", "ID"), "<", prop("b", "ID")),
            cmp(prop("e0", "amt"), ">", 300),
        )

        def factory(vectorized):
            return QueryPlan(
                query=_two_vertex_query(),
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(
                                store,
                                "a",
                                "b",
                                "e0",
                                track_edge=True,
                                residual=residual,
                            )
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        _assert_paths_equivalent(financial_graph, factory)

    @pytest.mark.parametrize(
        "op,value",
        [
            (CompareOp.LT, 900),
            (CompareOp.LE, 900),
            (CompareOp.GT, 900),
            (CompareOp.GE, 900),
            (CompareOp.EQ, 4),
        ],
    )
    def test_single_leg_sorted_filter(self, financial_graph, op, value):
        date_key = SortKey.edge_property("date")
        config = IndexConfig(
            partition_keys=(), sort_keys=(date_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )

        def factory(vectorized):
            return QueryPlan(
                query=_two_vertex_query(),
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(
                                store,
                                "a",
                                "b",
                                "e0",
                                track_edge=True,
                                sorted_filter=SortedRangeFilter(
                                    sort_key=date_key, op=op, value=value
                                ),
                            )
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        _assert_paths_equivalent(financial_graph, factory)

    @pytest.mark.parametrize("graph_fixture", ["example_graph", "financial_graph"])
    def test_two_leg_intersection_with_parallel_edges(self, graph_fixture, request):
        graph = request.getfixturevalue(graph_fixture)
        store = IndexStore(graph, PrimaryIndex(graph))

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c", "b"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            query.add_edge("a", "b", name="e0")
            query.add_edge("c", "b", name="e1")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(store, "a", "b", "e0", track_edge=True),
                            _forward_leg(store, "c", "b", "e1", track_edge=True),
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(graph, factory)
        for row in rows:
            assert int(graph.edge_src[row["e0"]]) == row["a"]
            assert int(graph.edge_dst[row["e0"]]) == row["b"]
            assert int(graph.edge_src[row["e1"]]) == row["c"]
            assert int(graph.edge_dst[row["e1"]]) == row["b"]

    def test_edge_partitioned_leg(self, financial_graph):
        primary = PrimaryIndex(financial_graph)
        view = TwoHopView(
            "cheaper",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eadj", "amt"), "<", prop("eb", "amt"))),
        )
        edge_index = EdgePartitionedIndex(
            financial_graph, view, IndexConfig.default(), primary
        )
        store = IndexStore(financial_graph, primary)

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "b", "c"):
                query.add_vertex(name)
            query.add_edge("a", "b", name="e0")
            query.add_edge("b", "c", name="e1")
            epath = AccessPath(
                index=edge_index,
                kind="edge_secondary",
                direction=Direction.FORWARD,
                key_values=(),
                sort_keys=tuple(edge_index.config.sort_keys),
                uses_bound_edge=True,
            )
            leg = ExtensionLeg(
                access_path=epath,
                bound_var="e0",
                target_var="c",
                edge_var="e1",
                track_edge=True,
            )
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b",
                        legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="c", legs=[leg], vectorized=vectorized
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        for row in rows:
            assert int(
                financial_graph.edge_property(row["e1"], "amt")
            ) < int(financial_graph.edge_property(row["e0"], "amt"))


class TestMultiExtendEquivalence:
    def _city_store(self, graph, presorted):
        city_key = SortKey.nbr_property("city")
        if presorted:
            config = IndexConfig(
                partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
            )
        else:
            config = IndexConfig.flat()
        return IndexStore(graph, PrimaryIndex(graph, config=config)), city_key

    @pytest.mark.parametrize("presorted", [True, False])
    @pytest.mark.parametrize("shared_target", [True, False])
    def test_city_join(self, financial_graph, presorted, shared_target):
        store, city_key = self._city_store(financial_graph, presorted)
        limit = 40  # keep the per-row oracle fast

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            if shared_target:
                query.add_vertex("b")
                query.add_edge("a", "b", name="e0")
                query.add_edge("c", "b", name="e1")
                targets = ("b", "b")
            else:
                query.add_vertex("b1")
                query.add_vertex("b2")
                query.add_edge("a", "b1", name="e0")
                query.add_edge("c", "b2", name="e1")
                targets = ("b1", "b2")
            legs = [
                _forward_leg(store, "a", targets[0], "e0", track_edge=True),
                _forward_leg(store, "c", targets[1], "e1", track_edge=True),
            ]
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(
                        var="a",
                        predicate=Predicate.of(cmp(prop("a", "ID"), "<", limit)),
                    ),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    MultiExtend(
                        legs=legs,
                        equality_key=city_key,
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        city = financial_graph.vertex_props.column("city")
        for row in rows:
            target_a = row["b"] if shared_target else row["b1"]
            target_c = row["b"] if shared_target else row["b2"]
            assert city[target_a] == city[target_c]


class TestMultiLegKernelEquivalence:
    """Randomized vectorized-vs-per-row equivalence for the kernel paths.

    Exercises the batch-wide intersection kernel through 2- and 3-leg
    ExtendIntersect and MULTI-EXTEND on random graphs with parallel edges,
    sorted-range filters (unsorted-by-neighbour legs) and rows whose
    intersection is empty.
    """

    def _random_graph(self, seed, num_vertices=40, num_edges=240):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=num_vertices,
                num_edges=num_edges,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.6,
                seed=seed,
            )
        )
        # Dense enough that parallel edges are present (they stress the
        # combination expansion of the kernel).
        pairs = graph.edge_src.astype(np.int64) * graph.num_vertices + graph.edge_dst
        assert len(np.unique(pairs)) < graph.num_edges
        return graph

    @pytest.mark.parametrize("seed", [2, 13, 31])
    def test_three_leg_intersection(self, seed):
        graph = self._random_graph(seed)
        store = IndexStore(graph, PrimaryIndex(graph))
        limit = 25

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c", "d", "b"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            query.add_edge("a", "d", name="ed")
            query.add_edge("a", "b", name="e0")
            query.add_edge("c", "b", name="e1")
            query.add_edge("d", "b", name="e2")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(
                        var="a",
                        predicate=Predicate.of(cmp(prop("a", "ID"), "<", limit)),
                    ),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="d",
                        legs=[_forward_leg(store, "a", "d", "ed")],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(store, "a", "b", "e0", track_edge=True),
                            _forward_leg(store, "c", "b", "e1", track_edge=True),
                            _forward_leg(store, "d", "b", "e2", track_edge=True),
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(graph, factory)
        for row in rows:
            assert int(graph.edge_dst[row["e0"]]) == row["b"]
            assert int(graph.edge_dst[row["e1"]]) == row["b"]
            assert int(graph.edge_dst[row["e2"]]) == row["b"]

    @pytest.mark.parametrize("seed", [1, 19])
    def test_two_leg_with_sorted_filter_legs(self, financial_graph, seed):
        """Legs behind a date-sorted index (not neighbour-sorted) with a
        sorted-range filter: the kernel must segment-sort both legs."""
        date_key = SortKey.edge_property("date")
        config = IndexConfig(
            partition_keys=(), sort_keys=(date_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        rng = np.random.default_rng(seed)
        threshold = int(rng.integers(300, 1200))
        sorted_filter = SortedRangeFilter(
            sort_key=date_key, op=CompareOp.LT, value=threshold
        )

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c", "b"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            query.add_edge("a", "b", name="e0")
            query.add_edge("c", "b", name="e1")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(
                                store,
                                "a",
                                "b",
                                "e0",
                                track_edge=True,
                                sorted_filter=sorted_filter,
                            ),
                            _forward_leg(store, "c", "b", "e1", track_edge=True),
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        for row in rows:
            assert int(financial_graph.edge_property(row["e0"], "date")) < threshold

    def test_two_leg_rows_with_empty_intersection(self):
        """Sparse random graph: most rows intersect to nothing."""
        graph = self._random_graph(97, num_vertices=60, num_edges=150)
        store = IndexStore(graph, PrimaryIndex(graph))

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c", "b"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            query.add_edge("a", "b", name="e0")
            query.add_edge("c", "b", name="e1")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="b",
                        legs=[
                            _forward_leg(store, "a", "b", "e0", track_edge=True),
                            _forward_leg(store, "c", "b", "e1", track_edge=True),
                        ],
                        vectorized=vectorized,
                    ),
                ],
            )

        _assert_paths_equivalent(graph, factory)

    def test_single_leg_multi_extend(self, financial_graph):
        """MULTI-EXTEND with one leg (regression: the kernel must accept it)."""
        city_key = SortKey.nbr_property("city")
        config = IndexConfig(
            partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )

        def factory(vectorized):
            query = QueryGraph("q")
            query.add_vertex("a")
            query.add_vertex("b")
            query.add_edge("a", "b", name="e0")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(
                        var="a",
                        predicate=Predicate.of(cmp(prop("a", "ID"), "<", 30)),
                    ),
                    MultiExtend(
                        legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                        equality_key=city_key,
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        assert rows  # the plan extends every out-edge of the scanned vertices
        for row in rows:
            assert int(financial_graph.edge_src[row["e0"]]) == row["a"]
            assert int(financial_graph.edge_dst[row["e0"]]) == row["b"]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_three_leg_multi_extend(self, financial_graph, seed):
        """3-leg MULTI-EXTEND city join, mixed shared/distinct targets."""
        city_key = SortKey.nbr_property("city")
        config = IndexConfig(
            partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
        )
        store = IndexStore(
            financial_graph, PrimaryIndex(financial_graph, config=config)
        )
        rng = np.random.default_rng(seed)
        limit = int(rng.integers(8, 20))

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "c"):
                query.add_vertex(name)
            query.add_edge("a", "c", name="ec")
            query.add_vertex("b")
            query.add_vertex("b2")
            query.add_edge("a", "b", name="e0")
            query.add_edge("c", "b", name="e1")
            query.add_edge("c", "b2", name="e2")
            legs = [
                _forward_leg(store, "a", "b", "e0", track_edge=True),
                _forward_leg(store, "c", "b", "e1", track_edge=True),
                _forward_leg(store, "c", "b2", "e2", track_edge=True),
            ]
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(
                        var="a",
                        predicate=Predicate.of(cmp(prop("a", "ID"), "<", limit)),
                    ),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "a", "c", "ec")],
                        vectorized=vectorized,
                    ),
                    MultiExtend(
                        legs=legs,
                        equality_key=city_key,
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(financial_graph, factory)
        city = financial_graph.vertex_props.column("city")
        for row in rows:
            assert city[row["b"]] == city[row["b2"]]


class TestJoinEntriesNaN:
    """The per-row oracle and the kernel must agree on NaN equality keys:
    NaN never joins across legs, and a NaN run expands each entry once."""

    def _op(self):
        leg = ExtensionLeg(
            access_path=None,
            bound_var="a",
            target_var="b",
            edge_var="e0",
            track_edge=True,
        )
        return MultiExtend(legs=[leg], equality_key=SortKey.nbr_property("city"))

    def test_single_leg_nan_run_expands_once(self):
        from repro.storage.intersect import intersect_segments

        edges = np.array([10, 11, 12], dtype=np.int64)
        nbrs = np.array([100, 101, 102], dtype=np.int64)
        keys = np.array([1.0, np.nan, np.nan])
        targets, edge_cols, produced = self._op()._join_entries(
            [(edges, nbrs, keys)]
        )
        assert produced == 3
        assert targets["b"].tolist() == [100, 101, 102]
        assert edge_cols["e0"].tolist() == [10, 11, 12]
        kernel = intersect_segments([keys], [np.array([3])], 1, [True])
        assert kernel.total == produced

    def test_nan_never_joins_across_legs(self):
        leg2 = ExtensionLeg(
            access_path=None,
            bound_var="c",
            target_var="b2",
            edge_var="e1",
            track_edge=True,
        )
        op = MultiExtend(
            legs=self._op().legs + [leg2],
            equality_key=SortKey.nbr_property("city"),
        )
        entries = [
            (
                np.array([10, 11], dtype=np.int64),
                np.array([100, 101], dtype=np.int64),
                np.array([1.0, np.nan]),
            ),
            (
                np.array([20, 21], dtype=np.int64),
                np.array([200, 201], dtype=np.int64),
                np.array([1.0, np.nan]),
            ),
        ]
        targets, edge_cols, produced = op._join_entries(entries)
        assert produced == 1  # only the 1.0 keys join; NaN != NaN
        assert targets["b"].tolist() == [100]
        assert targets["b2"].tolist() == [200]


class TestScanPushdown:
    """Chunked ScanVertices: label/predicate filtering inside the scan."""

    def test_chunked_scan_matches_full_materialization(
        self, financial_graph, monkeypatch
    ):
        from repro.query import operators as operators_module

        monkeypatch.setattr(operators_module, "_SCAN_CHUNK_MIN", 16)
        predicate = Predicate.of(cmp(prop("a", "ID"), "<", 70))
        plan = QueryPlan(
            query=_two_vertex_query(),
            operators=[ScanVertices(var="a", predicate=predicate)],
        )
        batch_size = 16
        stats = ExecutionStats()
        batches = list(
            Executor(financial_graph, batch_size=batch_size).execute(
                plan, stats=stats
            )
        )
        scanned = np.concatenate([batch.column("a") for batch in batches])
        expected = np.arange(70, dtype=np.int64)
        assert scanned.tolist() == expected.tolist()
        # Survivors are packed into full batches regardless of chunking.
        assert all(len(batch) == batch_size for batch in batches[:-1])
        assert 0 < len(batches[-1]) <= batch_size
        # Predicate is evaluated once per candidate, exactly as before.
        assert stats.predicate_evaluations == financial_graph.num_vertices
        assert stats.intermediate_rows == 70

    def test_chunked_scan_with_label(self, example_graph, monkeypatch):
        from repro.query import operators as operators_module

        monkeypatch.setattr(operators_module, "_SCAN_CHUNK_MIN", 2)
        plan = QueryPlan(
            query=_two_vertex_query(),
            operators=[ScanVertices(var="a", label="Account")],
        )
        batches = list(Executor(example_graph, batch_size=3).execute(plan))
        scanned = np.concatenate([batch.column("a") for batch in batches])
        assert scanned.tolist() == example_graph.vertices_with_label(
            "Account"
        ).tolist()


class TestRandomizedGraphs:
    """Vectorized stack vs per-row stack vs the naive oracle on random graphs."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_two_path_matches_everything(self, seed):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=50,
                num_edges=220,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.6,
                seed=seed,
            )
        )
        store = IndexStore(graph, PrimaryIndex(graph))

        def factory(vectorized):
            query = QueryGraph("q")
            for name in ("a", "b", "c"):
                query.add_vertex(name)
            query.add_edge("a", "b", name="e0")
            query.add_edge("b", "c", name="e1")
            return QueryPlan(
                query=query,
                operators=[
                    ScanVertices(var="a"),
                    ExtendIntersect(
                        target_var="b",
                        legs=[_forward_leg(store, "a", "b", "e0", track_edge=True)],
                        vectorized=vectorized,
                    ),
                    ExtendIntersect(
                        target_var="c",
                        legs=[_forward_leg(store, "b", "c", "e1", track_edge=True)],
                        vectorized=vectorized,
                    ),
                ],
            )

        rows = _assert_paths_equivalent(graph, factory)

        query = QueryGraph("q")
        for name in ("a", "b", "c"):
            query.add_vertex(name)
        query.add_edge("a", "b", name="e0")
        query.add_edge("b", "c", name="e1")
        naive = NaiveMatcher(graph).match(query)
        key = lambda row: tuple(sorted(row.items()))
        assert sorted(map(key, rows)) == sorted(map(key, naive))

    @pytest.mark.parametrize("seed", [5, 11])
    def test_database_default_stack_matches_naive(self, seed):
        graph = generate_labelled_graph(
            LabelledGraphSpec(
                num_vertices=40,
                num_edges=160,
                num_vertex_labels=2,
                num_edge_labels=2,
                skew=0.5,
                seed=seed,
            )
        )
        db = Database(graph)
        query = QueryGraph("tri")
        for name in ("a", "b", "c"):
            query.add_vertex(name)
        query.add_edge("a", "b", name="e0")
        query.add_edge("b", "c", name="e1")
        query.add_edge("a", "c", name="e2")
        assert db.count(query) == NaiveMatcher(graph).count(query)
