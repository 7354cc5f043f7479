"""Differential coverage of the count-only factorized suffix.

``count()`` (and ``run(factorized=True)``) drive the factorized suffix
*count-only*: legs without a residual read CSR offsets (bisected under a
sorted-range filter), legs with one fetch once per distinct bound key,
multi-leg intersections share their lists — one list space when every leg
reads the same lists
(:meth:`repro.query.operators.ExtendIntersect.count_factorized`).  Every
shape here runs on a graph built to make keys repeat — a few hubs, parallel
edges, vertices without out-edges — and is pinned three ways:

* the count equals the flat pipeline's and the independent
  :class:`~repro.query.naive.NaiveMatcher`'s;
* the logical :class:`~repro.query.operators.ExecutionStats` equal those of
  the same count with sharing switched off (the per-row paths) and, for
  the counters both define, of the ``vectorized=False`` tuple-at-a-time
  path — on the serial executor at batch sizes on both sides of every
  sharing gate, and on thread x2 and process x2;
* a count over the process backend's worker body ships no candidate
  arrays.
"""

from __future__ import annotations

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import Database
from repro.graph import Direction, GraphBuilder
from repro.graph.generators import HubSkewedGraphSpec, generate_hub_skewed_graph
from repro.graph.types import EdgeAdjacencyType
from repro.index.config import IndexConfig
from repro.index.edge_partitioned import EdgePartitionedIndex
from repro.index.index_store import AccessPath
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.query import PlanRunner, QueryGraph
from repro.query.backends import (
    MorselTaskSpec,
    _PLAN_IDS,
    WorkerPayload,
    _worker_run,
)
from repro.query.binding import MatchBatch
from repro.query.executor import CountSink
from repro.query.factorized import FLAG_TABLE_DENSITY, SharedKeys
from repro.query.naive import NaiveMatcher
from repro.query import operators
from repro.query.operators import (
    ExecutionContext,
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    MultiExtend,
    ScanVertices,
)
from repro.query.plan import QueryPlan
from repro.storage import intersect
from repro.storage.intersect import count_shared_intersections
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey

#: Counters with one meaning on every path: per-row accounting.
LOGICAL = (
    "lists_accessed",
    "list_entries_fetched",
    "predicate_evaluations",
    "intermediate_rows",
    "output_rows",
    "combos_avoided",
)


def _logical(stats: ExecutionStats) -> dict:
    return {name: getattr(stats, name) for name in LOGICAL}


# ----------------------------------------------------------------------
# the graph: hubs, parallel edges, empty lists, a float and an int property
# ----------------------------------------------------------------------
def _hub_graph():
    rng = np.random.default_rng(5)
    num_vertices, num_hubs, num_edges = 240, 6, 440
    builder = GraphBuilder()
    for vertex in range(num_vertices):
        builder.add_vertex(f"VL{vertex % 2}", city=f"c{int(rng.integers(0, 3))}")
    # The last ten vertices stay isolated: their lists are empty.
    hubs = rng.choice(num_vertices - 10, size=num_hubs, replace=False)

    def endpoints():
        return np.where(
            rng.random(num_edges) < 0.5,
            rng.choice(hubs, num_edges),
            rng.integers(0, num_vertices - 10, num_edges),
        )

    src, dst = endpoints(), endpoints()
    # Thirty parallel edges: intersections must count them as products.
    src = np.concatenate([src, src[:30]])
    dst = np.concatenate([dst, dst[:30]])
    total = len(src)
    builder.add_edges(
        src,
        dst,
        [f"EL{edge % 2}" for edge in range(total)],
        properties={
            "w": rng.random(total).round(2).tolist(),
            "amt": rng.integers(1, 100, total).tolist(),
        },
    )
    return builder.build()


def _skewed_graph():
    """``generate_hub_skewed_graph`` with parallel edges, two edge labels (an
    unlabelled leg reads across both partitions, so its list is not sorted on
    the neighbour) and two vertex properties to filter targets on."""
    base = generate_hub_skewed_graph(
        HubSkewedGraphSpec(num_vertices=160, num_edges=700, skew=1.0, seed=9)
    )
    rng = np.random.default_rng(9)
    src = np.concatenate([base.edge_src, base.edge_src[:80]])
    dst = np.concatenate([base.edge_dst, base.edge_dst[:80]])
    builder = GraphBuilder()
    for _vertex in range(base.num_vertices):
        builder.add_vertex(
            "V",
            acc="CQ" if rng.random() < 0.85 else "SV",
            city=f"c{int(rng.integers(0, 3))}",
        )
    builder.add_edges(src, dst, [f"EL{edge % 2}" for edge in range(len(src))])
    return builder.build()


def _pattern(name, edges, vertex_labels=None, edge_labels=None):
    query = QueryGraph(name)
    for var in sorted({var for edge in edges for var in edge}):
        query.add_vertex(var, label=(vertex_labels or {}).get(var))
    for position, (src, dst) in enumerate(edges):
        query.add_edge(
            src, dst, label=(edge_labels or {}).get(position), name=f"e{position}"
        )
    return query


_PATH = [("a", "b"), ("b", "c"), ("c", "d")]
_ALTERNATING = {"a": "VL0", "b": "VL1", "c": "VL0", "d": "VL1"}


def _mf1_shape():
    """MF1: a 4-cycle, every vertex filtered, ``a2.city = a4.city``."""
    query = _pattern("mf1_shape", [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a1")])
    for var in ("a1", "a2", "a3", "a4"):
        query.add_predicate(cmp(prop(var, "acc"), "=", "CQ"))
    query.add_predicate(cmp(prop("a2", "city"), "=", prop("a4", "city")))
    return query


def _heavy_tail():
    query = _pattern("heavy_tail", _PATH, edge_labels={0: "EL0", 1: "EL1", 2: "EL0"})
    query.add_predicate(cmp(prop("e2", "w"), "<", 0.5))
    # A selective scan so the plan runs a -> d and filters in the suffix.
    query.add_predicate(cmp(prop("a", "ID"), "<", 60))
    return query


#: name -> (database, query factory, whether some batch must share keys)
SHAPES = {
    # single filtered leg over a repeating key (SQ9's last EXTEND)
    "path": ("default", lambda: _pattern("path", _PATH, _ALTERNATING), True),
    # single unfiltered leg: offsets only, nothing to share
    "plain_path": (
        "default",
        lambda: _pattern("plain_path", _PATH, edge_labels={0: "EL0", 1: "EL1", 2: "EL0"}),
        False,
    ),
    # the scan variable cannot repeat: the static gate keeps the per-row path
    "one_hop": (
        "default",
        lambda: _pattern("one_hop", [("a", "b")], {"a": "VL0", "b": "VL1"}),
        False,
    ),
    "star": (
        "default",
        lambda: _pattern(
            "star",
            [("a", "b"), ("a", "c"), ("a", "d")],
            {"a": "VL0", "b": "VL1", "c": "VL0", "d": "VL1"},
        ),
        False,
    ),
    # multi-leg suffixes: E/I x2 (SQ6/SQ10) and E/I x3 (SQ8)
    "diamond": (
        "default",
        lambda: _pattern(
            "diamond",
            [("a", "b"), ("a", "d"), ("b", "c"), ("d", "c")],
            {"a": "VL0", "c": "VL0"},
            {0: "EL0", 1: "EL1"},
        ),
        True,
    ),
    "chord": (
        "default",
        lambda: _pattern(
            "chord",
            [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d")],
            {"a": "VL0", "b": "VL1", "c": "VL0", "d": "VL0"},
            {0: "EL0", 2: "EL1", 5: "EL0"},
        ),
        True,
    ),
    "tailed_triangle": (
        "default",
        lambda: _pattern(
            "tailed_triangle",
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
            {"a": "VL0", "d": "VL1"},
            {0: "EL0"},
        ),
        True,
    ),
    # lists sorted on a float property: a sorted-range filter in the suffix
    # (its only filter, so it counts the searched runs, once per distinct
    # key, and reads no list), and intersections over legs that are not
    # presorted on neighbour ID
    "heavy_tail": ("float_sorted", _heavy_tail, True),
    "unsorted_diamond": (
        "float_sorted",
        lambda: _pattern(
            "unsorted_diamond",
            [("a", "b"), ("a", "d"), ("b", "c"), ("d", "c")],
            {"a": "VL0", "c": "VL0"},
            {0: "EL0", 1: "EL1"},
        ),
        True,
    ),
    # the tuned workload's two intersections, on a hub-skewed graph: MR2
    # (two extends out of a1, then E/I x2 on backward lists) and MF1 (the
    # E/I's legs are unsorted and one filters its target vertex)
    "mr2_shape": (
        "skewed",
        lambda: _pattern(
            "mr2_shape",
            [("a1", "a2"), ("a1", "a3"), ("a4", "a2"), ("a4", "a3")],
            edge_labels={0: "EL0", 1: "EL1"},
        ),
        True,
    ),
    "mf1_shape": ("skewed", _mf1_shape, True),
    # every E/I leg on one index under one label, unfiltered and
    # neighbour-sorted: the legs share one list space (MR2 under D, and the
    # closing legs of a labelled triangle)
    "labelled_mr2": (
        "skewed",
        lambda: _pattern(
            "labelled_mr2",
            [("a1", "a2"), ("a1", "a3"), ("a4", "a2"), ("a4", "a3")],
            edge_labels=dict.fromkeys(range(4), "EL0"),
        ),
        True,
    ),
    "labelled_triangle": (
        "default",
        lambda: _pattern(
            "labelled_triangle",
            [("a", "b"), ("b", "c"), ("a", "c")],
            edge_labels=dict.fromkeys(range(3), "EL0"),
        ),
        True,
    ),
}


class _Fixture:
    """Graph, databases, plans and oracles, built once per session."""

    def __init__(self) -> None:
        self.graph = _hub_graph()
        self.databases = {
            "skewed": Database(_skewed_graph()),
            "default": Database(self.graph),
            "float_sorted": Database(
                self.graph,
                primary_config=IndexConfig(
                    partition_keys=(PartitionKey.edge_label(),),
                    sort_keys=(SortKey.edge_property("w"), SortKey.neighbour_id()),
                ),
            ),
        }
        self.plans = {}
        #: shape name -> the graph its plan runs on
        self.graphs = {"rising_tail": self.graph}
        for name, (database, factory, _shares) in SHAPES.items():
            query = factory()
            self.plans[name] = (query, self.databases[database].plan(query))
            self.graphs[name] = self.databases[database].graph
        self.plans["rising_tail"] = self._rising_tail()

    def _rising_tail(self):
        """A hand-built plan whose suffix reads an edge-partitioned index.

        The last leg is bound to the *edge* ``e1`` and its residual mentions
        the outer bound vertex ``b``, so it keys on ``(e1, b)``.
        """
        query = _pattern("rising_tail", _PATH, {"a": "VL0"})
        query.add_predicate(cmp(prop("e1", "amt"), "<", prop("e2", "amt")))
        query.add_predicate(cmp(prop("b", "city"), "=", prop("d", "city")))
        store = self.databases["default"].store
        view = TwoHopView(
            "Rising",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eb", "amt"), "<", prop("eadj", "amt"))),
        )
        index = EdgePartitionedIndex(
            self.graph, view, IndexConfig.flat(), store.primary
        )
        forward = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]

        def hop(bound, target, edge_var, **kwargs):
            return ExtensionLeg(
                access_path=forward,
                bound_var=bound,
                target_var=target,
                edge_var=edge_var,
                presorted_by_nbr=forward.sorted_by_neighbour_id,
                **kwargs,
            )

        tail = ExtensionLeg(
            access_path=AccessPath(
                index=index,
                kind="edge_secondary",
                direction=Direction.FORWARD,
                sort_keys=tuple(index.config.sort_keys),
                uses_bound_edge=True,
            ),
            bound_var="e1",
            target_var="d",
            edge_var="e2",
            residual=Predicate.of(cmp(prop("b", "city"), "=", prop("d", "city"))),
        )
        plan = QueryPlan(
            query=query,
            operators=[
                ScanVertices(var="a", label="VL0"),
                ExtendIntersect(target_var="b", legs=[hop("a", "b", "e0")]),
                ExtendIntersect(
                    target_var="c", legs=[hop("b", "c", "e1", track_edge=True)]
                ),
                ExtendIntersect(target_var="d", legs=[tail]),
            ],
        )
        return query, plan


@pytest.fixture(scope="module")
def fx():
    return _Fixture()


ALL_SHAPES = tuple(SHAPES) + ("rising_tail",)
SHARING = {name for name, (_db, _factory, shares) in SHAPES.items() if shares} | {
    "rising_tail"
}


def _rowwise(plan: QueryPlan) -> QueryPlan:
    """The same plan on the tuple-at-a-time operators (flat only)."""
    return QueryPlan(
        query=plan.query,
        operators=[
            dataclasses.replace(operator, vectorized=False)
            if isinstance(operator, (ExtendIntersect, MultiExtend))
            else operator
            for operator in plan.operators
        ],
    )


def _count_only(runner, plan):
    stats = ExecutionStats()
    count = CountSink().drain(runner.execute(plan, stats=stats, count_only=True))
    return count, stats


# ----------------------------------------------------------------------
# plan shapes: the cases are what they claim to be
# ----------------------------------------------------------------------
def test_shapes_cover_the_intended_paths(fx):
    def suffix(name):
        plan = fx.plans[name][1]
        return plan, plan.operators[plan.factorized_suffix_start() :]

    plan, operators = suffix("path")
    assert [len(op.legs) for op in operators] == [1]
    assert not operators[0].legs[0].is_unfiltered
    assert plan.suffix_keys_may_repeat(operators[0])

    plan, operators = suffix("plain_path")
    assert operators[-1].legs[0].is_unfiltered

    for name in ("one_hop", "star"):
        plan, operators = suffix(name)
        assert operators and not any(
            plan.suffix_keys_may_repeat(op) for op in operators
        )
        assert "per distinct key" not in plan.describe()

    assert [len(op.legs) for op in suffix("diamond")[1]] == [2]
    assert [len(op.legs) for op in suffix("chord")[1]] == [3]
    assert "per distinct key" in fx.plans["chord"][1].describe()

    leg = suffix("heavy_tail")[1][0].legs[0]
    assert leg.sorted_filter is not None and leg.sorted_filter.sort_key.prop == "w"
    assert not all(leg.presorted_by_nbr for leg in suffix("unsorted_diamond")[1][0].legs)

    plan, operators = suffix("rising_tail")
    assert operators[0].legs[0].key_vars() == ("e1", "b")
    # e1 is tracked over a vertex that already repeats, so it may repeat too
    assert plan.may_repeat("e1", operators[0])


def test_may_repeat_static_rules(fx):
    """Scan variable at the first extension; an edge tracked over it."""
    store = fx.databases["default"].store
    forward = store.find_vertex_access_paths(Direction.FORWARD, Predicate.true())[0]

    def hop(bound, target, edge_var, **kwargs):
        return ExtendIntersect(
            target_var=target,
            legs=[
                ExtensionLeg(
                    access_path=forward,
                    bound_var=bound,
                    target_var=target,
                    edge_var=edge_var,
                    **kwargs,
                )
            ],
        )

    query = _pattern("q", _PATH)
    last = hop("c", "d", "e2")
    plan = QueryPlan(
        query=query,
        operators=[
            ScanVertices(var="a"),
            hop("a", "b", "e0", track_edge=True),
            hop("b", "c", "e1", track_edge=True),
            last,
        ],
    )
    first, second = plan.operators[1], plan.operators[2]
    assert not plan.may_repeat("a", first)
    assert plan.may_repeat("a", second) and plan.may_repeat("b", second)
    assert not plan.may_repeat("e0", second)
    # e1 hangs off b, which repeats: nothing is repeat-free any more
    assert all(plan.may_repeat(var, last) for var in ("a", "b", "c", "e0", "e1"))


# ----------------------------------------------------------------------
# counts and logical stats, serial, on both sides of every gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SHAPES)
def test_count_matches_flat_and_naive(fx, name):
    query, plan = fx.plans[name]
    executor = PlanRunner(fx.graphs[name])
    flat = executor.count(plan, factorized=False)
    assert flat == NaiveMatcher(fx.graphs[name]).count(query)
    assert executor.count(plan) == flat
    assert executor.run(plan, factorized=True).count == flat


@pytest.mark.parametrize(
    "name,batch_size",
    [(name, size) for name in ALL_SHAPES for size in (16, 1024)]
    # one-row and odd batches too for the tuned workload's intersections
    + [(name, size) for name in ("mr2_shape", "mf1_shape") for size in (1, 7)],
)
def test_logical_stats_match_the_per_row_paths(fx, name, batch_size, monkeypatch):
    _query, plan = fx.plans[name]
    executor = PlanRunner(fx.graphs[name], batch_size=batch_size)
    count, stats = _count_only(executor, plan)
    # No merge point: the flat stages take one row per partial match; a
    # flat E/I still reads a repeated key's lists once.
    monkeypatch.setattr(QueryPlan, "merge_points", lambda self: {})
    unmerged_count, unmerged = _count_only(executor, plan)
    assert count == unmerged_count
    # segments_emitted follows batch boundaries: a stage fed merged rows
    # emits fewer rows, hence fewer batches.
    assert dataclasses.replace(stats, segments_emitted=0) == dataclasses.replace(
        unmerged, segments_emitted=0
    )
    # The plan's "no key repeats" verdict compiles every suffix operator
    # onto its per-row path, and a sharing gate no batch passes keeps every
    # flat E/I on one list per row: the same count with no list shared.
    monkeypatch.setattr(QueryPlan, "suffix_keys_may_repeat", lambda self, op: False)
    monkeypatch.setattr(operators, "_SHARE_MIN_REPEAT", 1 << 40)
    per_row_count, per_row = _count_only(executor, plan)
    assert count == per_row_count
    assert unmerged == per_row  # every compared counter, segments_emitted included
    assert per_row.lists_shared == per_row.entries_shared == 0

    if len(plan.operators) - plan.factorized_suffix_start() == 1:
        # One suffix operator: the flat path reads exactly the same lists.
        rowwise = PlanRunner(fx.graphs[name], batch_size=batch_size).run(_rowwise(plan))
        assert rowwise.count == count
        for counter in ("lists_accessed", "list_entries_fetched", "predicate_evaluations"):
            assert getattr(stats, counter) == getattr(rowwise.stats, counter)
        assert (
            stats.intermediate_rows + stats.combos_avoided
            == rowwise.stats.intermediate_rows
        )

    if name not in SHARING:
        assert unmerged.lists_shared == unmerged.entries_shared == 0
    elif batch_size == 1024:
        assert unmerged.lists_shared > 0 and unmerged.entries_shared > 0
        assert unmerged.list_entries_fetched > unmerged.entries_shared


def test_batches_without_repeats_stay_on_the_per_row_path():
    """The path shape over one long chain with eight short-cuts: a count-only
    batch of every row repeats only eight of its ~200 ``c`` keys, under the
    sharing gate, so it keeps the per-row path."""
    num_vertices = 400
    builder = GraphBuilder()
    for vertex in range(num_vertices):
        builder.add_vertex(f"VL{vertex % 2}")
    # b -> b + 3 meets the chain's b + 2 -> b + 3: that c is reached twice.
    shortcuts = np.arange(1, 80, 10)
    src = np.concatenate([np.arange(num_vertices - 1), shortcuts])
    dst = np.concatenate([np.arange(1, num_vertices), shortcuts + 3])
    builder.add_edges(src, dst, ["EL0"] * len(src))
    graph = builder.build()
    query = _pattern("path", _PATH, _ALTERNATING)
    plan = Database(graph).plan(query)
    assert "per distinct key" in plan.describe()
    count, stats = _count_only(PlanRunner(graph), plan)
    assert count == NaiveMatcher(graph).count(query)
    suffix = f"{plan.factorized_suffix_start() - 1}:extend"
    assert stats.operator_batches[suffix] == 1  # every row in one batch
    assert stats.lists_shared == 0


def test_count_only_range_leg_reads_no_entries(fx, monkeypatch):
    """heavy_tail's suffix leg filters on its sort key alone: count-only
    counts every row's searched run, ``hi - lo``, and the leg never fetches
    (no gather, no ID array)."""
    query, plan = fx.plans["heavy_tail"]
    graph = fx.graphs["heavy_tail"]
    leg = plan.operators[plan.factorized_suffix_start()].legs[0]
    assert leg.sorted_filter is not None and leg.residual.is_true
    flat = PlanRunner(graph).count(plan, factorized=False)
    assert flat == NaiveMatcher(graph).count(query) > 0

    fetched, searched = [], []
    fetch_many = ExtensionLeg.fetch_many

    def spy_fetch(self, context, batch, weights=None):
        fetched.append(self.edge_var)
        return fetch_many(self, context, batch, weights)

    index = leg.access_path.index
    count_many = type(index).count_many

    def spy_count(self, bound_ids, key_values=(), sorted_filter=None, probe_ids=None):
        searched.append(sorted_filter)
        return count_many(self, bound_ids, key_values, sorted_filter, probe_ids)

    monkeypatch.setattr(ExtensionLeg, "fetch_many", spy_fetch)
    monkeypatch.setattr(type(index), "count_many", spy_count)
    for batch_size in (7, 1024):
        fetched.clear()
        searched.clear()
        assert PlanRunner(graph, batch_size=batch_size).count(plan) == flat
        assert leg.edge_var not in fetched
        assert searched and all(found == leg.sorted_filter for found in searched)


# ----------------------------------------------------------------------
# one list space for legs that read the same lists
# ----------------------------------------------------------------------
def _spied_list_spaces(monkeypatch):
    """Record, per ``count_shared_intersections`` call, how many list spaces
    it was handed and for how many legs."""
    calls = []

    def spy(list_keys, list_counts, row_lists, *args, **kwargs):
        calls.append((len(list_keys), len(row_lists)))
        return count_shared_intersections(
            list_keys, list_counts, row_lists, *args, **kwargs
        )

    monkeypatch.setattr("repro.query.operators.count_shared_intersections", spy)
    return calls


@pytest.mark.parametrize("name", ["labelled_mr2", "labelled_triangle"])
def test_one_list_space_matches_the_per_leg_spaces(fx, name, monkeypatch):
    _query, plan = fx.plans[name]
    (multi,) = [
        op for op in plan.operators[plan.factorized_suffix_start():] if len(op.legs) > 1
    ]
    assert multi._one_list_space()
    executor = PlanRunner(fx.graphs[name], batch_size=1024)
    calls = _spied_list_spaces(monkeypatch)
    count, shared = _count_only(executor, plan)
    assert calls and all(spaces == 1 for spaces, _legs in calls)

    calls.clear()
    monkeypatch.setattr(ExtendIntersect, "_one_list_space", lambda self: False)
    per_leg_count, per_leg = _count_only(executor, plan)
    assert calls and all(spaces == legs for spaces, legs in calls)
    assert count == per_leg_count == executor.count(plan, factorized=False)
    assert _logical(shared) == _logical(per_leg)
    assert shared.segments_emitted == per_leg.segments_emitted
    # The union is read once: fewer list reads than one read per leg's key.
    assert shared.lists_accessed - shared.lists_shared < (
        per_leg.lists_accessed - per_leg.lists_shared
    )


@pytest.mark.parametrize(
    "change",
    [
        # one index, another label: the legs' lists differ
        lambda leg: dataclasses.replace(
            leg, access_path=dataclasses.replace(leg.access_path, key_values=("EL1",))
        ),
        # one leg filters its entries
        lambda leg: dataclasses.replace(
            leg, residual=Predicate.of(cmp(prop(leg.edge_var, "w"), "<", 0.5))
        ),
        # one leg's lists are taken as unsorted
        lambda leg: dataclasses.replace(leg, presorted_by_nbr=False),
    ],
    ids=["different_key_values", "filtered_leg", "not_presorted"],
)
def test_legs_that_read_different_lists_keep_their_spaces(fx, change, monkeypatch):
    """labelled_triangle's closing E/I with its second leg changed."""
    query, plan = fx.plans["labelled_triangle"]
    multi = plan.operators[-1]
    changed = dataclasses.replace(multi, legs=[multi.legs[0], change(multi.legs[1])])
    assert multi._one_list_space() and not changed._one_list_space()
    plan = QueryPlan(query=query, operators=plan.operators[:-1] + [changed])
    executor = PlanRunner(fx.graph, batch_size=1024)
    calls = _spied_list_spaces(monkeypatch)
    count, _stats = _count_only(executor, plan)
    assert calls and all(spaces == legs == 2 for spaces, legs in calls)
    assert count == executor.count(plan, factorized=False)


# ----------------------------------------------------------------------
# symmetric rows: (x, y) and (y, x) on one list space are one kernel row
# ----------------------------------------------------------------------
def _spied_kernel_rows(monkeypatch):
    """Record the ``row_lists`` of every ``count_shared_intersections`` call."""
    calls = []

    def spy(list_keys, list_counts, row_lists, *args, **kwargs):
        calls.append(np.stack(row_lists))
        return count_shared_intersections(
            list_keys, list_counts, row_lists, *args, **kwargs
        )

    monkeypatch.setattr("repro.query.operators.count_shared_intersections", spy)
    return calls


def _mirrored_batch(multi, graph):
    """Every ordered pair of the ten longest-listed vertices, twice: each
    row's mirror is in the batch, and every leg's keys repeat."""
    access = multi.legs[0].access_path
    degrees = access.index.count_many(
        np.arange(graph.num_vertices, dtype=np.int64), access.key_values
    )
    hubs = np.argsort(-degrees, kind="stable")[:10]
    x, y = (np.tile(column.ravel(), 2) for column in np.meshgrid(hubs, hubs))
    first, second = (leg.bound_var for leg in multi.legs)
    return MatchBatch({first: x, second: y}), list(zip(x.tolist(), y.tolist()))


def test_symmetric_rows_are_counted_once(fx, monkeypatch):
    """labelled_mr2's E/I: both legs read one list space."""
    query, plan = fx.plans["labelled_mr2"]
    graph = fx.graphs["labelled_mr2"]
    multi = plan.operators[-1]
    assert multi._one_list_space()
    batch, pairs = _mirrored_batch(multi, graph)
    calls = _spied_kernel_rows(monkeypatch)
    context = ExecutionContext(graph=graph, query=query)
    counts = multi.count_factorized(batch, context).cardinalities
    # The per-row segment kernel over the same batch: the flat path's counts.
    flat = multi.extend_factorized(batch, ExecutionContext(graph=graph, query=query))
    assert counts.tolist() == flat.cardinalities.tolist()
    assert counts.sum() > 0 and len(set(counts.tolist())) > 1
    (kernel_rows,) = calls
    assert (kernel_rows[0] <= kernel_rows[1]).all()
    assert kernel_rows.shape[1] == len({tuple(sorted(pair)) for pair in pairs})
    assert kernel_rows.shape[1] < len(set(pairs))
    # The union fetch charges what it always did: every row its own list
    # per leg, the distinct vertices' lists read once.
    access = multi.legs[0].access_path
    index, key_values = access.index, access.key_values
    bound = np.concatenate([batch.column(leg.bound_var) for leg in multi.legs])
    distinct = np.unique(bound)
    entries = int(index.count_many(bound, key_values).sum())
    stats = context.stats
    assert stats.lists_accessed == len(bound)
    assert stats.list_entries_fetched == entries
    assert stats.lists_shared == len(bound) - len(distinct)
    assert stats.entries_shared == entries - int(
        index.count_many(distinct, key_values).sum()
    )
    # The whole query: canonical kernel rows, and the flat and naive counts.
    calls.clear()
    executor = PlanRunner(graph, batch_size=1024)
    assert executor.count(plan) == executor.count(plan, factorized=False)
    assert executor.count(plan) == NaiveMatcher(graph).count(query)
    assert calls and all((rows[0] <= rows[1]).all() for rows in calls)


def test_rows_over_two_list_spaces_keep_their_order(fx, monkeypatch):
    """mf1_shape's E/I reads two indexes: a row's lists are not
    interchangeable, so a row and its mirror stay two kernel rows."""
    query, plan = fx.plans["mf1_shape"]
    graph = fx.graphs["mf1_shape"]
    multi = plan.operators[-1]
    assert not multi._one_list_space()
    batch, pairs = _mirrored_batch(multi, graph)
    calls = _spied_kernel_rows(monkeypatch)
    counts = multi.count_factorized(
        batch, ExecutionContext(graph=graph, query=query)
    ).cardinalities
    flat = multi.extend_factorized(batch, ExecutionContext(graph=graph, query=query))
    assert counts.tolist() == flat.cardinalities.tolist()
    (kernel_rows,) = calls
    assert kernel_rows.shape[1] == len(set(pairs))


# ----------------------------------------------------------------------
# every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backends_agree_with_serial(fx, backend):
    names = (
        ALL_SHAPES
        if backend == "thread"
        else ("path", "chord", "rising_tail", "mr2_shape", "mf1_shape")
    )
    for name in names:
        _query, plan = fx.plans[name]
        count, serial = _count_only(PlanRunner(fx.graphs[name]), plan)
        morsel = PlanRunner(fx.graphs[name], num_workers=2, backend=backend)
        morsel_count, stats = _count_only(morsel, plan)
        assert morsel_count == count, name
        assert _logical(stats) == _logical(serial), name


def test_process_reply_ships_cardinalities_only(fx):
    """The worker body's envelope holds prefix columns and one cardinality
    array per segment — no candidate arrays."""
    _query, plan = fx.plans["path"]
    payload = WorkerPayload(
        plan_id=next(_PLAN_IDS),
        generation=plan.pinned_generation,
        plan=plan,
        graph=fx.graph,
        batch_size=1024,
        count_only=True,
    )
    spec = MorselTaskSpec(
        plan_id=payload.plan_id,
        generation=plan.pinned_generation,
        start=0,
        stop=fx.graph.num_vertices,
    )
    encoded, _stats, _checksum = _worker_run(spec, pickle.dumps(payload))
    assert encoded
    for names, columns, segments, weights in encoded:
        rows = len(columns[0])
        shipped = sum(column.nbytes for column in columns)
        for _targets, cardinalities in segments:
            shipped += cardinalities.nbytes
        # A merged prefix ships one weight per row besides.
        weighted = weights is not None
        shipped += weights.nbytes if weighted else 0
        assert shipped <= rows * 8 * (len(names) + len(segments) + weighted)


# ----------------------------------------------------------------------
# the pieces
# ----------------------------------------------------------------------
def _reference_shared_counts(list_keys, list_counts, row_lists):
    """Per-row loop: ``intersect1d`` on distinct keys, multiplicities as products."""
    starts = [np.cumsum(counts) - counts for counts in list_counts]
    out = []
    for row in range(len(row_lists[0])):
        lists = []
        for keys, counts, begin, chosen in zip(list_keys, list_counts, starts, row_lists):
            which = chosen[row]
            lists.append(keys[begin[which] : begin[which] + counts[which]])
        common = lists[0]
        for other in lists[1:]:
            common = np.intersect1d(common, other)
        out.append(
            sum(
                int(np.prod([np.count_nonzero(entries == key) for entries in lists]))
                for key in common
            )
        )
    return np.asarray(out, dtype=np.int64)


#: A key domain no table could span: ``lists * _SPARSE_DOMAIN`` cells.
_SPARSE_DOMAIN = 1 << 40


def _spied_strategies(monkeypatch):
    """Record ``choose_strategy``'s (probes, entries, span) and verdicts."""
    calls = []
    chooser = intersect.choose_strategy

    def spy(num_candidates, num_entries, span):
        verdict = chooser(num_candidates, num_entries, span)
        calls.append((num_candidates, num_entries, span, verdict))
        return verdict

    monkeypatch.setattr(intersect, "choose_strategy", spy)
    return calls


@pytest.mark.parametrize("num_legs", [2, 3])
@pytest.mark.parametrize("presorted", [True, False])
def test_shared_list_kernel_against_per_row_loop(num_legs, presorted, monkeypatch):
    rng = np.random.default_rng(11 * num_legs + presorted)
    domain, num_rows = 5, 60
    list_keys, list_counts, row_lists = [], [], []
    for leg in range(num_legs):
        num_lists = int(rng.integers(3, 6))
        counts = rng.integers(3, 9, num_lists)
        counts[0] = 0  # an empty list
        lists = [rng.integers(0, domain, count) for count in counts]  # repeats
        if presorted:
            lists = [np.sort(entries) for entries in lists]
        list_keys.append(np.concatenate(lists).astype(np.int64))
        list_counts.append(counts.astype(np.int64))
        row_lists.append(rng.integers(0, num_lists, num_rows))
    want = _reference_shared_counts(list_keys, list_counts, row_lists)
    assert want.sum() > 0 and (want > 1).any()
    # The lists as they are (a dense domain: the table), then re-keyed, order
    # kept, into a domain of 2**40 (the search).
    stretch = _SPARSE_DOMAIN // domain
    verdicts = _spied_strategies(monkeypatch)
    for sparse, keys, key_domain in (
        (False, list_keys, domain),
        (True, [leg_keys * stretch for leg_keys in list_keys], _SPARSE_DOMAIN),
    ):
        verdicts.clear()
        args = (keys, list_counts, row_lists, [presorted] * num_legs, key_domain)
        assert count_shared_intersections(*args).tolist() == want.tolist()
        assert [verdict == "hash" for *_sizes, verdict in verdicts] == [not sparse]
        # Either forced route answers the same (a forced table over the
        # sparse span falls back to the search, as in ``intersect_segments``)
        # and asks no chooser.
        for strategy in ("hash", "merge", "gallop"):
            got = count_shared_intersections(*args, strategy=strategy)
            assert got.tolist() == want.tolist()
        assert len(verdicts) == 1
    with pytest.raises(ValueError):
        count_shared_intersections(*args, strategy="bitmap")


@pytest.mark.parametrize("strategy", [None, "hash", "merge"])
def test_shared_list_kernel_shortest_leg_varies_by_row(strategy):
    """Three legs, one unsorted, one never the shortest; long parallel runs."""
    domain = 50
    hub = np.full(300, 7)  # 300 parallel entries: past a uint8 table cell
    legs = [
        # leg 0: a short list, a long one with a run of 300, an empty one
        [np.array([3, 7, 7]), np.sort(np.concatenate([hub, np.arange(40)])), np.array([], dtype=int)],
        # leg 1: always longer than what the row reads elsewhere
        [np.sort(np.concatenate([hub, hub, np.arange(50)])), np.arange(50).repeat(8)],
        # leg 2 (unsorted): a short list, a long one
        [np.array([9, 7, 3, 7]), np.concatenate([np.arange(49, -1, -1), hub])],
    ]
    list_keys = [np.concatenate(lists).astype(np.int64) for lists in legs]
    list_counts = [np.array([len(entries) for entries in lists]) for lists in legs]
    row_lists = [
        np.array([0, 0, 1, 1, 2, 1, 0]),  # short, short, long, long, empty, long, short
        np.array([0, 1, 0, 1, 0, 0, 1]),
        np.array([1, 0, 0, 1, 1, 1, 0]),  # long, short, short, long, long, long, short
    ]
    lengths = np.stack([counts[lists] for counts, lists in zip(list_counts, row_lists)])
    shortest = set(lengths.argmin(axis=0).tolist())
    assert shortest == {0, 2}  # both differ within the call; leg 1 never is
    want = _reference_shared_counts(list_keys, list_counts, row_lists)
    # row 2: runs of 301, 601 and 2 on key 7, and keys 3 and 9 once each
    assert want[2] == 301 * 601 * 2 + 2 and want[4] == 0
    got = count_shared_intersections(
        list_keys, list_counts, row_lists, [True, True, False], domain, strategy=strategy
    )
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("num_legs", [2, 3])
@pytest.mark.parametrize("strategy", [None, "hash", "merge", "gallop"])
def test_shared_list_kernel_one_space_for_every_leg(num_legs, strategy, monkeypatch):
    """Lists every leg reads, passed once, count as the same lists passed
    once per leg — over a span of one space, not ``num_legs``."""
    rng = np.random.default_rng(17 * num_legs)
    domain, num_lists, num_rows = 6, 7, 90
    counts = rng.integers(0, 9, num_lists)
    counts[2] = 0  # an empty list
    lists = [np.sort(rng.integers(0, domain, count)) for count in counts]  # repeats
    keys = np.concatenate(lists).astype(np.int64)
    row_lists = [rng.integers(0, num_lists, num_rows) for _ in range(num_legs)]
    row_lists[0][:5] = row_lists[1][:5]  # rows reading one list on two legs
    want = _reference_shared_counts([keys] * num_legs, [counts] * num_legs, row_lists)
    assert want.sum() > 0
    verdicts = _spied_strategies(monkeypatch)
    per_leg = count_shared_intersections(
        [keys] * num_legs, [counts] * num_legs, row_lists, [True] * num_legs,
        domain, strategy=strategy,
    )
    shared = count_shared_intersections(
        [keys], [counts], row_lists, [True], domain, strategy=strategy
    )
    assert shared.tolist() == per_leg.tolist() == want.tolist()
    if strategy is None:
        spans = [span for _probes, _entries, span, _verdict in verdicts]
        assert spans == [num_legs * num_lists * domain, num_lists * domain]
    with pytest.raises(ValueError):
        count_shared_intersections(
            [keys, keys], [counts, counts], [row_lists[0]] * 3, [True] * 2, domain
        )


def test_shared_list_kernel_empty_sides():
    empty = np.empty(0, dtype=np.int64)
    counts = count_shared_intersections(
        [np.array([1, 2]), empty],
        [np.array([2]), np.array([0])],
        [np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)],
        [True, True],
        domain=5,
    )
    assert counts.tolist() == [0, 0, 0, 0]
    # every leg empty, and no rows at all
    nothing = count_shared_intersections(
        [empty, empty], [np.array([0, 0]), np.array([0])],
        [np.array([0, 1, 1]), np.zeros(3, dtype=np.int64)], [True, False], domain=5,
    )
    assert nothing.tolist() == [0, 0, 0]
    assert len(count_shared_intersections(
        [np.array([1]), np.array([1])], [np.array([1]), np.array([1])],
        [empty, empty], [True, True], domain=5,
    )) == 0
    with pytest.raises(ValueError):
        count_shared_intersections([empty], [np.array([0])], [empty], [True], domain=5)


def _many_lists(rng, num_lists, list_size, num_rows, domain):
    """Two legs of ``num_lists`` sorted lists each, read by ``num_rows`` rows."""
    list_keys = [
        np.sort(rng.integers(0, domain, (num_lists, list_size)), axis=1).ravel()
        for _ in range(2)
    ]
    list_counts = [np.full(num_lists, list_size, dtype=np.int64)] * 2
    row_lists = [rng.integers(0, num_lists, num_rows) for _ in range(2)]
    return list_keys, list_counts, row_lists


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shared_list_kernel_table_is_sized_by_the_data(monkeypatch):
    """``choose_strategy`` sees ``lists * domain``; allocation follows the data."""
    rng = np.random.default_rng(3)
    num_lists, list_size, num_rows, domain = 200, 50, 4000, 2000
    list_keys, list_counts, row_lists = _many_lists(
        rng, num_lists, list_size, num_rows, domain
    )
    verdicts = _spied_strategies(monkeypatch)
    counts, peak = _traced_peak(
        lambda: count_shared_intersections(
            list_keys, list_counts, row_lists, [True, True], domain
        )
    )
    assert counts.sum() > 0
    probes, entries = num_rows * list_size, 2 * num_lists * list_size
    # all lists of all legs times the domain: nothing about the 4000 rows
    assert verdicts == [(probes, entries, 2 * num_lists * domain, "hash")]
    assert peak <= intersect.HASH_TABLE_DENSITY * (probes + entries) * 8


def test_shared_list_kernel_sparse_domain_allocates_no_table():
    """10 k lists over a 2**40 domain: a table sized by the span cannot exist."""
    rng = np.random.default_rng(4)
    list_keys, list_counts, row_lists = _many_lists(
        rng, 10_000, 8, 20_000, _SPARSE_DOMAIN
    )
    counts, peak = _traced_peak(
        lambda: count_shared_intersections(
            list_keys, list_counts, row_lists, [True, True], _SPARSE_DOMAIN
        )
    )
    assert len(counts) == 20_000
    assert peak <= intersect.HASH_TABLE_DENSITY * (20_000 * 8 + 2 * 80_000) * 8
    # one shared key makes every row match once
    for keys in list_keys:
        keys[::8] = 0
    counts = count_shared_intersections(
        list_keys, list_counts, row_lists, [True, True], _SPARSE_DOMAIN
    )
    assert counts.min() >= 1


def test_shared_list_kernel_bitmap_is_sized_by_the_data(monkeypatch):
    """A domain past the table's span: the bitmap holds one bit per cell
    (8 bytes per probe cover them) within the same bound, parallel entries
    included."""
    rng = np.random.default_rng(5)
    num_lists, list_size, num_rows, domain = 200, 50, 4000, 20_000
    list_keys, list_counts, row_lists = _many_lists(
        rng, num_lists, list_size, num_rows, domain
    )
    for keys in list_keys:
        keys[1::list_size] = keys[::list_size]  # a run of 2 opens every list
    verdicts = _spied_strategies(monkeypatch)
    args = (list_keys, list_counts, row_lists, [True, True], domain)
    want = count_shared_intersections(*args, strategy="hash")
    counts, peak = _traced_peak(
        lambda: count_shared_intersections(*args, strategy="merge")
    )
    assert counts.tolist() == want.tolist() and (want > 1).any()
    probes, entries = num_rows * list_size, 2 * num_lists * list_size
    span = 2 * num_lists * domain
    assert intersect.HASH_TABLE_DENSITY * (probes + entries) < span <= 64 * probes
    assert verdicts == []
    assert peak <= intersect.HASH_TABLE_DENSITY * (probes + entries) * 8
    assert count_shared_intersections(*args).tolist() == want.tolist()
    assert [verdict for *_sizes, verdict in verdicts] == ["merge"]


@pytest.mark.parametrize(
    "domains",
    [
        (40,),  # flag table
        (40 * FLAG_TABLE_DENSITY * 10,),  # sort-based unique
        (40, 7),  # packed pair
        (1 << 40, 1 << 40),  # too wide to pack: grouped as tuples
    ],
)
def test_shared_keys_group_rows(domains):
    rng = np.random.default_rng(len(domains) + domains[0] % 97)
    columns = [rng.integers(0, min(domain, 9), 50) for domain in domains]
    keys = SharedKeys(columns, domains)
    tuples = list(zip(*(column.tolist() for column in columns)))
    assert keys.distinct == len(set(tuples))
    distinct = list(zip(*(column.tolist() for column in keys.columns())))
    assert distinct == sorted(set(tuples))
    assert [distinct[group] for group in keys.inverse()] == tuples
    assert keys.weights().tolist() == [tuples.count(key) for key in distinct]


def test_count_many_equals_list_many_counts(fx):
    store = fx.databases["default"].store
    primary = store.primary.forward
    vertex_ids = np.array([0, 5, 5, 239, 17, 0], dtype=np.int64)
    edge_ids = np.array([3, 3, 100, 469, 0], dtype=np.int64)
    vertex_index = None
    database = Database(fx.graph)
    database.create_vertex_index(
        OneHopView("Big", predicate=Predicate.of(cmp(prop("eadj", "amt"), ">", 50))),
        directions=(Direction.FORWARD,),
        name="Big",
    )
    vertex_index = database.store.vertex_indexes[0]
    edge_index = fx.plans["rising_tail"][1].operators[-1].legs[0].access_path.index
    for index, ids, key_values in (
        (primary, vertex_ids, ()),
        (primary, vertex_ids, ("EL1",)),
        (vertex_index, vertex_ids, ("EL0",)),
        (edge_index, edge_ids, ()),
    ):
        counts = index.count_many(ids, key_values)
        assert counts.tolist() == index.list_many(ids, key_values)[2].tolist()
