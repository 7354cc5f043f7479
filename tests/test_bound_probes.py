"""Sorted-range legs whose probe is a bound variable's property.

A list sorted on the neighbour's ``city`` answers ``a4.city = a5.city`` for
a leg into ``a5`` once ``a4`` is bound: each row searches its list for its
own ``a4``'s city.  The optimizer offers such a conjunct to the leg whether
it is local to the leg (MF2's ``a1.city = a2.city`` on the leg from ``a1``)
or not (MF3's ``a4.city = a5.city`` on the leg from ``a1``), for ``< <= >
>= =`` alike.  Counts must equal :class:`~repro.query.naive.NaiveMatcher`'s
on a graph where most vertices share a city and some have none: a null
never compares equal, nor in order, to anything.  Every path is checked —
batched, tuple-at-a-time (``vectorized=False``) and count-only.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Database, Direction
from repro.graph.builder import GraphBuilder
from repro.graph.types import PropertyType
from repro.index.config import IndexConfig
from repro.index.views import OneHopView
from repro.predicates import PropertyRef, cmp, prop
from repro.query.executor import PlanRunner
from repro.query.naive import NaiveMatcher
from repro.query.operators import ExtendIntersect, MultiExtend
from repro.query.optimizer import Optimizer
from repro.query.pattern import QueryGraph
from repro.query.plan import QueryPlan
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey
from repro.workloads import fraud

CITIES = ["c0"] * 12 + ["c1", "c2", "c3"] + [None] * 3


def _graph(seed: int = 7, num_vertices: int = 48, num_edges: int = 420):
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    builder.declare_vertex_property("rank", PropertyType.INT)
    for _ in range(num_vertices):
        rank = int(rng.integers(0, 6))
        builder.add_vertex(
            "Account",
            city=CITIES[int(rng.integers(0, len(CITIES)))],
            acc=["CQ", "SV"][int(rng.integers(0, 2))],
            rank=None if rng.random() < 0.15 else rank,
        )
    builder.add_edges(
        rng.integers(0, num_vertices, num_edges).tolist(),
        rng.integers(0, num_vertices, num_edges).tolist(),
        [["Wire", "DirDeposit"][int(i)] for i in rng.integers(0, 2, num_edges)],
    )
    return builder.build()


def _database(graph) -> Database:
    db = Database(graph)
    view, config = fraud.vpc_view_and_config()
    db.create_vertex_index(
        view, directions=(Direction.FORWARD, Direction.BACKWARD), config=config, name="VPc"
    )
    db.create_vertex_index(
        OneHopView("VPr"),
        directions=(Direction.FORWARD,),
        config=IndexConfig(
            partition_keys=(PartitionKey.edge_label(),),
            sort_keys=(SortKey.nbr_property("rank"), SortKey.neighbour_id()),
        ),
        name="VPr",
    )
    return db


def _path(name, *predicates) -> QueryGraph:
    query = QueryGraph(name)
    for var in ("a1", "a2", "a3"):
        query.add_vertex(var, label="Account")
    query.add_edge("a1", "a2", name="e1")
    query.add_edge("a2", "a3", name="e2")
    for predicate in predicates:
        query.add_predicate(predicate)
    return query


def _queries():
    mf3 = QueryGraph("mf3_shape")
    for var in ("a1", "a2", "a3", "a4", "a5"):
        mf3.add_vertex(var, label="Account")
    mf3.add_edge("a1", "a2", name="e1")
    mf3.add_edge("a1", "a3", name="e2")
    mf3.add_edge("a3", "a4", name="e3")
    mf3.add_edge("a1", "a5", name="e4")
    mf3.add_predicate(cmp(prop("a2", "city"), "=", prop("a4", "city")))
    mf3.add_predicate(cmp(prop("a4", "city"), "=", prop("a5", "city")))
    mf3.add_predicate(cmp(prop("a5", "acc"), "=", "SV"))
    queries = {
        "mf2_shape": _path(
            "mf2_shape",
            cmp(prop("a1", "city"), "=", prop("a2", "city")),
            cmp(prop("a2", "city"), "=", prop("a3", "city")),
        ),
        "mf3_shape": mf3,
        # a conjunct between the new vertex and a bound one that is not the
        # leg's own: a1 and a3 are two hops apart
        "skip_eq": _path("skip_eq", cmp(prop("a1", "city"), "=", prop("a3", "city"))),
    }
    for op in ("<", "<=", ">", ">="):
        queries[f"rank{op}"] = _path(
            f"rank{op}",
            cmp(prop("a2", "rank"), op, prop("a1", "rank")),
            cmp(prop("a3", "rank"), op, prop("a1", "rank")),
        )
    return queries


@pytest.fixture(scope="module")
def fx():
    """The graph, its database, the queries, their oracle counts, and each
    query's E/I-only plan: on this graph the optimizer answers some city
    equalities with a MULTI-EXTEND instead, so the probe plans are also
    planned with MULTI-EXTEND candidates switched off."""
    graph = _graph()
    db = _database(graph)
    queries = _queries()
    oracle = NaiveMatcher(graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Optimizer, "_multi_extend_candidates", lambda self, state, entry: ())
        extend_only = {name: db.plan(query) for name, query in queries.items()}
    expected = {name: oracle.count(query) for name, query in queries.items()}
    return graph, db, queries, expected, extend_only


def _probe_legs(plan: QueryPlan):
    return [
        leg
        for operator in plan.operators
        if isinstance(operator, (ExtendIntersect, MultiExtend))
        for leg in operator.legs
        if leg.sorted_filter is not None and leg.sorted_filter.probe_var is not None
    ]


def _rowwise(plan: QueryPlan) -> QueryPlan:
    return QueryPlan(
        query=plan.query,
        operators=[
            dataclasses.replace(operator, vectorized=False)
            if isinstance(operator, (ExtendIntersect, MultiExtend))
            else operator
            for operator in plan.operators
        ],
    )


def test_the_graph_is_city_skewed_with_nulls(fx):
    graph = fx[0]
    city = np.asarray(graph.vertex_props.column("city"))
    codes, counts = np.unique(city, return_counts=True)
    assert (city == -1).any()  # null cities
    assert counts.max() > len(city) / 2  # one city holds most vertices


@pytest.mark.parametrize("name", list(_queries()))
def test_probe_plans_count_as_the_oracle(fx, name):
    graph, db, queries, expected, extend_only = fx
    assert expected[name] > 0
    legs = _probe_legs(extend_only[name])
    assert legs, extend_only[name].describe()
    for leg in legs:
        assert f"sorted {leg.sorted_filter.sort_key.describe()} " in leg.describe()
        assert leg.sorted_filter.probe_var in leg.key_vars()
    for plan in (extend_only[name], db.plan(queries[name])):
        for batch_size in (5, 1024):
            executor = PlanRunner(graph, batch_size=batch_size)
            assert executor.count(plan, factorized=False) == expected[name]
            assert executor.run(_rowwise(plan)).count == expected[name]
            assert executor.count(plan) == expected[name]  # count-only where it can
    assert db.count(queries[name]) == expected[name]


def test_rowwise_and_batched_charge_the_same_searched_runs(fx):
    graph, _, _, _, extend_only = fx
    for name in ("mf3_shape", "rank>", "rank<="):
        plan = extend_only[name]
        batched = PlanRunner(graph, batch_size=5).run(plan)
        rowwise = PlanRunner(graph, batch_size=5).run(_rowwise(plan))
        for counter in ("lists_accessed", "list_entries_fetched", "predicate_evaluations"):
            assert getattr(batched.stats, counter) == getattr(rowwise.stats, counter), (
                name,
                counter,
            )


def test_mf3_shape_probes_a_non_local_variable(fx):
    """Both city conjuncts through a4 are answered by searches, none by a
    THEN FILTER, and the count-only suffix reads a4 from the prefix."""
    plan = fx[4]["mf3_shape"]
    probes = {leg.target_var: leg.sorted_filter for leg in _probe_legs(plan)}
    assert "THEN FILTER" not in plan.describe()
    assert any(
        sorted_filter.value == PropertyRef("a4", "city")
        for sorted_filter in probes.values()
    ), plan.describe()
    assert plan.supports_factorized_count


def test_a_null_probe_admits_nothing(fx):
    graph, plan = fx[0], fx[4]["mf2_shape"]
    leg = plan.operators[1].legs[0]
    assert leg.sorted_filter.probe_var == "a1"
    city = np.asarray(graph.vertex_props.column("city"))
    null_vertex = int(np.flatnonzero(city == -1)[0])
    index = leg.access_path.index
    bound = np.array([null_vertex, null_vertex])
    assert index.count_many(bound, (), leg.sorted_filter, bound).tolist() == [0, 0]
    edge_ids, nbr_ids = index.list(null_vertex)
    assert len(leg.sorted_filter.apply(graph, edge_ids, nbr_ids, null_vertex)[0]) == 0
