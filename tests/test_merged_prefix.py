"""Differential coverage of merged rows in count-only pipelines.

A count-only pipeline merges a flat stage's output on the variables later
operators read (:meth:`repro.query.plan.QueryPlan.merge_points`,
:func:`repro.query.operators.merge_rows`): equal projected rows become one
row that carries their number as a weight, so the next stage reads one list
per distinct key.  Every shape here is pinned against the same plan with
merging switched off:

* the count equals it, the flat pipeline's (``count(factorized=False)``)
  and, for the cheapest shapes, the naive matcher's;
* every compared :class:`~repro.query.operators.ExecutionStats` counter
  equals it — the logical counters charge a merged row by its weight —
  except ``segments_emitted``, which follows batch boundaries: a stage fed
  merged rows emits fewer rows, hence fewer batches;

over the SQ zoo on a labelled graph with parallel edges and hand-built
plans with a Filter stage and a MULTI-EXTEND stage; shapes keep an edge
variable and an outer vertex for a later post predicate; at batch sizes 1, 7 and 1024; inline and on the
thread and process backends.  A chain graph whose rows never repeat shows
the runtime gate refusing every merge.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro import Database
from repro.graph import Direction, GraphBuilder
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.index.config import IndexConfig
from repro.index.index_store import IndexStore
from repro.index.primary import PrimaryIndex
from repro.predicates import Predicate, cmp, prop
from repro.query import PlanRunner, QueryGraph, operators, pipeline
from repro.query.binding import MatchBatch
from repro.query.executor import CountSink
from repro.query.factorized import FactorizedBatch, FactorizedSegment, SharedKeys
from repro.query.naive import NaiveMatcher
from repro.query.operators import (
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    ScanVertices,
)
from repro.query.plan import QueryPlan
from repro.storage.sort_keys import SortKey
from repro.workloads import labelled_subgraph

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the process-backend matrix is opt-in; set RUN_FUZZ=1 to run",
)

BATCH_SIZES = (1, 7, 1024)
SQ_NAMES = tuple(f"SQ{i}" for i in range(1, 11))


def _labelled_graph():
    """A ``G_{4,2}`` power-law graph with sixty parallel edges and an int
    edge property ``amt`` and a vertex property ``city`` to filter on."""
    base = generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=150,
            num_edges=2400,
            num_vertex_labels=4,
            num_edge_labels=2,
            skew=0.8,
            seed=39,
        )
    )
    rng = np.random.default_rng(39)
    builder = GraphBuilder()
    for vertex in range(base.num_vertices):
        builder.add_vertex(
            f"VL{int(base.vertex_labels[vertex])}", city=f"c{int(rng.integers(0, 3))}"
        )
    src = np.concatenate([base.edge_src, base.edge_src[:60]])
    dst = np.concatenate([base.edge_dst, base.edge_dst[:60]])
    labels = np.concatenate([base.edge_labels, base.edge_labels[:60]])
    builder.add_edges(
        src,
        dst,
        [f"EL{int(label)}" for label in labels],
        properties={"amt": rng.integers(1, 50, len(src)).tolist()},
    )
    return builder.build()


def _path(name, length, edge_label=None, **labels):
    query = QueryGraph(name)
    names = "abcdefgh"[: length + 1]
    for var in names:
        query.add_vertex(var, label=labels.get(var))
    for position in range(length):
        query.add_edge(
            names[position], names[position + 1], label=edge_label, name=f"e{position}"
        )
    return query


def _rising():
    """A 4-path whose third edge outweighs the second: ``e1`` is kept past
    the merge after ``c``, for the post predicate of ``d``'s extend."""
    query = _path("rising", 4, "EL0", a="VL0", c="VL1", e="VL2")
    query.add_predicate(cmp(prop("e1", "amt"), "<", prop("e2", "amt")))
    return query


def _same_city():
    """A 4-path whose first and fourth vertex share a city: ``a`` stays
    bound until ``d``'s extend."""
    query = _path("same_city", 4, "EL1", a="VL0", c="VL2")
    query.add_predicate(cmp(prop("a", "city"), "=", prop("d", "city")))
    return query


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


def _filter_plan(graph):
    """scan a → b → c, FILTER a.city = c.city, then c → d → e: merged on
    (a, c) after the extend to ``c`` and on (c) after the filter."""
    store = IndexStore(graph, PrimaryIndex(graph))
    query = _path("filter_stage", 4)
    query.add_predicate(cmp(prop("a", "city"), "=", prop("c", "city")))
    query.add_predicate(cmp(prop("d", "label"), "=", "VL1"))
    query.add_predicate(cmp(prop("e", "label"), "=", "VL3"))
    return QueryPlan(
        query=query,
        operators=[
            ScanVertices(var="a", predicate=Predicate.of(cmp(prop("a", "ID"), "<", 4))),
            ExtendIntersect(target_var="b", legs=[_forward_leg(store, "a", "b", "e0")]),
            ExtendIntersect(target_var="c", legs=[_forward_leg(store, "b", "c", "e1")]),
            Filter(Predicate.of(cmp(prop("a", "city"), "=", prop("c", "city")))),
            ExtendIntersect(
                target_var="d",
                legs=[_forward_leg(store, "c", "d", "e2", residual=_labelled("d", "VL1"))],
            ),
            ExtendIntersect(
                target_var="e",
                legs=[_forward_leg(store, "d", "e", "e3", residual=_labelled("e", "VL3"))],
            ),
        ],
    )


def _labelled(var, label):
    return Predicate.of(cmp(prop(var, "label"), "=", label))


def _multi_extend_plan(graph):
    """scan a → x, MULTI-EXTEND x → (b1, b2) on the neighbours' city, then
    b1 → c → d: the MULTI-EXTEND reads rows merged on (x) and its output is
    merged on (b1)."""
    city_key = SortKey.nbr_property("city")
    config = IndexConfig(partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id()))
    store = IndexStore(graph, PrimaryIndex(graph, config=config))
    query = QueryGraph("multi_extend_stage")
    for var in ("a", "x", "b1", "b2", "c", "d"):
        query.add_vertex(var)
    for name, (src, dst) in zip(
        ("e0", "e1", "e2", "e3", "e4"),
        (("a", "x"), ("x", "b1"), ("x", "b2"), ("b1", "c"), ("c", "d")),
    ):
        query.add_edge(src, dst, name=name)
    return QueryPlan(
        query=query,
        operators=[
            ScanVertices(var="a", predicate=Predicate.of(cmp(prop("a", "ID"), "<", 40))),
            ExtendIntersect(
                target_var="x",
                legs=[_forward_leg(store, "a", "x", "e0", residual=_labelled("x", "VL0"))],
            ),
            MultiExtend(
                legs=[
                    _forward_leg(store, "x", "b1", "e1", residual=_labelled("b1", "VL1")),
                    _forward_leg(store, "x", "b2", "e2", residual=_labelled("b2", "VL2")),
                ],
                equality_key=city_key,
            ),
            ExtendIntersect(
                target_var="c",
                legs=[_forward_leg(store, "b1", "c", "e3", residual=_labelled("c", "VL3"))],
            ),
            ExtendIntersect(
                target_var="d",
                legs=[_forward_leg(store, "c", "d", "e4", residual=_labelled("d", "VL0"))],
            ),
        ],
    )


class _Fixture:
    def __init__(self) -> None:
        self.graph = _labelled_graph()
        db = Database(self.graph)
        #: shape -> (graph, plan)
        self.plans = {
            name: (self.graph, db.plan(labelled_subgraph.build_query(name, 4, 2)))
            for name in SQ_NAMES
        }
        self.plans["rising"] = (self.graph, db.plan(_rising()))
        self.plans["same_city"] = (self.graph, db.plan(_same_city()))
        self.plans["filter_stage"] = (self.graph, _filter_plan(self.graph))
        self.plans["multi_extend_stage"] = (self.graph, _multi_extend_plan(self.graph))


@pytest.fixture(scope="module")
def fx():
    return _Fixture()


SHAPES = SQ_NAMES + ("rising", "same_city", "filter_stage", "multi_extend_stage")


def _compared(stats: ExecutionStats) -> dict:
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.compare and field.name != "segments_emitted"
    }


def _count_only(runner, plan):
    stats = ExecutionStats()
    count = CountSink().drain(runner.execute(plan, stats=stats, count_only=True))
    return count, stats


def _unmerged(graph, plan, batch_size, monkeypatch):
    """The inline count-only run of ``plan`` with no merge point."""
    with monkeypatch.context() as patch:
        patch.setattr(QueryPlan, "merge_points", lambda self: {})
        return _count_only(PlanRunner(graph, batch_size=batch_size), plan)


def _runner(graph, batch_size, backend):
    if backend == "inline":
        return PlanRunner(graph, batch_size=batch_size)
    return PlanRunner(graph, batch_size=batch_size, backend=backend, num_workers=2)


def _check(fx, name, batch_size, backend, monkeypatch):
    graph, plan = fx.plans[name]
    want, unmerged = _unmerged(graph, plan, batch_size, monkeypatch)
    count, stats = _count_only(_runner(graph, batch_size, backend), plan)
    assert count == want == PlanRunner(graph).count(plan, factorized=False)
    assert _compared(stats) == _compared(unmerged)


# ----------------------------------------------------------------------
# weighted batches
# ----------------------------------------------------------------------
def test_match_batch_transformations_carry_weights():
    batch = MatchBatch({"a": [1, 2, 3]}, weights=np.array([2, 1, 4]))
    assert batch.match_count() == 7
    assert batch.select(np.array([True, False, True])).weights.tolist() == [2, 4]
    repeated = batch.repeat(np.array([0, 2, 1]))
    assert repeated.column("a").tolist() == [2, 2, 3]
    assert repeated.weights.tolist() == [1, 1, 4]
    assert [part.weights.tolist() for part in batch.split(2)] == [[2, 1], [4]]
    assert batch.with_columns({"b": [7, 8, 9]}).weights.tolist() == [2, 1, 4]
    # An unweighted batch stands for one match per row.
    mixed = batch.concat(MatchBatch({"a": [5]}))
    assert mixed.weights.tolist() == [2, 1, 4, 1] and mixed.match_count() == 8
    assert MatchBatch({"a": [5, 6]}).concat(MatchBatch({"a": [5]})).weights is None


def test_factorized_arithmetic_starts_from_the_prefix_weights():
    prefix = MatchBatch({"a": [0, 1]}, weights=np.array([3, 2]))
    batch = FactorizedBatch(
        prefix=prefix,
        segments=(
            FactorizedSegment(("b",), np.array([2, 5])),
            FactorizedSegment(("c",), np.array([1, 3])),
        ),
    )
    assert batch.row_counts().tolist() == [6, 30]
    assert batch.match_count() == 36
    # The flat path expands 3 * 2 + 2 * 5 rows for b, then 6 + 30 for c.
    assert batch.flat_rows_avoided() == 16 + 36
    assert prefix.weights.tolist() == [3, 2]


def test_shared_keys_sum_row_weights():
    keys = SharedKeys([np.array([4, 1, 4, 4])], [5])
    assert keys.weights().tolist() == [1, 3]
    assert keys.weights(np.array([2, 7, 1, 5])).tolist() == [7, 8]


# ----------------------------------------------------------------------
# the shapes are what they claim to be
# ----------------------------------------------------------------------
def test_the_zoo_has_merge_points(fx):
    merged = {name for name in SHAPES if fx.plans[name][1].merge_points()}
    assert {"SQ2", "SQ9", "SQ10", "rising", "same_city"} <= merged
    assert fx.plans["filter_stage"][1].merge_points() == {2: ("a", "c"), 3: ("c",)}
    assert fx.plans["multi_extend_stage"][1].merge_points() == {1: ("x",), 2: ("b1",)}
    # No merge feeds the suffix: it already works once per distinct key.
    for name in SHAPES:
        plan = fx.plans[name][1]
        assert all(
            index + 1 < plan.factorized_suffix_start() for index in plan.merge_points()
        )
    # e1 and a are read by a post predicate of a later extend, so they
    # survive the merge before it.
    assert ("c", "e1") in fx.plans["rising"][1].merge_points().values()
    assert ("a", "c") in fx.plans["same_city"][1].merge_points().values()


@pytest.mark.parametrize("name", ["SQ1", "SQ2", "SQ4"])
def test_merged_count_matches_the_naive_matcher(fx, name):
    """The shapes whose matches the naive matcher enumerates in a blink."""
    graph, plan = fx.plans[name]
    assert PlanRunner(graph).count(plan) == NaiveMatcher(graph).count(plan.query)


# ----------------------------------------------------------------------
# merged against unmerged: inline and thread in tier-1, process nightly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "thread"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", SHAPES)
def test_merged_equals_unmerged(fx, name, batch_size, backend, monkeypatch):
    _check(fx, name, batch_size, backend, monkeypatch)


@pytest.mark.parametrize("name", ["SQ9", "filter_stage", "multi_extend_stage"])
def test_merged_equals_unmerged_on_the_process_backend(fx, name, monkeypatch):
    _check(fx, name, 1024, "process", monkeypatch)


@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", SHAPES)
def test_fuzz_merged_equals_unmerged_on_the_process_backend(
    fx, name, batch_size, monkeypatch
):
    _check(fx, name, batch_size, "process", monkeypatch)


# ----------------------------------------------------------------------
# what merging does
# ----------------------------------------------------------------------
def _spied_fetches(monkeypatch):
    """Record ``(edge_var, rows read, partial matches served)`` per fetch."""
    calls = []
    fetch_many = ExtensionLeg.fetch_many

    def spy(self, context, batch, weights=None):
        served = len(batch) if weights is None else int(weights.sum())
        calls.append((self.edge_var, len(batch), served))
        return fetch_many(self, context, batch, weights)

    monkeypatch.setattr(ExtensionLeg, "fetch_many", spy)
    return calls


def test_sq9_shares_lists_in_a_flat_stage(fx, monkeypatch):
    """SQ9's flat extend after the E/I reads one list per distinct bound
    vertex, not one per partial match, and charges all of them."""
    graph, plan = fx.plans["SQ9"]
    suffix = plan.factorized_suffix_start()
    flat_legs = {
        leg.edge_var
        for operator in plan.operators[1:suffix]
        for leg in getattr(operator, "legs", ())
    }
    calls = _spied_fetches(monkeypatch)
    count, stats = _count_only(PlanRunner(graph, batch_size=1024), plan)
    assert count == PlanRunner(graph).count(plan, factorized=False)
    shared = [
        (rows, served) for edge_var, rows, served in calls if edge_var in flat_legs
    ]
    assert any(rows < served for rows, served in shared)
    assert stats.lists_shared > 0


@pytest.mark.parametrize(
    "name", ["SQ2", "SQ9", "rising", "same_city", "filter_stage", "multi_extend_stage"]
)
def test_merge_points_merge_rows(fx, name, monkeypatch):
    """Each of these shapes has a batch whose kept rows repeat: merged, it
    is fewer rows with weights that sum to the rows it had."""
    merges = []
    merge_rows = pipeline.merge_rows

    def spy(batch, names, context):
        merged = merge_rows(batch, names, context)
        merges.append((batch.match_count(), len(batch), merged.match_count(), len(merged)))
        return merged

    monkeypatch.setattr(pipeline, "merge_rows", spy)
    graph, plan = fx.plans[name]
    PlanRunner(graph, batch_size=1024).count(plan)
    assert merges and all(before == after for before, _, after, _ in merges)
    assert any(merged < rows for _, rows, _, merged in merges)


def test_describe_names_every_merge_point(fx):
    plan = fx.plans["filter_stage"][1]
    assert (
        "rows merged on (a, c) after 2:extend; rows merged on (c) after 3:filter"
        in plan.describe()
    )
    for name in SHAPES:
        plan = fx.plans[name][1]
        for index, kept in plan.merge_points().items():
            assert f"rows merged on ({', '.join(kept)}) after {index}:" in plan.describe()


def test_flat_plans_have_no_merge_points(fx):
    """Only a count-only pipeline merges: a plan without a factorizable
    suffix has no merge point."""
    graph, plan = fx.plans["filter_stage"]
    trailing = Filter(Predicate.of(cmp(prop("e", "label"), "=", "VL3")))
    flat_only = QueryPlan(query=plan.query, operators=plan.operators + [trailing])
    assert not flat_only.supports_factorized_count
    assert flat_only.merge_points() == {}
    assert "rows merged" not in flat_only.describe()
    runner = PlanRunner(graph)
    assert runner.count(flat_only) == runner.count(flat_only, factorized=False) > 0


def test_rowwise_operators_block_merging(fx):
    """A tuple-at-a-time operator charges per row: no merged row reaches
    one, so a stage before it is no merge point."""
    graph, plan = fx.plans["filter_stage"]
    operators = list(plan.operators)
    operators[4] = dataclasses.replace(operators[4], vectorized=False)
    rowwise = QueryPlan(query=plan.query, operators=operators)
    assert rowwise.supports_factorized_count
    assert rowwise.merge_points() == {}
    runner = PlanRunner(graph)
    assert runner.count(rowwise) == runner.count(plan, factorized=False)


def test_the_runtime_gate_refuses_rows_that_do_not_repeat(monkeypatch):
    """A 3-path over one long chain: every partial match has its own
    ``b`` and ``c``, so each merge point only projects."""
    num_vertices = 300
    builder = GraphBuilder()
    for _vertex in range(num_vertices):
        builder.add_vertex("V")
    builder.add_edges(
        np.arange(num_vertices - 1), np.arange(1, num_vertices), ["E"] * (num_vertices - 1)
    )
    graph = builder.build()
    query = _path("chain", 3)
    plan = Database(graph).plan(query)
    assert plan.merge_points()
    merges = []
    merge_rows = pipeline.merge_rows

    def spy(batch, names, context):
        merged = merge_rows(batch, names, context)
        merges.append((len(batch), len(merged), merged.weights is None))
        return merged

    monkeypatch.setattr(pipeline, "merge_rows", spy)
    count, stats = _count_only(PlanRunner(graph), plan)
    assert count == NaiveMatcher(graph).count(query) == num_vertices - 3
    assert merges and all(rows == kept and unweighted for rows, kept, unweighted in merges)
    assert stats.lists_shared == 0


def _with_and_without_sharing(graph, plan, sink, monkeypatch):
    """``(count, stats)`` of ``plan`` on ``sink``, under the sharing gate
    and under one no batch passes (one list per row)."""

    def measured():
        runner = PlanRunner(graph, batch_size=1024)
        if sink == "run":
            result = runner.run(plan)
            return result.count, result.stats
        stats = ExecutionStats()
        return runner.count(plan, factorized=False, stats=stats), stats

    shared = measured()
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_SHARE_MIN_REPEAT", 1 << 40)
        return shared, measured()


def _flat_e_i(plan):
    (operator,) = [
        operator
        for operator in plan.operators[: plan.factorized_suffix_start()]
        if isinstance(operator, ExtendIntersect) and len(operator.legs) > 1
    ]
    assert not any(leg.track_edge for leg in operator.legs)
    return operator


@pytest.mark.parametrize("sink", ["count", "run"])
def test_a_flat_e_i_shares_lists(fx, sink, monkeypatch):
    """SQ7's E/I to ``a`` is a flat stage on every sink: its legs bind no
    edge, and its one batch repeats both legs' keys (88 rows over 24 and
    21 bound vertices), so each leg reads its lists once per distinct
    bound vertex.  The logical counters are those of the run that reads
    one list per row."""
    graph, plan = fx.plans["SQ7"]
    _flat_e_i(plan)
    (count, shared), (unshared_count, unshared) = _with_and_without_sharing(
        graph, plan, sink, monkeypatch
    )
    assert count == unshared_count > 0
    assert shared.lists_shared > 0 and shared.entries_shared > 0
    assert unshared.lists_shared == unshared.entries_shared == 0
    assert shared == unshared  # every compared counter


def test_a_flat_e_i_shares_only_when_every_leg_repeats(fx, monkeypatch):
    """SQ5's E/I to ``c`` reads 50 rows over 20 values of ``b`` but 27 of
    ``a``: one leg does not repeat its keys, so, as in the count-only
    suffix, no leg shares and the batch is intersected per row."""
    graph, plan = fx.plans["SQ5"]
    _flat_e_i(plan)
    (count, shared), (unshared_count, unshared) = _with_and_without_sharing(
        graph, plan, "count", monkeypatch
    )
    assert count == unshared_count > 0
    assert shared.lists_shared == shared.entries_shared == 0
    assert shared == unshared
