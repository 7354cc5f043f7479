"""Differential + unit coverage for factorized counting (aggregate pushdown).

The factorization contract: for any plan with a factorizable terminal suffix,
``count(plan, factorized=True)`` — trailing extensions kept as unexpanded
cardinality segments, count = per-prefix-row product of segment sizes — is
**identical** to the flat oracle count, for every graph shape of the zoo
(uniform, Zipf-skewed, star, empty), inline and on every backend
(``thread``, ``process``), and every morsel cut.  A small always-on subset pins the
contract in tier-1; the full backend × morsel-cut matrix is marked ``fuzz``
(opt-in via ``RUN_FUZZ=1``, nightly in CI) because process pools are too slow
for the default suite.

Also covered here: the cardinality-product arithmetic on empty prefixes and
zero-fanout legs, the suffix analysis on dependent pipelines, the
factorized-only stats counters,
and the ``PlanRunner.collect(limit=)`` / ``run(materialize=True)`` sink
behaviour fixed alongside the factorized sinks.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.graph import Direction, GraphBuilder
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.index.config import IndexConfig
from repro.index.index_store import IndexStore
from repro.index.primary import PrimaryIndex
from repro.predicates import Predicate, cmp, prop
from repro.query import PlanRunner, QueryGraph
from repro.query.binding import MatchBatch
from repro.query.executor import CountSink, FlattenSink
from repro.query.factorized import FactorizedBatch, FactorizedSegment
from repro.query.naive import NaiveMatcher
from repro.query.operators import (
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    ScanVertices,
)
from repro.query.plan import QueryPlan
from repro.storage.sort_keys import SortKey

BACKEND_NAMES = ("thread", "process")
#: Morsel cuts: name -> ``morsel_size`` (``None`` is the default
#: degree-weighted cut; a size cuts fixed equal vertex-count ranges).
MORSEL_CUTS = {"degree": None, "fixed": 10}

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="factorized backend fuzz matrix is opt-in; set RUN_FUZZ=1 to run",
)


# ----------------------------------------------------------------------
# seeded graph shapes (mirrors tests/test_backend_equivalence.py)
# ----------------------------------------------------------------------
def _labelled(skew: float, seed: int):
    return generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=80,
            num_edges=320,
            num_vertex_labels=2,
            num_edge_labels=2,
            skew=skew,
            seed=seed,
        )
    )


def _star_graph():
    """Two hubs and a light rim: maximal combination fan-out per prefix row."""
    builder = GraphBuilder()
    for i in range(60):
        builder.add_vertex(f"VL{i % 2}")
    for spoke in range(1, 40):
        builder.add_edge(0, spoke, "EL0")
        builder.add_edge(spoke, 0, "EL0")
    for spoke in range(31, 59):
        builder.add_edge(30, spoke, "EL1")
    builder.add_edge(30, 0, "EL1")
    return builder.build()


def _empty_graph():
    builder = GraphBuilder()
    for _ in range(25):
        builder.add_vertex("VL0")
    return builder.build()


GRAPHS = {
    "uniform": lambda seed: _labelled(0.0, seed),
    "zipf": lambda seed: _labelled(1.0, seed),
    "star": lambda seed: _star_graph(),
    "empty": lambda seed: _empty_graph(),
}


# ----------------------------------------------------------------------
# the query zoo: shapes with different factorizable suffixes
# ----------------------------------------------------------------------
def _one_leg():
    query = QueryGraph("one_leg")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    return query


def _star_two():
    query = QueryGraph("star_two")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    return query


def _star_three():
    query = QueryGraph("star_three")
    for name in ("a", "b", "c", "d"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("a", "d", name="e2")
    return query


def _triangle():
    query = QueryGraph("triangle")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


def _predicated_star():
    query = QueryGraph("predicated_star")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_predicate(cmp(prop("a", "ID"), "<", 40))
    return query


ZOO = {
    "one_leg": _one_leg,
    "star_two": _star_two,
    "star_three": _star_three,
    "triangle": _triangle,
    "predicated_star": _predicated_star,
}


_CACHE = {}


def _baseline(graph_key: str, seed: int, shape: str):
    """(db, plan, flat count) with the flat count pinned to the naive oracle."""
    key = (graph_key, seed, shape)
    if key not in _CACHE:
        graph_cache_key = ("graph", graph_key, seed)
        if graph_cache_key not in _CACHE:
            graph = GRAPHS[graph_key](seed)
            _CACHE[graph_cache_key] = (graph, Database(graph))
        graph, db = _CACHE[graph_cache_key]
        plan = db.plan(ZOO[shape]())
        flat = PlanRunner(db.graph, batch_size=db.batch_size).count(
            plan, factorized=False
        )
        assert flat == NaiveMatcher(graph).count(ZOO[shape]()), (
            f"flat count disagrees with the naive oracle on {graph_key}/{shape}"
        )
        _CACHE[key] = (db, plan, flat)
    return _CACHE[key]


def check_combo(
    graph_key: str,
    seed: int,
    shape: str,
    backend: str = "thread",
    morsel_size=None,
    num_workers: int = 2,
):
    db, plan, flat = _baseline(graph_key, seed, shape)
    assert plan.supports_factorized_count, (
        f"the zoo plan for {shape!r} should end in a factorizable suffix"
    )
    serial = PlanRunner(db.graph, batch_size=db.batch_size)
    assert serial.count(plan, factorized=True) == flat
    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=num_workers,
        backend=backend,
        morsel_size=morsel_size,
    )
    assert executor.count(plan, factorized=True) == flat


# ----------------------------------------------------------------------
# tier-1 subset: every graph × shape serially, every backend on one combo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(ZOO))
@pytest.mark.parametrize("graph_key", sorted(GRAPHS))
def test_factorized_count_matches_flat_serial(graph_key, shape):
    check_combo(graph_key, seed=101, shape=shape)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_factorized_count_matches_flat_across_backends(backend):
    check_combo("zipf", seed=101, shape="star_three", backend=backend)


def test_database_count_auto_factorizes(example_graph):
    db = Database(example_graph)
    query = _star_two()
    plan = db.plan(query)
    assert plan.supports_factorized_count
    flat = db.count(query, factorized=False)
    assert db.count(query) == flat
    assert db.count(query, factorized=True) == flat
    assert db.count(plan) == flat  # pre-built plans take the same path


# ----------------------------------------------------------------------
# nightly fuzz matrix: full graph × shape × backend × morsel cut
# ----------------------------------------------------------------------
@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("cut", sorted(MORSEL_CUTS))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("shape", sorted(ZOO))
@pytest.mark.parametrize("graph_key", sorted(GRAPHS))
def test_factorized_count_full_matrix(graph_key, shape, backend, cut):
    check_combo(
        graph_key, seed=211, shape=shape, backend=backend, morsel_size=MORSEL_CUTS[cut]
    )


@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("num_workers", [1, 3, 5])
def test_factorized_count_worker_counts(num_workers):
    check_combo(
        "star", seed=211, shape="star_three", backend="thread", num_workers=num_workers
    )


# ----------------------------------------------------------------------
# MultiExtend suffixes (hand-built plans over the financial graph)
# ----------------------------------------------------------------------
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


def _multi_extend_plan(store, city_key, shared_target: bool, limit: int = 40):
    query = QueryGraph("city_join")
    query.add_vertex("a")
    if shared_target:
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        targets = ("b", "b")
    else:
        query.add_vertex("b1")
        query.add_vertex("b2")
        query.add_edge("a", "b1", name="e0")
        query.add_edge("a", "b2", name="e1")
        targets = ("b1", "b2")
    legs = [
        _forward_leg(store, "a", targets[0], "e0", track_edge=True),
        _forward_leg(store, "a", targets[1], "e1", track_edge=True),
    ]
    return QueryPlan(
        query=query,
        operators=[
            ScanVertices(
                var="a", predicate=Predicate.of(cmp(prop("a", "ID"), "<", limit))
            ),
            MultiExtend(legs=legs, equality_key=city_key),
        ],
    )


@pytest.mark.parametrize("presorted", [True, False])
def test_multi_extend_factorized_count(financial_graph, presorted):
    city_key = SortKey.nbr_property("city")
    if presorted:
        config = IndexConfig(
            partition_keys=(), sort_keys=(city_key, SortKey.neighbour_id())
        )
    else:
        config = IndexConfig.flat()
    store = IndexStore(financial_graph, PrimaryIndex(financial_graph, config=config))
    plan = _multi_extend_plan(store, city_key, shared_target=False)
    assert plan.supports_factorized_count
    executor = PlanRunner(financial_graph)
    flat = executor.count(plan, factorized=False)
    assert flat > 0
    assert executor.count(plan, factorized=True) == flat
    for backend in BACKEND_NAMES:
        morsel = PlanRunner(financial_graph, num_workers=2, backend=backend)
        assert morsel.count(plan, factorized=True) == flat


def test_multi_extend_shared_target_stays_flat(financial_graph):
    """Shared-target joins reconcile per combination: never factorized."""
    city_key = SortKey.nbr_property("city")
    store = IndexStore(financial_graph, PrimaryIndex(financial_graph))
    plan = _multi_extend_plan(store, city_key, shared_target=True)
    assert not plan.supports_factorized_count
    executor = PlanRunner(financial_graph)
    with pytest.raises(ExecutionError, match="no factorizable suffix"):
        executor.count(plan, factorized=True)
    # the auto path silently falls back to the flat pipeline
    assert executor.count(plan) == executor.count(plan, factorized=False)


# ----------------------------------------------------------------------
# suffix analysis
# ----------------------------------------------------------------------
def test_suffix_excludes_dependent_extension(example_db):
    """A triangle's closing intersect reads the middle extension's output,
    so only the last operator may stay unexpanded."""
    plan = example_db.plan(_triangle())
    assert plan.factorized_suffix_start() == len(plan.operators) - 1
    assert plan.supports_factorized_count


def test_suffix_covers_independent_star_legs(example_db):
    plan = example_db.plan(_star_three())
    # scan + three independent extensions off the scanned vertex
    assert plan.factorized_suffix_start() == 1
    assert "factorized count" in plan.describe()


def test_trailing_filter_blocks_factorization(example_graph):
    store = IndexStore(example_graph, PrimaryIndex(example_graph))
    query = _one_leg()
    plan = QueryPlan(
        query=query,
        operators=[
            ScanVertices(var="a"),
            ExtendIntersect(
                target_var="b", legs=[_forward_leg(store, "a", "b", "e0")]
            ),
            Filter(predicate=Predicate.of(cmp(prop("b", "ID"), "<", 4))),
        ],
    )
    assert not plan.supports_factorized_count
    assert "flat only" in plan.describe()


def test_run_factorized_rejects_materialize(example_db):
    plan = example_db.plan(_star_two())
    with pytest.raises(ExecutionError, match="count-only"):
        PlanRunner(example_db.graph).run(plan, materialize=True, factorized=True)


# ----------------------------------------------------------------------
# factorized stats counters
# ----------------------------------------------------------------------
def test_factorized_stats_counters(example_db):
    plan = example_db.plan(_star_two())
    executor = PlanRunner(example_db.graph)
    flat = executor.run(plan)
    fact = executor.run(plan, factorized=True)
    assert fact.count == flat.count
    assert fact.stats.output_rows == flat.stats.output_rows == flat.count
    assert fact.stats.combos_avoided > 0
    assert fact.stats.segments_emitted > 0
    assert flat.stats.combos_avoided == 0
    assert flat.stats.segments_emitted == 0


def test_combos_avoided_is_morsel_invariant(example_db):
    """Per-row counters agree between the serial and the morsel dispatch."""
    plan = example_db.plan(_star_two())
    serial = PlanRunner(example_db.graph).run(plan, factorized=True)
    morsel = PlanRunner(example_db.graph, num_workers=3, backend="thread").run(
        plan, factorized=True
    )
    assert morsel.count == serial.count
    assert morsel.stats.combos_avoided == serial.stats.combos_avoided
    assert morsel.stats.output_rows == serial.stats.output_rows


# ----------------------------------------------------------------------
# cardinality arithmetic units
# ----------------------------------------------------------------------
def _prefix(rows):
    return MatchBatch({"a": np.asarray(rows, dtype=np.int64)})


def _segment(var, cards):
    return FactorizedSegment(
        target_vars=(var,), cardinalities=np.asarray(cards, dtype=np.int64)
    )


class TestCardinalityArithmetic:
    def test_multi_segment_product(self):
        batch = FactorizedBatch(
            prefix=_prefix([7, 8]),
            segments=(_segment("b", [2, 3]), _segment("c", [4, 0])),
        )
        assert batch.row_counts().tolist() == [8, 0]
        assert batch.match_count() == 8
        # flat would materialize 2+3 rows after leg one, then 8+0 combos
        assert batch.flat_rows_avoided() == 13

    def test_zero_fanout_rows_contribute_nothing(self):
        batch = FactorizedBatch(
            prefix=_prefix([1, 2, 3]),
            segments=(_segment("b", [0, 5, 0]),),
        )
        assert batch.match_count() == 5
        assert batch.row_counts().tolist() == [0, 5, 0]

    def test_empty_prefix(self):
        batch = FactorizedBatch(prefix=_prefix([]), segments=(_segment("b", []),))
        assert batch.match_count() == 0
        assert batch.flat_rows_avoided() == 0

    def test_cardinality_length_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            FactorizedBatch(
                prefix=_prefix([1, 2]), segments=(_segment("b", [1]),)
            )


# ----------------------------------------------------------------------
# sink behaviour: collect(limit=) early stop, run(materialize=True)
# ----------------------------------------------------------------------
def _recording_stream(batches, pulled):
    for batch in batches:
        pulled.append(batch)
        yield batch


def test_flatten_sink_stops_mid_batch():
    batches = [
        _prefix([0, 1, 2]),
        _prefix([3, 4, 5]),
        _prefix([6, 7, 8]),
    ]
    pulled = []
    sink = FlattenSink(limit=4)
    matches = sink.drain(_recording_stream(batches, pulled))
    assert [row["a"] for row in matches] == [0, 1, 2, 3]
    # the third batch is never pulled once the limit lands mid-batch two
    assert len(pulled) == 2


def test_count_sink_handles_both_stream_shapes():
    factorized = FactorizedBatch(
        prefix=_prefix([1, 2]), segments=(_segment("b", [3, 4]),)
    )
    assert CountSink().drain(iter([_prefix([1, 2, 3]), factorized])) == 10


def test_collect_limit_prefix(example_db):
    plan = example_db.plan(_one_leg())
    executor = PlanRunner(example_db.graph, batch_size=4)
    full = executor.collect(plan)
    assert len(full) > 6
    assert executor.collect(plan, limit=5) == full[:5]
    assert executor.collect(plan, limit=0) == []
    assert executor.collect(plan, limit=len(full) + 10) == full


def test_run_materialize_count_agrees(example_db):
    plan = example_db.plan(_star_two())
    executor = PlanRunner(example_db.graph)
    result = executor.run(plan, materialize=True)
    assert result.count == len(result.matches)
    assert result.matches == executor.collect(plan)
    assert result.stats.output_rows == result.count
