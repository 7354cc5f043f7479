"""Differential suite for the physical pipeline executor.

Pins the compiled pipeline (:mod:`repro.query.pipeline`) on every backend
against the inline run, whose matches the independent
:class:`~repro.query.naive.NaiveMatcher` checks as a multiset:

* **byte-identity** — matches, their order, and the work-counter stats of
  the thread/process backends are identical to the inline runner's across
  the query zoo × graph shapes (smoke subset in tier-1, the full matrix
  behind the ``fuzz`` marker);
* **early termination** — ``collect(limit=)`` halts the pipeline across
  batches *and* across morsels: strictly fewer morsels dispatched than the
  unlimited run (``ExecutionStats.morsels_dispatched``) while the returned
  prefix is byte-identical to the unlimited run's first N matches;
* **per-stage observability** — timings present for every pipeline stage
  on every backend (surviving the process workers' columnar stats
  transport), exact attribution under a fake clock, and exclusion from the
  byte-identity contract;
* **regression** — the pre-refactor dispatcher refilled its window before
  yielding, so a satisfied limit kept dispatching morsels; the fixed
  top-up-after-consumption behaviour is pinned with a backend that counts
  submissions.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import Database
from repro.graph import GraphBuilder
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.query import PlanRunner, QueryGraph, cmp, prop
from repro.query.backends import ThreadBackend
from repro.query.naive import NaiveMatcher
from repro.query.operators import ExecutionStats
from repro.query.pipeline import (
    CountSink,
    ExistsSink,
    FlattenSink,
    LimitSink,
    PipelineBuilder,
)

BACKEND_NAMES = ("thread", "process")

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="pipeline differential fuzz matrix is opt-in; set RUN_FUZZ=1 to run",
)


# ----------------------------------------------------------------------
# seeded graph shapes (the cross-backend suite's zoo, shared shape-for-shape)
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
# the query zoo
# ----------------------------------------------------------------------
def _one_leg():
    query = QueryGraph("one_leg")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    return query


def _triangle():
    query = QueryGraph("triangle")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


def _three_leg_clique():
    query = QueryGraph("clique")
    for name in ("a", "b", "c", "d"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    query.add_edge("a", "d", name="e3")
    query.add_edge("b", "d", name="e4")
    query.add_edge("c", "d", name="e5")
    return query


def _predicated():
    query = QueryGraph("predicated")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    query.add_predicate(cmp(prop("a", "ID"), "<", 40))
    return query


ZOO = {
    "one_leg": _one_leg,
    "triangle": _triangle,
    "three_leg_clique": _three_leg_clique,
    "predicated": _predicated,
}


class FakeClock:
    """Deterministic monotonic clock: every call advances one tick."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _work_counters(stats):
    return {
        "lists_accessed": stats.lists_accessed,
        "list_entries_fetched": stats.list_entries_fetched,
        "intermediate_rows": stats.intermediate_rows,
        "output_rows": stats.output_rows,
        "predicate_evaluations": stats.predicate_evaluations,
    }


# ----------------------------------------------------------------------
# cached builds: (graph_key, seed, shape) -> db/plan/inline baseline
# ----------------------------------------------------------------------
_CACHE = {}


def _inline_baseline(db, plan):
    """Matches + stats of the inline runner, its matches checked against
    the naive matcher's (projected onto the variables a row binds)."""
    stats = ExecutionStats()
    matches = FlattenSink().drain(
        PlanRunner(db.graph, batch_size=db.batch_size).execute(plan, stats=stats)
    )
    names = sorted(matches[0]) if matches else []
    expected = Counter(
        tuple(match[name] for name in names)
        for match in NaiveMatcher(db.graph).match(plan.query)
    )
    assert Counter(tuple(row[name] for name in names) for row in matches) == expected
    return matches, stats


def _baseline(graph_key: str, seed: int, shape: str):
    key = (graph_key, seed, shape)
    if key not in _CACHE:
        graph_cache_key = ("graph", graph_key, seed)
        if graph_cache_key not in _CACHE:
            _CACHE[graph_cache_key] = Database(GRAPHS[graph_key](seed))
        db = _CACHE[graph_cache_key]
        plan = db.plan(ZOO[shape]())
        _CACHE[key] = (db, plan, _inline_baseline(db, plan))
    return _CACHE[key]


def check_pipeline_combo(
    graph_key: str,
    seed: int,
    shape: str,
    backend: str,
    num_workers: int = 2,
    morsel_size=None,
):
    """Backend ≡ inline: matches, order, work-counter stats — plus timings."""
    db, plan, (matches, inline_stats) = _baseline(graph_key, seed, shape)
    context = f"{graph_key}/seed{seed}/{shape}/{backend}"
    labels = PipelineBuilder(plan).build().labels

    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=num_workers,
        morsel_size=morsel_size,
        backend=backend,
    )
    stats = ExecutionStats()
    result = FlattenSink().drain(executor.execute(plan, stats=stats))
    assert result == matches, context
    assert stats == inline_stats, context
    assert _work_counters(stats) == _work_counters(inline_stats), context
    # Per-operator timings reported on every backend, for every stage.
    for observed in (inline_stats, stats):
        assert set(labels) <= set(observed.operator_seconds), context
        assert set(labels) <= set(observed.operator_batches), context
        assert all(v >= 0.0 for v in observed.operator_seconds.values()), context
    assert stats.morsels_dispatched == len(executor.morsel_ranges(plan)), context


# ----------------------------------------------------------------------
# tier-1 smoke subset of the differential matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("graph_key", ["zipf", "star"])
def test_smoke_pipeline_matches_inline_triangle(graph_key, backend):
    check_pipeline_combo(graph_key, 3, "triangle", backend)


@pytest.mark.parametrize("backend", ("thread",))
def test_smoke_pipeline_matches_inline_empty(backend):
    check_pipeline_combo("empty", 3, "one_leg", backend)


def test_smoke_pipeline_predicated_uniform():
    check_pipeline_combo("uniform", 3, "predicated", "thread")


# ----------------------------------------------------------------------
# the full fuzz matrix (nightly / RUN_FUZZ=1)
# ----------------------------------------------------------------------
@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("shape", sorted(ZOO))
@pytest.mark.parametrize(
    "graph_key,seed",
    [
        ("uniform", 3),
        ("uniform", 17),
        ("zipf", 3),
        ("zipf", 17),
        ("zipf", 92),
        ("star", 0),
        ("empty", 0),
    ],
)
def test_fuzz_pipeline_matrix(graph_key, seed, shape, backend):
    check_pipeline_combo(graph_key, seed, shape, backend)


@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("morsel_size", [1, 7, 1000])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fuzz_pipeline_morsel_boundaries(backend, morsel_size):
    check_pipeline_combo("zipf", 17, "triangle", backend, morsel_size=morsel_size)
    check_pipeline_combo(
        "star", 0, "three_leg_clique", backend, morsel_size=morsel_size
    )


# ----------------------------------------------------------------------
# early termination: collect(limit=) short-circuits across morsels
# ----------------------------------------------------------------------
def _limit_executor(db, backend, morsel_size=4, num_workers=2, **kwargs):
    return PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=num_workers,
        morsel_size=morsel_size,
        backend=backend,
        **kwargs,
    )


def check_early_termination(backend: str, limit: int, morsel_size: int = 4):
    """The acceptance contract on a full-domain triangle (2-leg) scan."""
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    executor = _limit_executor(db, backend, morsel_size=morsel_size)
    total_morsels = len(executor.morsel_ranges(plan))

    unlimited_stats = ExecutionStats()
    unlimited = executor.collect(plan, stats=unlimited_stats)
    assert unlimited == matches
    assert unlimited_stats.morsels_dispatched == total_morsels

    limited_stats = ExecutionStats()
    limited = executor.collect(plan, limit=limit, stats=limited_stats)
    context = f"{backend}/limit={limit}"
    # Byte-identical first-N prefix...
    assert limited == matches[:limit], context
    # ...from strictly fewer dispatched morsels than the full-domain run.
    assert 0 < limited_stats.morsels_dispatched < total_morsels, (
        context,
        limited_stats.morsels_dispatched,
        total_morsels,
    )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_limit_dispatches_fewer_morsels_all_backends(backend):
    check_early_termination(backend, limit=5)


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_limit_hit_mid_batch(backend):
    # batch_size 1024 >> total matches: a small limit always lands strictly
    # inside the first emitted batch of some morsel.
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    assert len(matches) > 7
    executor = _limit_executor(db, backend)
    stats = ExecutionStats()
    limited = executor.collect(plan, limit=7, stats=stats)
    assert limited == matches[:7]
    assert stats.morsels_dispatched < len(executor.morsel_ranges(plan))


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_limit_hit_mid_morsel(backend):
    # Single-vertex morsels: the limit is satisfied partway through the
    # morsel list, long before the domain is exhausted.
    check_early_termination(backend, limit=3, morsel_size=1)


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_limit_hit_before_last_morsel(backend):
    # A mid-domain limit: satisfied around half the matches, far enough
    # from the tail that the in-flight window cannot have covered it.
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    check_early_termination(backend, limit=len(matches) // 2, morsel_size=2)


def test_exists_short_circuits_morsels():
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    executor = _limit_executor(db, "thread", morsel_size=1)
    stats = ExecutionStats()
    assert executor.exists(plan, stats=stats) is True
    assert 0 < stats.morsels_dispatched < len(executor.morsel_ranges(plan))

    empty_db, empty_plan, (empty_matches, _) = _baseline("empty", 3, "one_leg")
    assert empty_matches == []
    assert PlanRunner(empty_db.graph).exists(empty_plan) is False


def test_database_collect_limit_prefix_on_all_backends():
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    for backend in BACKEND_NAMES:
        got = db.collect(plan, limit=9, parallelism=2, backend=backend)
        assert got == matches[:9], backend
    assert db.collect(plan, limit=0) == []
    assert db.collect(plan) == matches
    assert db.exists(plan) is True


# ----------------------------------------------------------------------
# regression: the pre-refactor dispatcher refilled past a satisfied limit
# ----------------------------------------------------------------------
class CountingThreadBackend(ThreadBackend):
    """Thread backend that records every submission it receives."""

    def __init__(self) -> None:
        super().__init__(num_workers=2)
        self.submissions = []

    def submit(self, start, stop, index=0, attempt=0):
        self.submissions.append((index, attempt))
        return super().submit(start, stop, index=index, attempt=attempt)


def test_regression_limit_stops_dispatching_morsels():
    """Fails on the pre-refactor executor.

    The old dispatcher topped up its window *before* yielding a consumed
    morsel's batches, so a limit satisfied by the very first morsel still
    submitted one morsel beyond the initial window (window + 1).  The
    pipeline dispatcher tops up only after consumption: with the limit
    satisfied in morsel 0, exactly the initial window is ever submitted.
    """
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    backend = CountingThreadBackend()
    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=2,
        morsel_size=1,
        backend=backend,
    )
    total_morsels = len(executor.morsel_ranges(plan))
    window = executor.num_workers * 2  # MORSEL_WINDOW_PER_WORKER
    assert total_morsels > window + 1

    stats = ExecutionStats()
    try:
        limited = executor.collect(plan, limit=1, stats=stats)
    finally:
        backend.shutdown()  # an instance's owner shuts it down
    assert limited == matches[:1]
    # The first morsel (vertex 0) satisfies limit=1 on this graph; the
    # pre-refactor refill-before-yield would have submitted window + 1.
    assert len(backend.submissions) <= window
    assert len(backend.submissions) < total_morsels
    assert stats.morsels_dispatched == len(backend.submissions)


def test_unlimited_run_still_dispatches_every_morsel():
    db, plan, (matches, _) = _baseline("uniform", 3, "triangle")
    backend = CountingThreadBackend()
    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=2,
        morsel_size=4,
        backend=backend,
    )
    stats = ExecutionStats()
    try:
        assert executor.collect(plan, stats=stats) == matches
    finally:
        backend.shutdown()
    total_morsels = len(executor.morsel_ranges(plan))
    assert len(backend.submissions) == total_morsels
    assert stats.morsels_dispatched == total_morsels


# ----------------------------------------------------------------------
# per-operator timing: fake-clock exactness, transport, identity exclusion
# ----------------------------------------------------------------------
def test_fake_clock_serial_timings_present_and_bounded():
    db, plan, _ = _baseline("uniform", 3, "triangle")
    labels = PipelineBuilder(plan).build().labels
    clock = FakeClock()
    stats = ExecutionStats()
    executor = PlanRunner(db.graph, batch_size=db.batch_size, clock=clock)
    before = clock.now
    count = CountSink().drain(executor.execute(plan, stats=stats))
    elapsed = clock.now - before
    assert count == stats.output_rows
    # Timings present for every pipeline stage...
    assert set(stats.operator_seconds) == set(labels)
    assert set(stats.operator_batches) == set(labels)
    # ...positive wherever the fake clock ticked through the stage...
    assert all(v > 0 for v in stats.operator_seconds.values())
    assert stats.operator_batches["0:scan"] >= 1
    # ...and exclusive attribution sums to no more than the total drive time.
    assert 0 < stats.pipeline_seconds() <= elapsed


def test_fake_clock_morsel_dispatch_merges_stage_times():
    # One worker thread runs the morsel bodies one after another, so a fake
    # clock threads through PlanRunner(clock=...) deterministically;
    # per-stage times merge key-wise across morsels.
    db, plan, _ = _baseline("uniform", 3, "triangle")
    labels = PipelineBuilder(plan).build().labels
    clock = FakeClock()
    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=1,
        morsel_size=8,
        backend="thread",
        clock=clock,
    )
    stats = ExecutionStats()
    before = clock.now
    result = FlattenSink().drain(executor.execute(plan, stats=stats))
    elapsed = clock.now - before
    assert len(result) == stats.output_rows
    assert set(stats.operator_seconds) == set(labels)
    assert all(v > 0 for v in stats.operator_seconds.values())
    assert stats.pipeline_seconds() <= elapsed
    # Scan batches: at least one per non-empty morsel, merged additively.
    assert stats.operator_batches["0:scan"] >= stats.morsels_dispatched


def test_timings_survive_process_columnar_transport():
    db, plan, _ = _baseline("uniform", 3, "triangle")
    labels = PipelineBuilder(plan).build().labels
    executor = PlanRunner(
        db.graph, batch_size=db.batch_size, num_workers=2, backend="process"
    )
    stats = ExecutionStats()
    count = CountSink().drain(executor.execute(plan, stats=stats))
    assert count == stats.output_rows
    # The workers' per-stage times crossed the checksummed columnar reply
    # envelope and merged in the parent.
    assert set(labels) <= set(stats.operator_seconds)
    assert stats.pipeline_seconds() > 0
    assert sum(stats.operator_batches.values()) > 0


def test_timing_fields_are_excluded_from_stats_equality():
    left = ExecutionStats(output_rows=10)
    right = ExecutionStats(output_rows=10)
    right.record_stage("0:scan", 123.0, 4)
    right.morsels_dispatched = 99
    assert left == right  # observability fields are compare=False
    right.output_rows = 11
    assert left != right


def test_factorized_pipeline_times_suffix_stages():
    db, plan, _ = _baseline("uniform", 3, "triangle")
    if not plan.supports_factorized_count:
        pytest.skip("triangle plan has no factorizable suffix on this build")
    clock = FakeClock()
    stats = ExecutionStats()
    executor = PlanRunner(db.graph, batch_size=db.batch_size, clock=clock)
    count = CountSink().drain(executor.execute(plan, stats=stats, count_only=True))
    flat = ExecutionStats()
    flat_count = CountSink().drain(
        PlanRunner(db.graph, batch_size=db.batch_size).execute(plan, stats=flat)
    )
    assert count == flat_count
    factorized_labels = PipelineBuilder(plan).build(count_only=True).labels
    assert set(stats.operator_seconds) == set(factorized_labels)
    assert all(v > 0 for v in stats.operator_seconds.values())


# ----------------------------------------------------------------------
# pipeline surface: builder, describe, sinks
# ----------------------------------------------------------------------
def test_pipeline_builder_labels_and_describe():
    db, plan, _ = _baseline("uniform", 3, "triangle")
    pipeline = PipelineBuilder(plan).build()
    assert pipeline.labels[0] == "0:scan"
    assert len(pipeline.labels) == len(plan.operators)
    description = pipeline.describe()
    assert description.startswith("0:scan")
    assert "1:" in description


def test_sinks_halt_contract():
    db, plan, _ = _baseline("uniform", 3, "triangle")
    executor = PlanRunner(db.graph, batch_size=db.batch_size)

    limit = LimitSink(4)
    assert not limit.satisfied
    got = limit.drain(executor.execute(plan))
    assert len(got) == 4
    assert limit.satisfied

    exists = ExistsSink()
    assert exists.drain(executor.execute(plan)) is True
    assert exists.satisfied

    count = CountSink()
    total = count.drain(executor.execute(plan))
    assert total == len(FlattenSink().drain(executor.execute(plan)))
