"""The server/database plan cache: memoization, invalidation, and bounds.

Covers PR 10's cache contracts:

* **Hit/miss accounting** — `PlanCache.stats` reconciles exactly with the
  lookups made; a hit returns the *same* :class:`QueryPlan` object (what the
  persistent pools' payload registry keys on).
* **Epoch-based invalidation** — index DDL, DROP, primary reconfiguration
  and a flush past the drift bound start a new plan epoch, so the next
  structurally-identical submission misses and re-plans; a flush within the
  bound rebinds the epoch's plan to the new generation (a hit and a
  rebind).  Either way the answer *reflects the new data*, while a
  pre-built ``QueryPlan`` keeps replaying its own pinned generation, and
  no superseded generation stays pinned by the cache.
* **LRU bound** — the entry count never exceeds ``capacity``; overflow is
  counted in ``stats.evictions``.  ``capacity=0`` disables retention.
* **Determinism** — a cache-hit execution is byte-identical to a
  fresh-planned one on the serial, thread, and process backends.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, Direction, EdgeAdjacencyType
from repro.errors import ExecutionError
from repro.index.config import IndexConfig
from repro.index.index_store import ANALYZE_SCALE_FACTOR
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate
from repro.query import PlanCache, QueryGraph, cmp, prop
from repro.query.backends import fork_available
from repro.query.optimizer import Optimizer
from repro.query.plan_cache import DEFAULT_PLAN_CACHE_CAPACITY
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _wire(name="wire", src="a", dst="b", edge="e1"):
    q = QueryGraph(name)
    q.add_vertex(src, label="Account")
    q.add_vertex(dst, label="Account")
    q.add_edge(src, dst, label="Wire", name=edge)
    return q


def _wire_over(threshold, name="wire-over"):
    q = _wire(name)
    q.add_predicate(cmp(prop("e1", "amt"), ">", float(threshold)))
    return q


def _stats_dict(stats):
    return {
        "lists_accessed": stats.lists_accessed,
        "list_entries_fetched": stats.list_entries_fetched,
        "intermediate_rows": stats.intermediate_rows,
        "output_rows": stats.output_rows,
        "predicate_evaluations": stats.predicate_evaluations,
    }


# ----------------------------------------------------------------------
# PlanCache unit behaviour
# ----------------------------------------------------------------------
class TestPlanCacheUnit:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ExecutionError):
            PlanCache(capacity=-1)

    def test_default_capacity(self, example_db):
        assert example_db.plan_cache.capacity == DEFAULT_PLAN_CACHE_CAPACITY

    def test_get_or_plan_counts_and_memoizes(self, example_db):
        cache = PlanCache(capacity=4)
        generation = example_db.store.snapshot().state.generation
        calls = []

        def planner():
            plan = example_db.optimizer().optimize(_wire())
            plan.store_snapshot = example_db.store.snapshot()
            calls.append(1)
            return plan

        p1, hit1 = cache.get_or_plan(_wire(), generation, planner)
        p2, hit2 = cache.get_or_plan(_wire(), generation, planner)
        assert (hit1, hit2) == (False, True)
        assert p1 is p2
        assert len(calls) == 1
        assert cache.stats.snapshot() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_generation_is_part_of_the_key(self, example_db):
        cache = PlanCache(capacity=4)

        def planner():
            plan = example_db.optimizer().optimize(_wire())
            plan.store_snapshot = example_db.store.snapshot()
            return plan

        _, hit1 = cache.get_or_plan(_wire(), 7, planner)
        _, hit2 = cache.get_or_plan(_wire(), 8, planner)
        assert (hit1, hit2) == (False, False)
        assert len(cache) == 2

    def test_lru_eviction_bound(self, example_db):
        capacity = 4
        db = Database(example_db.graph, plan_cache_capacity=capacity)
        for threshold in range(3 * capacity):
            db.plan(_wire_over(threshold))
        assert len(db.plan_cache) <= capacity
        assert db.plan_cache.stats.evictions == 3 * capacity - capacity
        # The most recent queries survived; the oldest were evicted.
        db.plan(_wire_over(3 * capacity - 1))
        db.plan(_wire_over(0))
        assert db.plan_cache.stats.snapshot()["hits"] == 1

    def test_lru_recency_order(self, example_db):
        db = Database(example_db.graph, plan_cache_capacity=2)
        db.plan(_wire_over(1))
        db.plan(_wire_over(2))
        db.plan(_wire_over(1))  # refresh 1 → 2 is now the LRU entry
        db.plan(_wire_over(3))  # evicts 2
        hits_before = db.plan_cache.stats.hits
        db.plan(_wire_over(1))
        assert db.plan_cache.stats.hits == hits_before + 1
        db.plan(_wire_over(2))  # must re-plan
        assert db.plan_cache.stats.hits == hits_before + 1

    def test_capacity_zero_disables_retention(self, example_db):
        db = Database(example_db.graph, plan_cache_capacity=0)
        p1 = db.plan(_wire())
        p2 = db.plan(_wire())
        assert p1 is not p2
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats.hits == 0
        assert db.plan_cache.stats.misses == 2
        # behaviour is identical minus the memoization
        assert db.count(_wire()) == example_db.count(_wire())

    def test_clear_and_describe(self, example_db):
        example_db.plan(_wire())
        assert len(example_db.plan_cache) == 1
        text = example_db.plan_cache.describe()
        assert "1/" in text and "misses=1" in text
        example_db.plan_cache.clear()
        assert len(example_db.plan_cache) == 0

    def test_database_describe_mentions_plan_cache(self, example_db):
        text = example_db.describe()
        assert "Plan cache" in text
        assert "fingerprint" in text


# ----------------------------------------------------------------------
# Database integration: one plan per (pattern, plan epoch)
# ----------------------------------------------------------------------
class TestDatabaseIntegration:
    def test_renamed_query_hits_same_entry(self, example_db):
        p1 = example_db.plan(_wire())
        p2 = example_db.plan(_wire(name="other", src="x", dst="y", edge="w"))
        assert p1 is p2
        assert example_db.plan_cache.stats.snapshot()["hits"] == 1

    def test_run_count_collect_exists_share_the_entry(self, example_db):
        q = _wire()
        example_db.run(q)
        example_db.count(q)
        example_db.collect(q)
        example_db.exists(q)
        stats = example_db.plan_cache.stats.snapshot()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_prebuilt_plan_bypasses_cache(self, example_db):
        plan = example_db.plan(_wire())
        before = example_db.plan_cache.stats.snapshot()
        example_db.count(plan)
        example_db.run(plan)
        assert example_db.plan_cache.stats.snapshot() == before

    def test_ddl_invalidates(self, example_db):
        q = _wire()
        example_db.plan(q)
        example_db.execute_ddl(
            "CREATE 1-HOP VIEW UsdWires MATCH vs-[eadj:Wire]->vd "
            "WHERE eadj.currency = USD "
            "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID"
        )
        example_db.plan(q)
        stats = example_db.plan_cache.stats.snapshot()
        assert stats == {"hits": 0, "misses": 2, "evictions": 0}

    def test_reconfigure_invalidates(self, example_db):
        q = _wire()
        example_db.plan(q)
        example_db.execute_ddl(
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label "
            "SORT BY vnbr.ID"
        )
        example_db.plan(q)
        assert example_db.plan_cache.stats.misses == 2


# ----------------------------------------------------------------------
# flushes: rebind within the plan epoch, re-plan past it
# ----------------------------------------------------------------------
class TestFlushInvalidation:
    """The running example has 25 edges, so a flush keeps the plan epoch
    while the epoch's inserted plus deleted edges stay at 2 or fewer
    (``ANALYZE_SCALE_FACTOR`` = 10 %), and starts a new one past that."""

    def test_flush_misses_and_reflects_new_data(self, example_graph):
        db = Database(example_graph)
        q = _wire()
        count_before = db.count(q)
        stale_plan = db.plan(q)  # cached against the pre-flush generation
        generation_before = db.store.snapshot().state.generation

        maintainer = db.maintainer(merge_threshold=10**9)
        maintainer.insert_edges(np.array([0, 1]), np.array([1, 2]), "Wire")
        maintainer.flush()

        assert db.store.snapshot().state.generation > generation_before

        # Within the drift bound a structurally identical resubmission
        # rebinds the epoch's plan to the new generation (a hit and a
        # rebind, no re-plan) and sees the inserted edges...
        count_after = db.count(_wire(name="resubmitted", src="p", dst="q"))
        assert count_after == count_before + 2
        assert db.plan_cache.stats.misses == 1
        assert db.plan_cache.stats.rebinds == 1

        # ...while the pre-built plan keeps the PR 6 pinned-generation
        # replay contract: byte-for-byte the old generation's answer.
        assert db.count(stale_plan) == count_before

        # Past the drift bound the flush starts a new epoch: a miss.
        maintainer.insert_edges(np.array([2]), np.array([3]), "Wire")
        maintainer.flush()
        assert db.count(q) == count_before + 3
        assert db.plan_cache.stats.misses == 2
        assert db.plan_cache.stats.rebinds == 1
        assert maintainer.stats.statistics_refreshes == 1

    def test_flush_invalidates_server_side(self, example_graph):
        db = Database(example_graph)
        q = _wire()
        with db.server() as server:
            before = server.count(q)
            maintainer = db.maintainer(merge_threshold=10**9)
            maintainer.insert_edges(np.array([2]), np.array([3]), "Wire")
            maintainer.flush()
            after = server.count(_wire(name="post-flush"))
            assert after == before + 1
            stats = server.stats.snapshot()
            assert stats["plan_cache_misses"] == 1
            assert stats["plan_cache_hits"] == 1
            assert stats["plan_cache_rebinds"] == 1
            maintainer.insert_edges(np.array([2, 3]), np.array([3, 4]), "Wire")
            maintainer.flush()
            assert server.count(q) == before + 3
            stats = server.stats.snapshot()
            assert stats["plan_cache_misses"] == 2
            assert stats["plan_cache_hits"] + stats["plan_cache_misses"] == 3

    def test_superseded_generations_are_retired(self, example_graph):
        """The cache keeps one template per pattern and epoch plus at most
        the live generation's plan: a superseded generation's graph is
        collectable as soon as no pre-built plan holds it."""
        db = Database(example_graph)
        maintainer = db.maintainer(merge_threshold=10**9)
        queries = [_wire(), _wire_over(40), _wire_over(90, name="big")]
        lookups = 0
        for cycle in range(30):
            maintainer.insert_edges(np.array([cycle % 5]), np.array([5]), "Wire")
            maintainer.flush()
            for q in queries:
                db.count(q)
                db.count(q)
                lookups += 2
            assert len(db.plan_cache) <= 3
        stats = db.plan_cache.stats.snapshot()
        refreshes = maintainer.stats.statistics_refreshes
        assert 0 < refreshes < 29
        assert stats["hits"] + stats["misses"] == lookups
        # The first flush keeps epoch 0; every later one either rebinds the
        # three plans or, starting an epoch, makes them miss.
        assert stats["misses"] == 3 * (1 + refreshes)
        assert db.plan_cache.stats.rebinds == 3 * (29 - refreshes)
        assert stats["evictions"] == 0  # retired, never pushed out by the LRU

        superseded = weakref.ref(db.graph)
        maintainer.insert_edges(np.array([0]), np.array([5]), "Wire")
        maintainer.flush()
        gc.collect()
        assert superseded() is None

    def test_retired_generation_cannot_be_reinserted(self, example_db):
        """A plan made against a snapshot a concurrent flush superseded is
        handed to its caller but not retained."""
        cache = PlanCache(capacity=4)
        plan = example_db.plan(_wire())
        cache.insert(_wire(), 3, plan)
        cache.retire_before(5)
        assert len(cache) == 0
        cache.insert(_wire(), 4, plan)
        assert len(cache) == 0
        cache.insert(_wire(), 5, plan)
        assert len(cache) == 1

    def test_stale_snapshot_rebind_is_not_retained(self, example_graph):
        """A reader whose snapshot a flush superseded gets the epoch's plan
        bound to its own snapshot; the cache keeps the live one."""
        db = Database(example_graph)
        q = _wire()
        db.plan(q)
        old = db.store.snapshot()
        maintainer = db.maintainer(merge_threshold=10**9)
        maintainer.insert_edges(np.array([0]), np.array([1]), "Wire")
        maintainer.flush()
        live = db.plan(q)
        assert live.store_snapshot.state is db.store.state
        stale = db.plan_cache.lookup(q, old.state.epoch, snapshot=old)
        assert stale.store_snapshot is old
        assert stale == Optimizer(old).optimize(q)
        assert db.plan(q) is live
        assert db.plan_cache.stats.rebinds == 2

    def test_prebuilt_plan_replays_after_retirement(self, example_graph):
        db = Database(example_graph)
        maintainer = db.maintainer(merge_threshold=10**9)
        # A flushed graph, so that no fixture holds the pinned generation.
        maintainer.insert_edges(np.array([1]), np.array([2]), "Wire")
        maintainer.flush()
        plan = db.plan(_wire())
        before = db.count(plan)
        maintainer.insert_edges(np.array([0]), np.array([1]), "Wire")
        maintainer.flush()
        # The flush kept the epoch: the template stays, its bound plan is
        # released, and only the pre-built plan holds the old graph now.
        assert len(db.plan_cache) == 1
        pinned = weakref.ref(plan.store_snapshot.graph)
        gc.collect()
        assert pinned() is not None
        assert db.count(plan) == before
        del plan
        gc.collect()
        assert pinned() is None

    def test_drop_index_misses(self, example_db):
        q = _wire()
        example_db.execute_ddl(
            "CREATE 1-HOP VIEW UsdWires MATCH vs-[eadj:Wire]->vd "
            "WHERE eadj.currency = USD "
            "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID"
        )
        example_db.plan(q)
        example_db.drop_index(example_db.store.secondary_index_names()[0])
        example_db.plan(q)
        assert example_db.plan_cache.stats.snapshot() == {
            "hits": 0, "misses": 2, "evictions": 0,
        }


# ----------------------------------------------------------------------
# determinism: cache-hit == fresh-planned, on every backend
# ----------------------------------------------------------------------
class TestCachedVsFreshByteIdentity:
    @pytest.mark.parametrize(
        "backend",
        [
            "serial",
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not fork_available(),
                    reason="process backend needs fork start method",
                ),
            ),
        ],
    )
    def test_backend(self, example_graph, backend):
        cached_db = Database(example_graph)
        fresh_db = Database(example_graph, plan_cache_capacity=0)
        q = _wire_over(40)

        cached_db.run(q, parallelism=2, backend=backend)  # warm the cache
        hit = cached_db.run(q, parallelism=2, backend=backend)
        assert cached_db.plan_cache.stats.hits >= 1
        fresh = fresh_db.run(q, parallelism=2, backend=backend)

        assert hit.matches == fresh.matches
        assert hit.count == fresh.count
        assert _stats_dict(hit.stats) == _stats_dict(fresh.stats)


# ----------------------------------------------------------------------
# generated histories: the cached plan is the fresh plan, at every step
# ----------------------------------------------------------------------
fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large history budget is opt-in; set RUN_FUZZ=1 to run",
)

_DATE_WINDOW = (
    cmp(prop("eb", "date"), "<", prop("eadj", "date")),
    cmp(prop("eadj", "date"), "<", prop("eb", "date"), offset=400.0),
)
_PRIMARY_CONFIGS = (
    IndexConfig.default(),
    IndexConfig(
        partition_keys=(PartitionKey.edge_label(), PartitionKey.edge_property("currency")),
        sort_keys=(SortKey.edge_property("date"), SortKey.neighbour_id()),
    ),
)
_HISTORY_STEP = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("flush_past")),
    st.tuples(st.just("ddl"), st.sampled_from(["Big", "EPd"])),
    st.tuples(st.just("drop"), st.sampled_from(["Big", "EPd"])),
    st.tuples(st.just("reconfigure"), st.sampled_from([0, 1])),
)
_BACKENDS = [
    "serial",
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not fork_available(), reason="process backend needs fork start method"
        ),
    ),
]


def _history_queries():
    big = QueryGraph("big")
    big.add_vertex("a", label="Account")
    big.add_vertex("b", label="Account")
    big.add_edge("a", "b", label="Wire", name="e1")
    big.add_predicate(cmp(prop("e1", "amt"), ">", 500))
    flow = QueryGraph("flow")
    for var in "abc":
        flow.add_vertex(var, label="Account")
    flow.add_edge("a", "b", name="e1")
    flow.add_edge("b", "c", name="e2")
    flow.add_predicate(cmp(prop("e1", "date"), "<", prop("e2", "date")))
    flow.add_predicate(cmp(prop("e2", "date"), "<", prop("e1", "date"), offset=400.0))
    triangle = QueryGraph("triangle")
    for var in "abc":
        triangle.add_vertex(var)
    triangle.add_edge("a", "b", name="e1")
    triangle.add_edge("b", "c", name="e2")
    triangle.add_edge("a", "c", name="e3")
    return [big, flow, triangle]


def _create_index(db, name):
    if name == "Big":
        db.create_vertex_index(
            OneHopView("Big", predicate=Predicate.of(cmp(prop("eadj", "amt"), ">", 500))),
            directions=(Direction.FORWARD,),
            config=IndexConfig(
                partition_keys=(),
                sort_keys=(SortKey.edge_property("date"), SortKey.neighbour_id()),
            ),
            name="Big",
        )
    else:
        db.create_edge_index(
            TwoHopView("EPd", EdgeAdjacencyType.DST_FW, Predicate.of(*_DATE_WINDOW)),
            config=IndexConfig.flat(),
            name="EPd",
        )


def _run_history(graph, steps, seed, backend):
    """Apply ``steps`` to a fresh database; after each, every query's cached
    plan must equal a fresh plan of the same snapshot, with the cache
    outcome the epoch rule predicts, and must count and charge alike on
    ``backend``."""
    db = Database(graph)
    maintainer = db.maintainer(merge_threshold=10**9)
    cache = db.plan_cache
    queries = _history_queries()
    planned_at = {}  # query name -> (epoch, generation) of its last lookup
    pending = 0
    rng = np.random.default_rng(seed)

    def insert(count):
        num_vertices = db.graph.num_vertices
        maintainer.insert_edges(
            rng.integers(0, num_vertices, size=count),
            rng.integers(0, num_vertices, size=count),
            "Wire",
            properties=dict(
                amt=rng.integers(1, 1001, size=count),
                date=rng.integers(0, 1825, size=count),
                currency=rng.integers(0, 4, size=count),
            ),
        )

    for step in steps:
        state = db.store.state
        kind = step[0]
        new_epoch = False
        if kind == "update":
            insert(step[1])
            doomed = rng.choice(db.graph.num_edges, size=step[2], replace=False)
            before = maintainer.stats.deleted_edges
            maintainer.delete_edges(doomed)
            pending += step[1] + maintainer.stats.deleted_edges - before
        elif kind in ("flush", "flush_past"):
            if kind == "flush_past":
                past = int(ANALYZE_SCALE_FACTOR * state.planner_statistics.num_edges) + 1
                insert(past)
                pending += past
            new_epoch = pending and (
                state.epoch_changes + pending
                > ANALYZE_SCALE_FACTOR * state.planner_statistics.num_edges
            )
            maintainer.flush()
            pending = 0
        elif kind == "ddl":
            if step[1] not in db.store.secondary_index_names():
                _create_index(db, step[1])
                new_epoch = True
        elif kind == "drop":
            if step[1] in db.store.secondary_index_names():
                db.drop_index(step[1])
                new_epoch = True
        else:
            db.reconfigure_primary(_PRIMARY_CONFIGS[step[1]])
            new_epoch = True
        assert (db.store.epoch != state.epoch) == bool(new_epoch), step

        snapshot = db.store.snapshot()
        now = (snapshot.state.epoch, snapshot.state.generation)
        for query in queries:
            counters = (cache.stats.hits, cache.stats.misses, cache.stats.rebinds)
            plan = db.plan(query)
            last = planned_at.get(query.name)
            if last is None or last[0] != now[0]:
                want = (0, 1, 0)  # a new epoch re-plans
            elif last[1] != now[1]:
                want = (1, 0, 1)  # a flush within the epoch rebinds
            else:
                want = (1, 0, 0)
            got = (cache.stats.hits, cache.stats.misses, cache.stats.rebinds)
            assert tuple(g - c for g, c in zip(got, counters)) == want, (step, query.name)
            planned_at[query.name] = now

            fresh = Optimizer(snapshot).optimize(query)
            assert plan.store_snapshot.state is snapshot.state
            assert plan == fresh
            assert plan.describe() == fresh.describe()
            fresh.store_snapshot = snapshot
            cached_run = db.run(query, parallelism=2, backend=backend)
            fresh_run = db.run(fresh, parallelism=2, backend=backend)
            assert cached_run.count == fresh_run.count == db.count(fresh)
            assert _stats_dict(cached_run.stats) == _stats_dict(fresh_run.stats)


class TestPlanEpochHistory:
    """Interleaved insert, delete, flush (within and past the drift bound),
    DDL, DROP and RECONFIGURE: a cached plan is always what a fresh
    optimizer run against the same snapshot returns, i-cost included."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    @settings(max_examples=3, deadline=None)
    @given(st.lists(_HISTORY_STEP, min_size=1, max_size=6), st.integers(0, 2**16))
    def test_history(self, financial_graph, backend, steps, seed):
        _run_history(financial_graph, steps, seed, backend)

    @fuzz
    @pytest.mark.fuzz
    @pytest.mark.parametrize("backend", _BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_HISTORY_STEP, min_size=1, max_size=12), st.integers(0, 2**16))
    def test_fuzz_history(self, financial_graph, backend, steps, seed):
        _run_history(financial_graph, steps, seed, backend)


# ----------------------------------------------------------------------
# concurrency: readers rebinding while one writer flushes
# ----------------------------------------------------------------------
def test_readers_racing_flushes_get_fresh_plans(financial_graph):
    """Four reader threads (more than the cores) plan and count while the
    main thread flushes small batches (the epoch carries) and, every fourth
    round, one past the drift bound.  Every plan a reader gets is the fresh
    plan of the snapshot it is bound to and counts that snapshot's edges;
    the counters reconcile; and once the writer stops the cache holds no
    plan bound to a superseded generation."""
    db = Database(financial_graph)
    maintainer = db.maintainer(merge_threshold=10**9)
    query = QueryGraph("edges")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e")
    stop = threading.Event()
    lookups = []
    errors = []

    def reader() -> None:
        try:
            while not stop.is_set():
                plan = db.plan(query)
                lookups.append(1)
                snapshot = plan.store_snapshot
                assert plan == Optimizer(snapshot).optimize(query)
                assert db.count(plan) == snapshot.graph.num_edges
        except Exception as exc:  # noqa: BLE001 - surface to the main thread
            errors.append(exc)

    rng = np.random.default_rng(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for round_ in range(16):
            size = 100 if round_ % 4 == 3 else 2
            maintainer.insert_edges(
                rng.integers(0, 120, size=size), rng.integers(0, 120, size=size), "Wire"
            )
            maintainer.flush()
            time.sleep(0.005)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, f"reader raised: {errors[0]!r}"
    stats = db.plan_cache.stats
    assert stats.hits + stats.misses == len(lookups) > 0
    assert stats.rebinds <= stats.hits
    assert maintainer.stats.statistics_refreshes >= 4
    state = db.store.state
    for key, entry in db.plan_cache._entries.items():
        assert key[1] == state.epoch
        assert entry.bound is None or entry.bound.pinned_generation == state.generation
