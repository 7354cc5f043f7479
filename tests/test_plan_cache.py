"""The server/database plan cache: memoization, invalidation, and bounds.

Covers PR 10's cache contracts:

* **Hit/miss accounting** — `PlanCache.stats` reconciles exactly with the
  lookups made; a hit returns the *same* :class:`QueryPlan` object (what the
  persistent pools' payload registry keys on).
* **Generation-based invalidation** — any ``install_state`` (maintenance
  flush, primary reconfiguration, index DDL) bumps the store generation, so
  the next structurally-identical submission misses, re-plans against the
  new state, and *reflects the new data* — while a pre-built ``QueryPlan``
  keeps replaying its own pinned generation (the PR 6 contract).
* **LRU bound** — the entry count never exceeds ``capacity``; overflow is
  counted in ``stats.evictions``.  ``capacity=0`` disables retention.
* **Determinism** — a cache-hit execution is byte-identical to a
  fresh-planned one on the serial, thread, and process backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.query import PlanCache, QueryGraph, cmp, prop
from repro.query.backends import fork_available
from repro.query.plan_cache import DEFAULT_PLAN_CACHE_CAPACITY


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
# Database integration: one plan per (pattern, generation)
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
# satellite 3: flush → resubmission must re-plan, not serve stale bindings
# ----------------------------------------------------------------------
class TestFlushInvalidation:
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

        # A structurally identical resubmission misses the cache, re-plans
        # against the new generation, and sees the inserted edges...
        count_after = db.count(_wire(name="resubmitted", src="p", dst="q"))
        assert count_after == count_before + 2
        assert db.plan_cache.stats.misses >= 2

        # ...while the pre-built plan keeps the PR 6 pinned-generation
        # replay contract: byte-for-byte the old generation's answer.
        assert db.count(stale_plan) == count_before

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
            assert stats["plan_cache_misses"] == 2
            assert stats["plan_cache_hits"] == 0

    def test_superseded_generations_are_retired(self, example_graph):
        """Every flush drops the entries no QueryGraph lookup can hit again:
        the cache holds the live generation's plans only, not 64 entries
        pinning 22 dead generations' graphs and indexes."""
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
        assert stats["hits"] + stats["misses"] == lookups
        assert stats["misses"] == 30 * 3
        assert stats["evictions"] == 0  # retired, never pushed out by the LRU

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

    def test_prebuilt_plan_replays_after_retirement(self, example_graph):
        db = Database(example_graph)
        plan = db.plan(_wire())
        before = db.count(plan)
        maintainer = db.maintainer(merge_threshold=10**9)
        maintainer.insert_edges(np.array([0]), np.array([1]), "Wire")
        maintainer.flush()
        assert len(db.plan_cache) == 0
        assert db.count(plan) == before


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
