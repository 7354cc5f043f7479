"""Pickle round-trips for morsel task specs, worker payloads, and plans.

The process morsel backend works by shipping state across a process
boundary: a :class:`~repro.query.backends.WorkerPayload` (plan + graph, one
pickle shipped to each worker) and per-morsel :class:`~repro.query.backends
.MorselTaskSpec` messages.  These tests pin the wire contract without
needing a pool — the worker body is invoked in-process on pickled bytes —
plus the generation-pinning guarantee end to end: a plan pinned to
store generation G, serialized after a maintenance flush installs G+1, still
executes against G.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.query import QueryGraph, cmp, prop
from repro.query.backends import (
    _PLAN_IDS,
    MorselTaskSpec,
    PayloadMissing,
    WorkerPayload,
    _worker_run,
    decode_batches,
    encode_batches,
    reply_checksum,
    run_morsel,
)
from repro.query.executor import Executor
from repro.query.operators import ExecutionStats


@pytest.fixture()
def zipf_db():
    graph = generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=90,
            num_edges=360,
            num_vertex_labels=2,
            num_edge_labels=2,
            skew=0.8,
            seed=11,
        )
    )
    return Database(graph)


def _triangle():
    query = QueryGraph("tri")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


def _stats_dict(stats):
    # The compare=False observability fields (per-stage wall times, morsel
    # dispatch counts) legitimately differ between runs; byte-identity is
    # asserted on the work counters.
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.compare
    }


class TestTaskSpecRoundTrip:
    def test_spec_round_trips(self):
        spec = MorselTaskSpec(plan_id=7, generation=3, start=128, stop=256)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_unpinned_spec_round_trips(self):
        spec = MorselTaskSpec(plan_id=1, generation=None, start=0, stop=10)
        assert pickle.loads(pickle.dumps(spec)) == spec


def _payload_bytes(db, plan):
    """A pickled payload under a fresh wire plan id (the worker cache is
    per process, so in-process tests must not reuse ids)."""
    payload = WorkerPayload(
        plan_id=next(_PLAN_IDS),
        generation=plan.pinned_generation,
        plan=plan,
        graph=db.graph,
        batch_size=64,
    )
    return payload.plan_id, pickle.dumps(payload)


class TestWorkerPayloadRoundTrip:
    def test_rehydrated_worker_reproduces_serial_morsel(self, zipf_db):
        plan = zipf_db.plan(_triangle())
        plan_id, payload_bytes = _payload_bytes(zipf_db, plan)
        spec = MorselTaskSpec(
            plan_id=plan_id, generation=plan.pinned_generation, start=10, stop=55
        )
        # A cold worker asks for the payload; the re-shipped task runs.
        with pytest.raises(PayloadMissing):
            _worker_run(spec)
        encoded, stats_tuple, checksum = _worker_run(spec, payload_bytes)
        batches = decode_batches(encoded)

        expected_batches, expected_stats = run_morsel(
            plan, zipf_db.graph, 64, 10, 55
        )
        # Dataclass equality excludes the compare=False observability
        # fields (per-stage wall times differ run to run); the work
        # counters must round-trip exactly.
        assert ExecutionStats(*stats_tuple) == expected_stats
        assert reply_checksum(encoded, stats_tuple) == checksum
        got = [row for batch in batches for row in batch.to_dicts()]
        want = [row for batch in expected_batches for row in batch.to_dicts()]
        assert got == want

    def test_generation_mismatch_is_rejected(self, zipf_db):
        plan = zipf_db.plan(_triangle())
        plan_id, payload_bytes = _payload_bytes(zipf_db, plan)
        stale = MorselTaskSpec(
            plan_id=plan_id,
            generation=(plan.pinned_generation or 0) + 1,
            start=0,
            stop=10,
        )
        with pytest.raises(ExecutionError, match="generation"):
            _worker_run(stale, payload_bytes)
        # Cached now: the mismatch is caught without the bytes as well.
        with pytest.raises(ExecutionError, match="generation"):
            _worker_run(stale)
        wrong_plan = MorselTaskSpec(
            plan_id=next(_PLAN_IDS), generation=plan.pinned_generation, start=0, stop=10
        )
        with pytest.raises(ExecutionError, match="does not match"):
            _worker_run(wrong_plan, payload_bytes)

    def test_encode_decode_batches_round_trip(self, zipf_db):
        plan = zipf_db.plan(_triangle())
        batches, _ = run_morsel(plan, zipf_db.graph, 32, 0, 40)
        clone = decode_batches(pickle.loads(pickle.dumps(encode_batches(batches))))
        assert [b.to_dicts() for b in clone] == [b.to_dicts() for b in batches]


class TestGenerationPinning:
    """A plan pinned to generation G survives a flush installing G+1."""

    def _flush_some_edges(self, db):
        maintainer = db.maintainer(merge_threshold=10**9)
        rng_edges = [(1, 2), (3, 4), (5, 6), (7, 8)]
        for src, dst in rng_edges:
            maintainer.insert_edge(src, dst, "EL0")
        maintainer.flush()

    def test_pickled_plan_still_executes_against_generation_g(self, zipf_db):
        plan = zipf_db.plan(_triangle())
        pinned = plan.pinned_generation
        before = Executor(plan.store_snapshot.graph).run(plan, materialize=True)

        self._flush_some_edges(zipf_db)
        assert zipf_db.store.generation == pinned + 1

        # Serialize *after* the flush — the worker-side copy must still be
        # the G generation, plan and graph consistently.
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.pinned_generation == pinned
        replay = Executor(clone.store_snapshot.graph).run(clone, materialize=True)
        assert replay.matches == before.matches
        assert _stats_dict(replay.stats) == _stats_dict(before.stats)

    def test_process_backend_runs_prebuilt_plan_against_its_generation(
        self, zipf_db
    ):
        plan = zipf_db.plan(_triangle())
        before = zipf_db.run(plan, materialize=True, parallelism=1)

        self._flush_some_edges(zipf_db)

        # The flushed store has more edges, so a fresh plan sees more
        # matches — while the pre-built plan, even executed on pool workers
        # rehydrated after the flush, reproduces the pinned generation.
        replay = zipf_db.run(
            plan, materialize=True, parallelism=2, backend="process"
        )
        assert replay.matches == before.matches
        assert _stats_dict(replay.stats) == _stats_dict(before.stats)

        fresh = zipf_db.run(_triangle(), materialize=True, parallelism=1)
        assert fresh.count > before.count

    def test_worker_payload_pickle_shares_generation_object_graph(self, zipf_db):
        plan = zipf_db.plan(_triangle())
        payload = WorkerPayload(
            plan_id=1,
            generation=plan.pinned_generation,
            plan=plan,
            graph=plan.store_snapshot.graph,
            batch_size=32,
        )
        clone = pickle.loads(pickle.dumps(payload))
        # Inside one payload pickle, the plan's snapshot graph and the
        # shipped graph deserialize to the *same* object, so the worker's
        # state is internally consistent (no duplicated generations).
        assert clone.plan.store_snapshot.graph is clone.graph
        leg = clone.plan.operators[1].legs[0]
        assert leg.access_path.index is clone.plan.store_snapshot.primary.for_direction(
            leg.access_path.direction
        )


class TestStoreGenerationCounter:
    def test_every_write_bumps_generation(self, zipf_db):
        store = zipf_db.store
        start = store.generation
        snapshot = store.snapshot()
        self_export = store.export_snapshot()
        assert self_export.generation == start
        zipf_db.reconfigure_primary(zipf_db.primary_index.config)
        assert store.generation == start + 1
        # Pinned snapshots never follow the swap.
        assert snapshot.generation == start
