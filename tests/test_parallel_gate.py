"""The plan-cost gate: ``parallelism`` is a ceiling, not an order.

A plan whose i-cost estimate is under ``PARALLEL_MIN_ICOST`` runs inline on
the calling thread — the caller of ``Database.run/count/collect/exists`` or
the server's slot thread — with no lease, no backend and no morsels; at or
above it the leased-pool dispatcher runs as before.  This file runs with the
*production* gate (the rest of the suite pins it to 0, see
``conftest.always_dispatch``) and moves the constant, never the graph, to
put a plan on either side of it.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro import Database
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.query import executor as executor_module
from repro.query.backends import fork_available
from repro.query.executor import (
    PARALLEL_MIN_ICOST,
    Executor,
    MorselExecutor,
    effective_workers,
)
from repro.query.operators import ExecutionStats
from repro.query.pattern import QueryGraph
from repro.query.plan import QueryPlan
from repro.query.runtime import CancellationToken, QueryContext
from repro.server import ServerConfig
from repro.server import server as server_module

pytestmark = pytest.mark.production_gate

BACKENDS = [
    ("serial", 2),
    ("thread", 2),
    pytest.param(
        "process",
        2,
        marks=pytest.mark.skipif(
            not fork_available(), reason="needs cheap fork pools"
        ),
    ),
]


def _social_query(name: str, edges) -> QueryGraph:
    query = QueryGraph(name)
    for var in sorted({v for edge in edges for v in edge}):
        query.add_vertex(var, label="User")
    for position, (src, dst) in enumerate(edges, start=1):
        query.add_edge(src, dst, label="Follows", name=f"e{position}")
    return query


def _two_hop() -> QueryGraph:
    return _social_query("two_hop", [("a", "b"), ("b", "c")])


def _triangle() -> QueryGraph:
    return _social_query("triangle", [("a", "b"), ("b", "c"), ("a", "c")])


QUERIES = {"two_hop": _two_hop, "triangle": _triangle}


def _handbuilt(plan: QueryPlan) -> QueryPlan:
    """The same operators as ``plan``, carrying no estimate (as tests build)."""
    return QueryPlan(query=plan.query, operators=plan.operators)


def _set_gate(monkeypatch, value) -> None:
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ICOST", value)


@pytest.fixture()
def db(social_graph):
    # A small batch gives every query several check points and batches.
    return Database(social_graph, batch_size=32)


# ----------------------------------------------------------------------
# the decision
# ----------------------------------------------------------------------
def test_this_file_runs_with_the_production_gate():
    assert executor_module.PARALLEL_MIN_ICOST == PARALLEL_MIN_ICOST == 2_000_000


def test_at_threshold_dispatches_and_just_below_runs_inline(db, monkeypatch):
    plan = db.plan(_triangle())
    cost = plan.estimated_cost
    assert cost > 0
    _set_gate(monkeypatch, cost)  # at the threshold: not below it
    assert effective_workers(plan, 4) == 4
    assert db.run(plan, parallelism=4).stats.morsels_dispatched > 0
    _set_gate(monkeypatch, cost + 1)  # just below
    assert effective_workers(plan, 4) == 1
    assert db.run(plan, parallelism=4).stats.morsels_dispatched == 0
    # One requested worker is one worker on either side.
    assert effective_workers(plan, 1) == 1


def test_handbuilt_plan_without_estimate_keeps_requested_parallelism(db):
    planned = db.plan(_triangle())
    bare = _handbuilt(planned)
    assert bare.estimated_cost == 0 and bare.estimated_cardinality == 0
    assert effective_workers(planned, 3) == 1
    assert effective_workers(bare, 3) == 3
    assert db.run(bare, parallelism=3).stats.morsels_dispatched > 0
    assert db.run(bare, parallelism=3).count == db.run(planned).count


def test_inline_executor_uses_the_morsel_body_batch(db):
    plan = db.plan(_triangle())
    # The gated-inline run and parallelism=1 get the same runner, so the
    # same rows in flight (tests/test_rows_in_flight.py).
    inline = db._make_executor(db.graph, 2, None, plan)
    direct = db._make_executor(db.graph, 1, None, plan)
    assert type(inline) is type(direct) is Executor
    assert inline.batch_size == direct.batch_size == 32
    # A MorselExecutor built by hand is untouched.
    assert isinstance(db.executor(parallelism=2), MorselExecutor)
    forced = MorselExecutor(db.graph, batch_size=32, num_workers=2, backend="serial")
    assert forced.run(plan).stats.morsels_dispatched > 0
    assert all(len(batch) <= 32 for batch in inline.execute(plan))


@pytest.mark.parametrize("source", ["call", "instance", "env", "server-config"])
def test_every_parallelism_source_is_a_ceiling(social_graph, monkeypatch, source):
    query = _triangle()
    if source == "env":
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
    graph_db = Database(social_graph, parallelism=4 if source == "instance" else None)
    call = {"parallelism": 4} if source == "call" else {}
    for gate, inline in ((PARALLEL_MIN_ICOST, True), (0, False)):
        _set_gate(monkeypatch, gate)
        if source == "server-config":
            with graph_db.server(ServerConfig(parallelism=4, backend="thread")) as server:
                stats = server.run(query).stats
                counters = server.stats.snapshot()
            assert (counters["inline"], counters["pooled"]) == (
                (1, 0) if inline else (0, 1)
            )
        else:
            stats = graph_db.run(query, **call).stats
        assert (stats.morsels_dispatched == 0) is inline


# ----------------------------------------------------------------------
# inline == every backend == the naive oracle, for all four sinks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend,workers", BACKENDS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_inline_identical_to_dispatcher_on_every_sink(db, name, backend, workers):
    query = QUERIES[name]()
    plan = db.plan(query)
    forced = MorselExecutor(
        db.graph, batch_size=db.batch_size, num_workers=workers, backend=backend
    )
    # run: rows, order and the full logical ExecutionStats.
    inline = db.run(plan, materialize=True, parallelism=workers, backend=backend)
    pooled = forced.run(plan, materialize=True)
    assert inline.stats.morsels_dispatched == 0 < pooled.stats.morsels_dispatched
    assert inline.matches == pooled.matches
    assert inline.stats == pooled.stats
    # count (factorized and flat), collect(limit=), exists.
    for factorized in (None, False):
        inline_stats, pooled_stats = ExecutionStats(), ExecutionStats()
        inline_executor = db._make_executor(db.graph, workers, backend, plan)
        assert inline_executor.count(
            plan, factorized=factorized, stats=inline_stats
        ) == forced.count(plan, factorized=factorized, stats=pooled_stats)
        # segments_emitted advances once per (batch, suffix operator): the one
        # counter that is documented to follow batch and morsel boundaries.
        assert replace(inline_stats, segments_emitted=0) == replace(
            pooled_stats, segments_emitted=0
        )
        assert inline_stats.morsels_dispatched == 0
    assert db.collect(plan, limit=7, parallelism=workers, backend=backend) == (
        forced.collect(plan, limit=7)
    )
    assert db.exists(plan, parallelism=workers, backend=backend) is forced.exists(plan)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_inline_agrees_with_the_naive_oracle(db, social_oracle, name):
    query = QUERIES[name]()
    naive = social_oracle.match(query)
    rows = db.collect(query, parallelism=2)
    assert db.run(query, parallelism=2).stats.morsels_dispatched == 0
    variables = sorted(query.vertex_names)
    key = lambda row: tuple(row[var] for var in variables)
    assert sorted(map(key, rows)) == sorted(map(key, naive))
    assert db.count(query, parallelism=2) == len(naive)
    assert db.run(query, parallelism=2).count == len(naive)
    assert db.exists(query, parallelism=2) is bool(naive)
    assert db.collect(query, limit=5, parallelism=2) == rows[:5]


def test_inline_limit_and_exists_stop_early(db):
    plan = db.plan(_two_hop())
    executor = db._make_executor(db.graph, 2, None, plan)
    full, limited, probed = ExecutionStats(), ExecutionStats(), ExecutionStats()
    rows = executor.collect(plan, stats=full)
    assert executor.collect(plan, limit=3, stats=limited) == rows[:3]
    assert executor.exists(plan, stats=probed) is True
    assert limited.intermediate_rows < full.intermediate_rows
    assert probed.intermediate_rows < full.intermediate_rows
    assert full.morsels_dispatched == limited.morsels_dispatched == 0


# ----------------------------------------------------------------------
# the engine says which way it went
# ----------------------------------------------------------------------
def test_describe_prints_the_decision(db, monkeypatch):
    plan = db.plan(_triangle())
    cost = f"i-cost≈{plan.estimated_cost:,.0f}"
    assert f"execution: inline — {cost} < 2,000,000" in plan.describe()
    assert "no estimate" in _handbuilt(plan).describe()
    text = Database(db.graph, parallelism=3, backend="thread").describe()
    assert "i-cost < 2,000,000 runs inline" in text
    assert "parallel ×3 on 'thread'" in text
    _set_gate(monkeypatch, 1)
    assert f"execution: parallel up to the requested workers — {cost} >= 1" in (
        plan.describe()
    )


def test_server_counts_inline_and_pooled(db, monkeypatch):
    cheap, dear = db.plan(_two_hop()), db.plan(_triangle())
    assert cheap.estimated_cost < dear.estimated_cost
    _set_gate(monkeypatch, dear.estimated_cost)  # two_hop below, triangle at
    with db.server(ServerConfig(parallelism=2, backend="thread")) as server:
        assert server.run(cheap).stats.morsels_dispatched == 0
        assert server.run(dear).stats.morsels_dispatched > 0
        assert server.count(cheap) == db.count(cheap, parallelism=1)
        # The serial backend is one thread by definition: inline, no pool.
        assert server.count(dear, backend="serial") == db.count(dear, parallelism=1)
        counters = server.stats.snapshot()
        described = server.describe()
    assert (counters["inline"], counters["pooled"]) == (3, 1)
    assert counters["inline"] + counters["pooled"] == counters["admitted"]
    assert "inline=3, pooled=1" in described
    assert server.supervisor.pools_created == 1


# ----------------------------------------------------------------------
# inline execution owes the pools nothing
# ----------------------------------------------------------------------
def _assert_reconciled(server) -> None:
    stats = server.stats.snapshot()
    assert stats["submitted"] == stats["admitted"] + stats["rejected"] + stats["shed"]
    assert stats["admitted"] == stats["completed"] + stats["failed"]
    assert stats["admitted"] == stats["inline"] + stats["pooled"]


def _assert_pools_untouched(server) -> None:
    supervisor = server.supervisor
    assert supervisor.pools_created == supervisor.pools_reused == 0
    assert supervisor.pools_recycled == supervisor.degraded_leases == 0
    assert supervisor._breakers == {}  # no breaker was even looked up


@pytest.fixture()
def between_batches(monkeypatch):
    """Run ``action()`` once, after the inline query emitted its first batch."""

    def install(action):
        plain = Executor.execute

        def execute(self, plan, stats=None, runtime=None, count_only=False):
            stream = plain(
                self, plan, stats=stats, runtime=runtime, count_only=count_only
            )
            yield next(stream)
            action()
            yield from stream

        monkeypatch.setattr(Executor, "execute", execute)

    return install


class _ManualClock:
    now = 0.0

    def __call__(self) -> float:
        return self.now


def test_deadline_expiring_mid_inline_query_fails_typed(db, monkeypatch, between_batches):
    clock = _ManualClock()
    monkeypatch.setattr(
        server_module,
        "QueryContext",
        lambda **kwargs: QueryContext(clock=clock, **kwargs),
    )
    between_batches(lambda: setattr(clock, "now", 10.0))
    with db.server(ServerConfig(parallelism=2, backend="thread")) as server:
        ticket = server.submit(_two_hop(), mode="collect", timeout=5.0)
        with pytest.raises(QueryTimeoutError) as excinfo:
            ticket.result(timeout=30)
        assert ticket.outcome == "failed"
        assert excinfo.value.timeout == 5.0
        partial = excinfo.value.stats
        assert partial is not None and partial.intermediate_rows > 0
        assert partial.morsels_dispatched == 0
        # The slot is free and healthy: the next query runs and answers.
        assert server.count(_two_hop()) == db.count(_two_hop(), parallelism=1)
        _assert_pools_untouched(server)
    stats = server.stats.snapshot()
    assert (stats["failed"], stats["completed"], stats["inline"]) == (1, 1, 2)
    _assert_reconciled(server)


def test_cancel_mid_inline_query_fails_typed(db, between_batches):
    token = CancellationToken()
    between_batches(token.cancel)
    with db.server(ServerConfig(parallelism=2, backend="thread")) as server:
        ticket = server.submit(_two_hop(), mode="collect", cancel=token)
        with pytest.raises(QueryCancelledError) as excinfo:
            ticket.result(timeout=30)
        assert ticket.outcome == "failed"
        assert excinfo.value.stats.intermediate_rows > 0
        _assert_pools_untouched(server)
    _assert_reconciled(server)


def test_drain_waits_for_running_inline_query_and_cancels_queued(db, between_batches):
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        assert release.wait(30)

    between_batches(hold)
    server = db.server(
        ServerConfig(max_concurrent=1, max_queue_depth=4, parallelism=2, backend="thread")
    )
    drainer = threading.Thread(target=server.drain)
    try:
        running = server.submit(_two_hop(), mode="collect")
        assert started.wait(30)
        queued = server.submit(_two_hop(), mode="collect")
        drainer.start()
        with pytest.raises(QueryCancelledError) as excinfo:
            queued.result(timeout=30)
        assert "drain" in str(excinfo.value)
        assert drainer.is_alive() and not running.done()
    finally:
        release.set()
        drainer.join(timeout=30)
    assert not drainer.is_alive()
    assert server.state == "closed"
    assert running.result(timeout=30) == db.collect(_two_hop(), parallelism=1)
    _assert_pools_untouched(server)
    _assert_reconciled(server)


def test_breaker_degraded_lease_runs_inline(db, monkeypatch):
    _set_gate(monkeypatch, 0)  # every plan asks for a pool
    query = _triangle()
    config = ServerConfig(
        parallelism=2, backend="thread", breaker_threshold=1, breaker_cooldown=60.0
    )
    with db.server(config) as server:
        server.supervisor.breaker("thread", 2).record_failure()
        result = server.run(query, materialize=True)
        assert result.stats.morsels_dispatched == 0
        assert result.matches == db.run(query, materialize=True, parallelism=1).matches
        assert server.supervisor.degraded_leases == 1
        assert server.supervisor.pools_created == 0
        assert server.supervisor.breaker("thread", 2).state == "open"
        counters = server.stats.snapshot()
    assert (counters["inline"], counters["pooled"]) == (1, 0)
    _assert_reconciled(server)
