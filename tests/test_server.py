"""End-to-end tests for the admission-controlled query server.

Covers the server's three contracts:

* **Determinism** — an admitted query's result is byte-identical to a
  direct ``Database.run()`` of the same plan, on every backend and under
  concurrent load.
* **Bounded overload** — a full admission queue behaves per policy
  (``reject`` / ``shed-oldest`` / ``block``), expired queued queries are
  shed without occupying an execution slot, and the counters always
  reconcile: ``submitted == admitted + rejected + shed`` once drained.
* **Pool lifecycle** — pools persist across queries, crashed pools are
  recycled, repeated failures trip the circuit breaker into serial
  degradation, and ``drain()`` leaves no worker processes behind.

Slow queries are *held* deterministically with PR 7's injected delay
faults on the thread backend (the delay sleeps in a pool worker thread, so
the slot thread's polled wait stays responsive to cancellation) and
released with ``CancellationToken``s — no timing-tuned sleeps on the
critical path.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro import Database
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.query.backends import BACKENDS, ThreadBackend, fork_available
from repro.query.faults import FAULTS_ENV_VAR
from repro.query.pattern import QueryGraph
from repro.query.runtime import CancellationToken
from repro.server import (
    CircuitBreaker,
    DatabaseServer,
    PoolSupervisor,
    ServerConfig,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _owns_query(name: str = "owns") -> QueryGraph:
    q = QueryGraph(name)
    q.add_vertex("c1", label="Customer")
    q.add_vertex("a1", label="Account")
    q.add_edge("c1", "a1", label="Owns", name="r1")
    return q


def _two_hop_query(name: str = "two-hop") -> QueryGraph:
    q = QueryGraph(name)
    q.add_vertex("c1", label="Customer")
    q.add_vertex("a1", label="Account")
    q.add_vertex("a2", label="Account")
    q.add_edge("c1", "a1", label="Owns", name="r1")
    q.add_edge("a1", "a2", label="Wire", name="r2")
    return q


def _assert_invariants(server: DatabaseServer) -> None:
    stats = server.stats.snapshot()
    assert stats["submitted"] == (
        stats["admitted"] + stats["rejected"] + stats["shed"]
    ), stats
    assert stats["admitted"] == stats["completed"] + stats["failed"], stats
    assert stats["plan_cache_rebinds"] <= stats["plan_cache_hits"], stats


def _wait_until(predicate, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.005)


@pytest.fixture()
def held_server(example_db, monkeypatch, force_dispatch):
    """A 1-slot server whose queries sleep in a worker until cancelled.

    The injected delay (morsel 0, every attempt) runs inside a *thread
    pool worker*, so the execution slot's polled wait sees cancellation
    within one poll interval — tests hold the slot for exactly as long as
    they need and then release it via the query's token.  The delay is
    finite so an abandoned worker thread cannot outlive the test run by
    much even if a release is missed.  Holding a query this way needs the
    pool, hence ``force_dispatch``: under the production gate the example
    graph's queries would run inline and finish at once.
    """
    monkeypatch.setenv(FAULTS_ENV_VAR, "delay@0:2.5!")

    def make(**overrides):
        config = dict(
            max_concurrent=1,
            max_queue_depth=1,
            policy="reject",
            parallelism=2,
            backend="thread",
        )
        config.update(overrides)
        return DatabaseServer(example_db, ServerConfig(**config))

    return make


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_server_result_identical_to_direct_run(example_db, backend):
    query = _owns_query()
    direct = example_db.run(query, materialize=True)
    with example_db.server(
        ServerConfig(parallelism=2, backend=backend)
    ) as server:
        result = server.run(query, materialize=True)
        assert result.matches == direct.matches
        assert result.count == direct.count
        assert server.count(query) == direct.count
    _assert_invariants(server)


@pytest.mark.usefixtures("force_dispatch")
@pytest.mark.skipif(not fork_available(), reason="needs cheap fork pools")
def test_server_process_backend_identical_and_pool_reused(example_db):
    # A pre-built plan keeps one payload identity across queries, so the
    # workers' payload caches hit from the second run on (a per-query-graph
    # plan cache is the roadmap's follow-up; re-planning ships a fresh
    # payload each time but reuses the same pool either way).
    plan = example_db.plan(_owns_query())
    hop = _two_hop_query()
    direct = example_db.run(plan, materialize=True)
    direct_hop = example_db.count(hop)
    with example_db.server(
        ServerConfig(parallelism=2, backend="process")
    ) as server:
        for _ in range(3):
            result = server.run(plan, materialize=True)
            assert result.matches == direct.matches
        assert server.count(hop) == direct_hop
        # One persistent pool served every query; payloads were re-shipped
        # once per distinct plan and reused afterwards.
        assert server.supervisor.pools_created == 1
        pool = server.supervisor._free[("process", 2)][0]
        assert pool.queries_served == 4
        assert pool.payload_reuses >= 2
    assert multiprocessing.active_children() == []
    _assert_invariants(server)


def test_concurrent_clients_all_get_exact_results(example_db):
    queries = [_owns_query(), _two_hop_query()]
    expected = [example_db.run(q, materialize=True).matches for q in queries]
    errors = []

    with example_db.server(
        ServerConfig(
            max_concurrent=2,
            max_queue_depth=64,
            policy="block",
            parallelism=2,
            backend="thread",
        )
    ) as server:

        def client(worker_id: int) -> None:
            try:
                for i in range(5):
                    pick = (worker_id + i) % len(queries)
                    result = server.run(queries[pick], materialize=True)
                    if result.matches != expected[pick]:
                        errors.append(
                            f"client {worker_id} iteration {i}: mismatch"
                        )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"client {worker_id}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert errors == []
    stats = server.stats.snapshot()
    assert stats["completed"] == 40
    _assert_invariants(server)


# ----------------------------------------------------------------------
# admission policies
# ----------------------------------------------------------------------
def test_reject_policy_full_queue_raises_typed_error(held_server):
    server = held_server(policy="reject")
    query = _owns_query()
    hold = CancellationToken()
    try:
        t1 = server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        t2 = server.submit(query, cancel=hold)
        with pytest.raises(ServerOverloadedError) as excinfo:
            server.submit(query)
        assert excinfo.value.policy == "reject"
        assert excinfo.value.queue_depth == 1
        assert excinfo.value.max_queue_depth == 1
    finally:
        hold.cancel()
        server.drain()
    with pytest.raises(QueryCancelledError):
        t1.result()
    with pytest.raises((QueryCancelledError, Exception)):
        t2.result()
    stats = server.stats.snapshot()
    assert stats["rejected"] == 1
    assert stats["submitted"] == 3
    _assert_invariants(server)


def test_reject_overload_never_runs_more_than_max_concurrent(example_db):
    """Offer 4× the server's capacity under ``reject`` while every admitted
    query is held: the excess is rejected with the typed error, no more
    than ``max_concurrent`` queries ever execute at once, and every
    admitted query still returns the oracle count."""
    config = ServerConfig(max_concurrent=2, max_queue_depth=2, policy="reject")
    query = _two_hop_query()
    oracle = example_db.count(query, parallelism=1)
    server = DatabaseServer(example_db, config)
    release = threading.Event()
    lock = threading.Lock()
    executing = [0]
    peak = [0]
    execute = server._execute_ticket

    def held_execute(ticket):
        with lock:
            executing[0] += 1
            peak[0] = max(peak[0], executing[0])
        try:
            release.wait(timeout=30)
            execute(ticket)
        finally:
            with lock:
                executing[0] -= 1

    server._execute_ticket = held_execute
    capacity = config.max_concurrent + config.max_queue_depth
    offered = 4 * capacity
    tickets, rejected = [], 0
    try:
        for _ in range(offered):
            try:
                tickets.append(server.submit(query, mode="count"))
            except ServerOverloadedError as exc:
                assert exc.policy == "reject"
                rejected += 1
            # Let the free slots take what they can before the next offer.
            busy = min(len(tickets), config.max_concurrent)
            _wait_until(
                lambda: server.running() == busy
                and server.queue_depth() == len(tickets) - busy,
                message=f"{busy} queries running",
            )
        release.set()
        assert [ticket.result(timeout=30) for ticket in tickets] == [oracle] * capacity
    finally:
        release.set()
        server.drain()
    assert rejected == offered - capacity
    assert peak[0] == config.max_concurrent
    stats = server.stats.snapshot()
    assert stats["submitted"] == offered and stats["rejected"] == rejected
    _assert_invariants(server)


def test_shed_oldest_policy_evicts_oldest_waiter(held_server):
    server = held_server(policy="shed-oldest")
    query = _owns_query()
    hold = CancellationToken()
    try:
        server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        oldest = server.submit(query, cancel=hold)
        newest = server.submit(query, cancel=hold)
        # The oldest waiter was evicted to make room for the newest.
        with pytest.raises(ServerOverloadedError) as excinfo:
            oldest.result()
        assert excinfo.value.policy == "shed-oldest"
        assert not newest.done()
    finally:
        hold.cancel()
        server.drain()
    stats = server.stats.snapshot()
    assert stats["shed"] >= 1
    assert stats["rejected"] == 0
    _assert_invariants(server)


def test_block_policy_waits_for_room(held_server):
    server = held_server(policy="block")
    query = _owns_query()
    hold = CancellationToken()
    tickets = []
    try:
        tickets.append(server.submit(query, cancel=hold))
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        tickets.append(server.submit(query, cancel=hold))

        unblocked = threading.Event()

        def blocked_submit():
            tickets.append(server.submit(query, cancel=hold))
            unblocked.set()

        submitter = threading.Thread(target=blocked_submit)
        submitter.start()
        # The queue is full: the submitter must still be blocked.
        assert not unblocked.wait(0.2)
        # Release the running query; the queued one is admitted, making
        # room, and the blocked submit completes.
        hold.cancel()
        assert unblocked.wait(10), "block-policy submit never unblocked"
        submitter.join(timeout=5)
    finally:
        hold.cancel()
        server.drain()
    assert len(tickets) == 3
    _assert_invariants(server)


def test_block_policy_respects_query_deadline(held_server):
    server = held_server(policy="block")
    query = _owns_query()
    hold = CancellationToken()
    try:
        server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        server.submit(query, cancel=hold)
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            server.submit(query, timeout=0.3)
        # It gave up at its own deadline, not at some unrelated bound.
        assert time.monotonic() - started < 2.0
        assert server.stats.rejected == 1
    finally:
        hold.cancel()
        server.drain()
    _assert_invariants(server)


# ----------------------------------------------------------------------
# queue-deadline shedding and cancellation
# ----------------------------------------------------------------------
def test_queued_query_sheds_at_its_deadline_without_a_slot(held_server):
    server = held_server(max_queue_depth=4)
    query = _owns_query()
    hold = CancellationToken()
    try:
        server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        queued = server.submit(query, timeout=0.3)
        with pytest.raises(QueryTimeoutError) as excinfo:
            queued.result()
        assert "admission queue" in str(excinfo.value)
        # It never ran: the slot was still held the whole time.
        assert server.stats.admitted == 1
        assert server.stats.shed == 1
    finally:
        hold.cancel()
        server.drain()
    _assert_invariants(server)


def test_expired_ticket_reached_by_worker_is_shed_not_run(held_server):
    server = held_server(max_queue_depth=4)
    query = _owns_query()
    hold = CancellationToken()
    try:
        first = server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        # Deadline far shorter than the hold; nobody waits on the ticket,
        # so the *worker* must notice the corpse at dequeue time.
        queued = server.submit(query, timeout=0.05)
        time.sleep(0.2)
        hold.cancel()
        with pytest.raises(QueryCancelledError):
            first.result()
        with pytest.raises(QueryTimeoutError):
            queued.result()
        assert server.stats.admitted == 1
    finally:
        hold.cancel()
        server.drain()
    _assert_invariants(server)


def test_cancel_while_queued(held_server):
    server = held_server(max_queue_depth=4)
    query = _owns_query()
    hold = CancellationToken()
    try:
        server.submit(query, cancel=hold)
        _wait_until(lambda: server.running() == 1, message="slot occupied")
        queued = server.submit(query)
        assert queued.cancel() is True
        with pytest.raises(QueryCancelledError):
            queued.result()
        assert server.stats.shed == 1
        assert server.stats.admitted == 1
    finally:
        hold.cancel()
        server.drain()
    _assert_invariants(server)


# ----------------------------------------------------------------------
# drain / lifecycle
# ----------------------------------------------------------------------
def test_drain_finishes_running_cancels_queued(held_server):
    server = held_server(max_queue_depth=4)
    query = _owns_query()
    running = server.submit(query)
    _wait_until(lambda: server.running() == 1, message="slot occupied")
    queued = server.submit(query)
    server.drain()
    # The queued query was cancelled by the drain...
    with pytest.raises(QueryCancelledError) as excinfo:
        queued.result()
    assert "drain" in str(excinfo.value)
    # ...and the admitted one ran to a terminal outcome.  Its token was
    # NOT cancelled by the drain, but its injected 2.5s delay makes it a
    # completed query once the workers joined.
    assert running.done()
    assert running.outcome in ("completed", "failed")
    with pytest.raises(ServerClosedError):
        server.submit(query)
    assert server.state == "closed"
    assert multiprocessing.active_children() == []
    _assert_invariants(server)


def test_drain_is_idempotent_and_context_manager_drains(example_db):
    server = example_db.server()
    server.drain()
    server.drain()
    assert server.state == "closed"
    with example_db.server() as ctx_server:
        assert ctx_server.run(_owns_query()).count == 5
    assert ctx_server.state == "closed"


# ----------------------------------------------------------------------
# pool supervisor / circuit breaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_circuit_breaker_state_machine():
    clock = _FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_seconds=5.0, clock=clock)
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.allows()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allows()
    clock.now = 5.1
    assert breaker.state == "half-open"
    assert breaker.allows()
    # A failed trial re-opens with a fresh cooldown.
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now = 10.3
    assert breaker.allows()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.trips == 1


def test_supervisor_degrades_to_serial_while_breaker_open(monkeypatch):
    clock = _FakeClock()
    supervisor = PoolSupervisor(
        breaker_threshold=2, breaker_cooldown=5.0, clock=clock
    )

    class ExplodingBackend:
        def __init__(self, num_workers):
            pass

        def start(self):
            raise ExecutionError("injected pool startup failure")

    monkeypatch.setitem(BACKENDS, "thread", ExplodingBackend)
    for _ in range(2):
        with pytest.raises(ExecutionError):
            supervisor.lease("thread", 2)
    # Breaker open: leases degrade to inline instead of touching pools.
    lease = supervisor.lease("thread", 2)
    assert lease.degraded
    assert lease.backend is None  # no pool: the holder runs inline
    lease.release("ok")
    assert supervisor.degraded_leases == 1
    # Cooldown elapses; the trial lease goes back to real pools.
    monkeypatch.setitem(BACKENDS, "thread", ThreadBackend)
    clock.now = 5.1
    trial = supervisor.lease("thread", 2)
    assert not trial.degraded
    trial.release("ok")
    assert supervisor.breaker("thread", 2).state == "closed"
    supervisor.close()


def test_failed_lease_recycles_pool():
    supervisor = PoolSupervisor()
    lease = supervisor.lease("thread", 2)
    backend = lease.backend
    lease.release("failed")
    assert supervisor.pools_recycled == 1
    assert backend._pool is None  # shut down, not returned to the free list
    replacement = supervisor.lease("thread", 2)
    assert replacement.backend is not backend
    replacement.release("ok")
    supervisor.close()


@pytest.mark.usefixtures("force_dispatch")
@pytest.mark.skipif(not fork_available(), reason="needs cheap fork pools")
def test_server_survives_worker_kills_and_trips_breaker(
    example_db, monkeypatch
):
    # Every query's morsel 0 kills its process worker on every attempt:
    # each query still succeeds (dispatcher retries + serial fallback),
    # but the pool is observably wounded, so the supervisor recycles it
    # and the breaker opens after `breaker_threshold` sick queries —
    # after which leases degrade to serial and stop paying recovery tax.
    monkeypatch.setenv(FAULTS_ENV_VAR, "kill@0!")
    query = _owns_query()
    direct = example_db.run(query, materialize=True)
    with example_db.server(
        ServerConfig(
            parallelism=2,
            backend="process",
            breaker_threshold=2,
            breaker_cooldown=60.0,
        )
    ) as server:
        for _ in range(3):
            result = server.run(query, materialize=True)
            assert result.matches == direct.matches
        assert server.supervisor.pools_recycled >= 2
        assert server.supervisor.degraded_leases >= 1
        assert server.supervisor.breaker("process", 2).state == "open"
    assert multiprocessing.active_children() == []
    _assert_invariants(server)


# ----------------------------------------------------------------------
# pool shutdown is idempotent under concurrent callers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["thread", "process"])
def test_pool_shutdown_hammer(name):
    if name == "process" and not fork_available():
        pytest.skip("needs cheap fork pools")
    backend = BACKENDS[name](2).start()
    barrier = threading.Barrier(8)
    errors = []

    def hammer():
        barrier.wait()
        try:
            backend.shutdown()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert errors == []
    assert backend._pool is None
    # Sequential double-shutdown stays a no-op too.
    backend.shutdown()
    backend.shutdown()
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# configuration and reporting
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ExecutionError):
        ServerConfig(max_concurrent=0)
    with pytest.raises(ExecutionError):
        ServerConfig(max_queue_depth=0)
    with pytest.raises(ExecutionError):
        ServerConfig(policy="drop-newest")
    with pytest.raises(ExecutionError):
        ServerConfig(default_timeout=0)
    # Settings that used to pass here and fail later, one query at a time.
    with pytest.raises(ExecutionError, match="'process', 'serial', 'thread'"):
        ServerConfig(backend="threads")
    with pytest.raises(ExecutionError, match="parallelism"):
        ServerConfig(parallelism=0)
    with pytest.raises(ExecutionError, match="breaker_threshold"):
        ServerConfig(breaker_threshold=0)
    with pytest.raises(ExecutionError, match="breaker_cooldown"):
        ServerConfig(breaker_cooldown=-1.0)
    ServerConfig(parallelism=1, backend=" Thread ", breaker_cooldown=0.0)


def test_describe_mentions_server(example_db):
    text = example_db.describe()
    assert "Server (admission-controlled service mode)" in text
    assert "shed-oldest" in text
    with example_db.server() as server:
        server.run(_owns_query())
        live = server.describe()
    assert "admission" in live
    assert "Pool supervisor" in live


# ----------------------------------------------------------------------
# PR 10: collect/exists modes, limit validation, plan-cache counters
# ----------------------------------------------------------------------
class TestSubmitModesAndPlanCache:
    def test_collect_mode_matches_direct(self, example_db):
        q = _owns_query()
        direct = example_db.collect(q)
        with example_db.server() as server:
            ticket = server.submit(_owns_query(), mode="collect")
            assert ticket.result() == direct
            assert server.collect(_owns_query()) == direct

    def test_collect_mode_honours_limit(self, example_db):
        q = _owns_query()
        direct = example_db.collect(q, limit=2)
        with example_db.server() as server:
            assert server.collect(_owns_query(), limit=2) == direct
            assert len(server.collect(_owns_query(), limit=2)) == 2
            assert server.collect(_owns_query(), limit=0) == []

    def test_exists_mode_matches_direct(self, example_db):
        hit = _owns_query()
        miss = QueryGraph("no-such-shape")
        miss.add_vertex("a1", label="Account")
        miss.add_vertex("c1", label="Customer")
        miss.add_edge("a1", "c1", label="Owns", name="r1")  # reversed: none
        with example_db.server() as server:
            assert server.exists(hit) is example_db.exists(_owns_query())
            assert server.submit(miss, mode="exists").result() is False

    def test_unknown_mode_and_misplaced_limit_rejected(self, example_db):
        with example_db.server() as server:
            with pytest.raises(ExecutionError):
                server.submit(_owns_query(), mode="explain")
            with pytest.raises(ExecutionError):
                server.submit(_owns_query(), mode="run", limit=3)
            with pytest.raises(ExecutionError):
                server.submit(_owns_query(), mode="count", limit=3)
            # rejected synchronously: nothing was admitted or counted
            assert server.stats.snapshot()["submitted"] == 0

    def test_negative_limit_rejected_everywhere(self, example_db):
        from repro.query.pipeline import LimitSink, validate_limit

        q = _owns_query()
        with pytest.raises(ExecutionError):
            example_db.collect(q, limit=-1)
        with pytest.raises(ExecutionError):
            validate_limit(-3)
        with pytest.raises(ExecutionError):
            LimitSink(limit=-2)
        with example_db.server() as server:
            with pytest.raises(ExecutionError):
                server.collect(q, limit=-1)

    def test_limit_zero_is_a_legal_empty_result(self, example_db):
        """The old behaviour silently returned [] for *any* limit <= 0;
        limit=0 stays legal (and empty), limit=None stays unlimited."""
        q = _owns_query()
        assert example_db.collect(q, limit=0) == []
        assert example_db.collect(q, limit=None) == example_db.collect(q)

    def test_plan_cache_counters_reconcile(self, example_db):
        prebuilt = example_db.plan(_two_hop_query())
        with example_db.server() as server:
            server.run(_owns_query())          # miss (first sighting)
            server.count(_owns_query())        # hit
            server.collect(_owns_query())      # hit
            server.exists(_owns_query())       # hit
            server.count(_two_hop_query())     # hit (db.plan above cached it)
            server.run(prebuilt)               # QueryPlan: bypasses the cache
            stats = server.stats.snapshot()
        _assert_invariants(server)
        graph_submissions = 5
        assert stats["submitted"] == 6
        assert (
            stats["plan_cache_hits"] + stats["plan_cache_misses"]
            == graph_submissions
        )
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_hits"] == 4

    def test_repeated_submission_plans_once_per_generation(self, example_db):
        """The acceptance bar: N submissions of one pattern = 1 planning."""
        with example_db.server() as server:
            for _ in range(10):
                server.count(_owns_query())
            stats = server.stats.snapshot()
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_hits"] == 9
        assert example_db.plan_cache.stats.misses == 1

    def test_cached_submission_identical_to_direct(self, example_db):
        """Server cache hits return byte-identical results to a direct,
        fresh-planned Database.run."""
        fresh_db = Database(example_db.graph, plan_cache_capacity=0)
        q = _two_hop_query()
        with example_db.server() as server:
            server.run(q)  # warm
            served = server.run(_two_hop_query(), materialize=True)
        direct = fresh_db.run(_two_hop_query(), materialize=True)
        assert served.matches == direct.matches
        assert served.count == direct.count
