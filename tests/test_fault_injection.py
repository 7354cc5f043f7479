"""Chaos suite: injected faults, deadlines, and cancellation, end to end.

The acceptance contract of the fault-tolerant runtime:

* **Recovery determinism** — with a fault injected (worker kill, reply
  corruption, delay) on any backend, the query's matches and count are
  byte-identical to the fault-free serial oracle, and the recovery is
  visible only in ``stats.retries`` / ``stats.morsels_recovered``.
* **Deadlines bite** — ``Database.run(timeout=T)`` on a query whose worker
  is stuck raises :class:`~repro.errors.QueryTimeoutError` within ``2*T``,
  and no worker processes are leaked.
* **Cancellation bites** — triggering a
  :class:`~repro.query.runtime.CancellationToken` stops the query with
  :class:`~repro.errors.QueryCancelledError`.
* **Bugs are not retried** — an injected worker *error* (a deterministic
  exception, not a death) propagates immediately, and the pool is still
  torn down.

Process-backend scenarios are skipped where ``fork`` is not the default
start method (per-query spawn pools are too slow for tier-1; the thread
backend exercises the same dispatcher recovery paths everywhere).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import Database
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.query import PlanRunner, QueryGraph
from repro.query.backends import MORSEL_TIMEOUT_ENV_VAR, fork_available
from repro.query.runtime import CancellationToken

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="process-backend chaos needs cheap fork pools",
)

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="full chaos matrix is opt-in; set RUN_FUZZ=1 to run",
)

#: Backends whose dispatcher recovery runs everywhere (no pool start cost).
IN_PROCESS_BACKENDS = ("thread",)


def _graph():
    return generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=120,
            num_edges=480,
            num_vertex_labels=2,
            num_edge_labels=2,
            skew=0.6,
            seed=23,
        )
    )


def _triangle():
    query = QueryGraph("triangle")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


@pytest.fixture(autouse=True)
def morsel_timeout(monkeypatch):
    """A 15 s stuck-worker backstop for the process backend, not 120 s."""
    monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "15")


@pytest.fixture(scope="module")
def chaos_db():
    return Database(_graph())


@pytest.fixture(scope="module")
def oracle(chaos_db):
    """Fault-free serial baseline: the byte-identity reference."""
    plan = chaos_db.plan(_triangle())
    result = PlanRunner(chaos_db.graph, batch_size=chaos_db.batch_size).run(
        plan, materialize=True
    )
    return plan, result


def _chaos_executor(db, backend, fault_plan, **kwargs):
    kwargs.setdefault("num_workers", 2)
    return PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        backend=backend,
        fault_plan=fault_plan,
        **kwargs,
    )


def _assert_identical(result, oracle_result):
    assert result.count == oracle_result.count
    assert result.matches == oracle_result.matches
    # Work counters match the fault-free run: failed attempts' partial
    # stats are discarded, recovery shows only in the dedicated counters.
    assert result.stats.lists_accessed == oracle_result.stats.lists_accessed
    assert result.stats.output_rows == oracle_result.stats.output_rows
    assert (
        result.stats.intermediate_rows == oracle_result.stats.intermediate_rows
    )


def _no_leaked_workers(before):
    """All worker processes spawned since ``before`` are gone (reaped)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        if not leaked:
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# recovery determinism (in-process backends: run everywhere)
# ----------------------------------------------------------------------
class TestInProcessRecovery:
    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    @pytest.mark.parametrize("spec", ["kill@0", "kill@2", "corrupt@1"])
    def test_single_fault_retries_to_identical_result(
        self, chaos_db, oracle, backend, spec
    ):
        plan, oracle_result = oracle
        executor = _chaos_executor(chaos_db, backend, spec)
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries >= 1
        assert result.stats.morsels_recovered >= 1

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_persistent_fault_degrades_to_serial_fallback(
        self, chaos_db, oracle, backend
    ):
        plan, oracle_result = oracle
        executor = _chaos_executor(chaos_db, backend, "kill@1!")
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        # Every attempt failed: initial + max_retries re-submissions, then
        # the in-parent serial re-execution recovered the range.
        assert result.stats.retries == executor.max_retries + 1
        assert result.stats.morsels_recovered == 1

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_zero_retries_goes_straight_to_fallback(
        self, chaos_db, oracle, backend
    ):
        plan, oracle_result = oracle
        executor = _chaos_executor(chaos_db, backend, "kill@0", max_retries=0)
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries == 1
        assert result.stats.morsels_recovered == 1

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_worker_error_propagates_unretried(self, chaos_db, oracle, backend):
        plan, _ = oracle
        executor = _chaos_executor(chaos_db, backend, "error@0")
        with pytest.raises(RuntimeError, match="injected worker error"):
            executor.run(plan)

    def test_fault_free_run_reports_no_recovery(self, chaos_db, oracle):
        plan, oracle_result = oracle
        executor = _chaos_executor(chaos_db, "thread", None)
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries == 0
        assert result.stats.morsels_recovered == 0

    def test_faults_env_var_arms_injection(self, chaos_db, oracle, monkeypatch):
        plan, oracle_result = oracle
        monkeypatch.setenv("REPRO_FAULTS", "kill@0")
        executor = _chaos_executor(chaos_db, "thread", None)
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries >= 1


# ----------------------------------------------------------------------
# recovery determinism (process backend: real worker deaths)
# ----------------------------------------------------------------------
@needs_fork
class TestProcessRecovery:
    @pytest.mark.parametrize("spec", ["kill@1", "corrupt@0"])
    def test_real_fault_recovers_identically(self, chaos_db, oracle, spec):
        plan, oracle_result = oracle
        before = set(multiprocessing.active_children())
        executor = _chaos_executor(chaos_db, "process", spec)
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries >= 1
        assert result.stats.morsels_recovered >= 1
        assert _no_leaked_workers(before)

    def test_repeated_kill_falls_back_to_serial(self, chaos_db, oracle):
        plan, oracle_result = oracle
        before = set(multiprocessing.active_children())
        executor = _chaos_executor(chaos_db, "process", "kill@0!")
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.morsels_recovered >= 1
        assert _no_leaked_workers(before)

    def test_worker_error_propagates_and_pool_is_reaped(self, chaos_db, oracle):
        plan, _ = oracle
        before = set(multiprocessing.active_children())
        executor = _chaos_executor(chaos_db, "process", "error@0")
        with pytest.raises(RuntimeError, match="injected worker error"):
            executor.run(plan)
        assert _no_leaked_workers(before)

    def test_hung_worker_hits_morsel_timeout_backstop(
        self, chaos_db, oracle, monkeypatch
    ):
        plan, oracle_result = oracle
        before = set(multiprocessing.active_children())
        # The delay (1s) exceeds the tiny per-morsel backstop (0.2s), so the
        # reply is declared lost, the retry (attempt 1: fault fires on
        # attempt 0 only) succeeds, and the run still matches the oracle.
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "0.2")
        executor = _chaos_executor(chaos_db, "process", "delay@0:1.0")
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
        assert result.stats.retries >= 1
        assert _no_leaked_workers(before)


# ----------------------------------------------------------------------
# deadlines and cancellation through the public API
# ----------------------------------------------------------------------
class TestDeadlinesAndCancellation:
    def test_serial_timeout_fires_cooperatively(self, chaos_db):
        # parallelism=1: no dispatcher at all, only per-batch checks.
        with pytest.raises(QueryTimeoutError) as excinfo:
            chaos_db.run(_triangle(), timeout=1e-9)
        assert excinfo.value.stats is not None

    def test_timeout_within_two_x_on_thread_backend(self, chaos_db):
        db = Database(chaos_db.graph)
        executor = _chaos_executor(db, "thread", "delay@0:4.0!")
        plan = db.plan(_triangle())
        timeout = 1.0
        before = set(threading.enumerate())
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError) as excinfo:
            executor.run(plan, timeout=timeout)
        # The raise itself must land within 2x the deadline even though a
        # worker thread sleeps well past it (polled waits + abort request).
        assert time.monotonic() - started < 2 * timeout
        assert excinfo.value.timeout == timeout
        assert excinfo.value.stats is not None
        # The query's own pool was shut down without joining that worker.
        assert set(threading.enumerate()) - before

    def test_per_query_thread_pool_leaves_no_thread_behind(self, chaos_db, oracle):
        plan, oracle_result = oracle
        before = set(threading.enumerate())
        executor = PlanRunner(chaos_db.graph, num_workers=2, backend="thread")
        assert executor.count(plan) == oracle_result.count
        assert set(threading.enumerate()) <= before

    @needs_fork
    def test_timeout_within_two_x_on_process_backend(self, chaos_db):
        before = set(multiprocessing.active_children())
        db = Database(chaos_db.graph)
        executor = _chaos_executor(db, "process", "delay@0:30.0!")
        plan = db.plan(_triangle())
        timeout = 1.5
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            executor.run(plan, timeout=timeout)
        assert time.monotonic() - started < 2 * timeout
        # terminate() reaps even the sleeping worker: nothing leaks.
        assert _no_leaked_workers(before)

    def test_database_run_timeout_passthrough(self, chaos_db):
        result = chaos_db.run(_triangle(), timeout=120.0)
        assert result.stats.deadline_remaining is not None
        assert 0.0 < result.stats.deadline_remaining <= 120.0

    def test_database_count_timeout_passthrough(self, chaos_db):
        oracle_count = chaos_db.count(_triangle())
        assert chaos_db.count(_triangle(), timeout=120.0) == oracle_count

    def test_pre_cancelled_token_stops_immediately(self, chaos_db):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            chaos_db.run(_triangle(), parallelism=2, cancel=token)

    def test_mid_flight_cancellation_from_another_thread(self, chaos_db):
        db = Database(chaos_db.graph)
        # Stall morsel 0 long enough for the canceller thread to fire.
        executor = _chaos_executor(db, "thread", "delay@0:8.0!")
        plan = db.plan(_triangle())
        token = CancellationToken()
        canceller = threading.Timer(0.3, token.cancel)
        canceller.start()
        started = time.monotonic()
        try:
            with pytest.raises(QueryCancelledError) as excinfo:
                executor.run(plan, cancel=token)
        finally:
            canceller.cancel()
        assert time.monotonic() - started < 4.0
        assert excinfo.value.stats is not None

    def test_cancel_token_is_reusable_for_observation(self, chaos_db):
        token = CancellationToken()
        result = chaos_db.run(_triangle(), parallelism=2, cancel=token)
        assert result.count == chaos_db.count(_triangle())
        assert not token.cancelled


# ----------------------------------------------------------------------
# full chaos matrix (nightly)
# ----------------------------------------------------------------------
@fuzz
@pytest.mark.fuzz
class TestChaosMatrix:
    BACKENDS = ("thread", "process")
    SPECS = (
        "kill@0",
        "kill@3",
        "kill@0!",
        "corrupt@0",
        "corrupt@2!",
        "delay@1:0.05",
        "kill@0,corrupt@2",
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("workers", (2, 4))
    def test_matrix_byte_identity(self, chaos_db, oracle, backend, spec, workers):
        if backend == "process" and not fork_available():
            pytest.skip("process-backend chaos needs cheap fork pools")
        plan, oracle_result = oracle
        executor = _chaos_executor(
            chaos_db, backend, spec, num_workers=workers
        )
        result = executor.run(plan, materialize=True)
        _assert_identical(result, oracle_result)
