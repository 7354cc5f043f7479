"""Round-trip pickling of the runtime's typed errors with their attachments.

The default exception reduction replays only ``args`` — for these classes
that is just the message, so ``stats``/``timeout``/admission context would
silently vanish the first time an error crosses a process pool's exception
transport or the server boundary.  Each class carries a ``__reduce__``
replaying its full constructor; these tests pin that contract both through
``pickle`` directly and through a real ``multiprocessing`` pool.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    WorkerCrashError,
)
from repro.query.backends import PayloadMissing, fork_available
from repro.query.operators import ExecutionStats


def _stats() -> ExecutionStats:
    stats = ExecutionStats()
    stats.lists_accessed = 7
    stats.output_rows = 1234
    stats.retries = 2
    stats.morsels_recovered = 1
    stats.deadline_remaining = 0.0
    return stats


def _assert_stats_equal(left: ExecutionStats, right: ExecutionStats) -> None:
    assert dataclasses.astuple(left) == dataclasses.astuple(right)


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_query_timeout_error_round_trip(protocol):
    error = QueryTimeoutError(
        "query exceeded its 1.5s deadline", stats=_stats(), timeout=1.5
    )
    clone = pickle.loads(pickle.dumps(error, protocol=protocol))
    assert type(clone) is QueryTimeoutError
    assert str(clone) == str(error)
    assert clone.timeout == 1.5
    _assert_stats_equal(clone.stats, error.stats)


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_query_cancelled_error_round_trip(protocol):
    error = QueryCancelledError("query cancelled via token", stats=_stats())
    clone = pickle.loads(pickle.dumps(error, protocol=protocol))
    assert type(clone) is QueryCancelledError
    assert str(clone) == str(error)
    _assert_stats_equal(clone.stats, error.stats)


def test_worker_crash_error_round_trip():
    error = WorkerCrashError("morsel 3 [10, 20) lost: worker died")
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is WorkerCrashError
    assert str(clone) == str(error)


def test_server_overloaded_error_round_trip():
    error = ServerOverloadedError(
        "admission queue full",
        policy="reject",
        queue_depth=8,
        max_queue_depth=8,
    )
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is ServerOverloadedError
    assert str(clone) == str(error)
    assert clone.policy == "reject"
    assert clone.queue_depth == 8
    assert clone.max_queue_depth == 8


def test_server_closed_error_round_trip():
    error = ServerClosedError("server is draining")
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is ServerClosedError
    assert str(clone) == str(error)


def test_payload_missing_round_trip():
    error = PayloadMissing(17, 3)
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is PayloadMissing
    assert clone.plan_id == 17
    assert clone.generation == 3


def test_stats_attachment_survives_error_chaining():
    # Attaching fresh stats after construction (what the dispatcher does
    # when it annotates a propagating error with the merged partials) must
    # also survive a round trip.
    error = QueryTimeoutError("late", stats=None, timeout=0.5)
    error.stats = _stats()
    clone = pickle.loads(pickle.dumps(error))
    _assert_stats_equal(clone.stats, error.stats)


def _raise_timeout_in_worker(_):
    raise QueryTimeoutError("worker-side deadline", stats=_stats(), timeout=2.0)


@pytest.mark.skipif(not fork_available(), reason="needs cheap fork pools")
def test_timeout_error_crosses_a_real_process_boundary():
    pool = multiprocessing.get_context("fork").Pool(processes=1)
    try:
        with pytest.raises(QueryTimeoutError) as excinfo:
            pool.apply(_raise_timeout_in_worker, (None,))
    finally:
        pool.terminate()
        pool.join()
    assert excinfo.value.timeout == 2.0
    _assert_stats_equal(excinfo.value.stats, _stats())
