"""Persistent worker pools, their supervisor, and the degradation breaker.

The per-query backends in :mod:`repro.query.backends` pay their whole pool
lifecycle on every ``execute`` — the process backend forks (or spawns) a
fresh pool, ships the payload, runs the query, and terminates.  That is the
right shape for a library call, and exactly the wrong shape for a server: a
long-lived :class:`~repro.server.server.DatabaseServer` runs thousands of
queries, most of them against a handful of hot plans, and per-query spawn
cost would dominate every morsel of useful work.

This module provides the server's pool layer:

* :class:`PersistentProcessBackend` / :class:`PersistentThreadBackend` —
  drop-in :class:`~repro.query.backends.MorselBackend` implementations
  whose pools
  *survive across queries*.  The dispatcher's per-query ``open``/``close``
  calls only swap per-query state; the actual workers live until
  :meth:`shutdown`.  The process variant replaces the pool-initializer
  payload shipping with a *lazy payload cache* keyed on
  ``(plan id, store generation)``: workers keep the payloads of recent
  plans rehydrated, a task for an uncached plan raises the picklable
  :class:`PayloadMissing` signal, and the parent re-submits that one task
  with the payload bytes attached.  A worker respawned after a crash
  starts with an empty cache and heals through exactly the same path.
* :class:`PoolSupervisor` — owns every pool, keyed on
  ``(backend, parallelism)``.  Queries *lease* a pool and release it with
  an outcome; healthy pools return to the free list, failed or aborted
  pools are shut down and replaced on the next lease (crash recovery at
  the pool granularity, reusing the backends' death watch at the morsel
  granularity).
* :class:`CircuitBreaker` — per pool key.  Repeated pool failures open the
  breaker and subsequent leases *degrade*: they carry no pool, and the
  server runs the query inline on its slot thread (correct, just without
  parallelism — the determinism contract makes the fallback
  byte-identical); after a cooldown one trial lease probes whether pools
  recovered.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError, ReproError, WorkerCrashError
from ..query.backends import (
    _PLAN_IDS,
    MorselTaskSpec,
    ProcessBackend,
    ThreadBackend,
    WORKER_STARTUP_TIMEOUT_SECONDS,
    WorkerPayload,
    _execute_payload_task,
    resolve_morsel_timeout,
)
from ..query.faults import FaultPlan
from ..query.plan import QueryPlan
from ..query.runtime import QueryContext


class PayloadMissing(ReproError):
    """Worker-side signal: this task's payload is not in the worker's cache.

    Part of the persistent process backend's wire protocol, not an error a
    caller should ever see: the parent catches it in ``result()`` and
    re-submits the same task with the payload bytes attached.  Raised by a
    fresh worker (first task of a plan, or a respawn after a crash) and by
    a worker whose LRU cache evicted the plan.  ``__reduce__`` replays the
    constructor so the identifying attributes survive the pool's exception
    transport.
    """

    def __init__(self, plan_id: int, generation: Optional[int]) -> None:
        super().__init__(
            f"worker has no cached payload for plan {plan_id} "
            f"(generation {generation})"
        )
        self.plan_id = plan_id
        self.generation = generation

    def __reduce__(self):
        return (type(self), (self.plan_id, self.generation))


#: Worker-side LRU of rehydrated payloads, keyed by wire plan id.  Bounded:
#: a payload pins a whole plan + graph generation, and a long-lived server
#: cycles through many; keeping the hottest few is the point of persistence,
#: keeping all of them would be a slow memory leak.
_PAYLOAD_CACHE: "OrderedDict[int, WorkerPayload]" = OrderedDict()
_PAYLOAD_CACHE_CAPACITY = 8

#: Parent-side bound on distinct payloads kept pickled for re-shipping.
_PARENT_PAYLOAD_CAPACITY = 16


def _persistent_worker_ready() -> bool:
    """Startup health probe for persistent pools (no payload needed)."""
    return True


def _persistent_worker_run(
    spec: MorselTaskSpec, payload_bytes: Optional[bytes] = None
):
    """Worker body of the persistent process pool.

    Unlike :func:`~repro.query.backends._process_worker_run` (whose payload
    arrives once via the pool initializer), the payload is looked up in the
    per-process LRU cache; ``payload_bytes`` rides along only on the
    parent's re-submission after a :class:`PayloadMissing` round trip.
    """
    global _PAYLOAD_CACHE
    payload = _PAYLOAD_CACHE.get(spec.plan_id)
    if payload is None:
        if payload_bytes is None:
            raise PayloadMissing(spec.plan_id, spec.generation)
        payload = pickle.loads(payload_bytes)
        _PAYLOAD_CACHE[spec.plan_id] = payload
        while len(_PAYLOAD_CACHE) > _PAYLOAD_CACHE_CAPACITY:
            _PAYLOAD_CACHE.popitem(last=False)
    else:
        _PAYLOAD_CACHE.move_to_end(spec.plan_id)
    return _execute_payload_task(payload, spec)


class PersistentProcessBackend(ProcessBackend):
    """A process pool that survives across queries, with lazy payload cache.

    ``start()`` spawns the workers once; per-query ``open``/``close`` only
    swap plan state.  Payload shipping is demand-driven: ``open`` registers
    the query's payload under a parent-side key (plan identity, generation,
    batch size, factorization, fault plan) and reuses the wire plan id for
    repeated configurations, so after the first query of a plan its morsels
    cost one tiny :class:`~repro.query.backends.MorselTaskSpec` each — the
    per-query spawn *and* payload cost both drop to zero on the hot path.

    Crash recovery composes with persistence: ``multiprocessing.Pool``
    respawns dead workers without any initializer, the respawn's empty
    cache surfaces as :class:`PayloadMissing` on its first task, and the
    parent re-ships the payload — the same mechanism that warms a new pool
    heals a wounded one.
    """

    name = "process-persistent"

    def __init__(self, num_workers: int) -> None:
        super().__init__()
        if num_workers < 1:
            raise ExecutionError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self._num_workers = int(num_workers)
        # key -> (wire plan id, payload bytes, payload object).  The payload
        # object reference keeps the plan alive so the id()-based key cannot
        # be reused by a different plan while the entry exists.
        self._payloads: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.queries_served = 0
        self.payload_ships = 0
        self.payload_reuses = 0

    def start(self) -> "PersistentProcessBackend":
        """Spawn the worker pool and prove one worker answers."""
        method = self._start_method()
        context = multiprocessing.get_context(method)
        self._pool = context.Pool(processes=self._num_workers)
        probe = self._pool.apply_async(_persistent_worker_ready)
        try:
            probe.get(timeout=WORKER_STARTUP_TIMEOUT_SECONDS)
        except multiprocessing.TimeoutError:
            self.shutdown()
            raise ExecutionError(
                f"persistent process pool workers failed to start within "
                f"{WORKER_STARTUP_TIMEOUT_SECONDS:.0f}s (start method "
                f"{method!r}); under forkserver/spawn the parent's "
                "__main__ must be importable"
            ) from None
        except BaseException:
            self.shutdown()
            raise
        self._seen_pids = self._worker_pids()
        self._death_ever = False
        return self

    def open(
        self,
        executor,
        plan: QueryPlan,
        factorized: bool = False,
        runtime: Optional[QueryContext] = None,
        faults: Optional[FaultPlan] = None,
        count_only: bool = False,
    ) -> None:
        if self._pool is None:
            raise ExecutionError(
                "persistent process backend is not started (or already "
                "shut down); call start() before leasing it to queries"
            )
        batch_size = executor.batch_size * executor.coalesce
        generation = plan.pinned_generation
        key = (id(plan), generation, factorized, count_only, batch_size, faults)
        entry = self._payloads.get(key)
        if entry is None:
            plan_id = next(_PLAN_IDS)
            payload = WorkerPayload(
                plan_id=plan_id,
                generation=generation,
                plan=plan,
                graph=executor.graph,
                batch_size=batch_size,
                factorized=factorized,
                faults=faults,
                count_only=count_only,
            )
            entry = (
                plan_id,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                payload,
            )
            self._payloads[key] = entry
            while len(self._payloads) > _PARENT_PAYLOAD_CAPACITY:
                self._payloads.popitem(last=False)
        else:
            self._payloads.move_to_end(key)
            self.payload_reuses += 1
        self._plan_id = entry[0]
        self._payload_bytes = entry[1]
        self._generation = generation
        self._factorized = factorized
        self._runtime = runtime
        self._morsel_timeout = resolve_morsel_timeout(
            getattr(executor, "morsel_timeout", None)
        )
        # Fresh death watch per query: a death absorbed (and healed) during
        # an earlier query must not charge this one a grace beat per morsel.
        self._seen_pids = self._worker_pids()
        self._death_ever = False
        self.queries_served += 1

    def submit(self, start: int, stop: int, index: int = 0, attempt: int = 0):
        spec = MorselTaskSpec(
            plan_id=self._plan_id,
            generation=self._generation,
            start=start,
            stop=stop,
            index=index,
            attempt=attempt,
        )
        return (self._pool.apply_async(_persistent_worker_run, (spec,)), spec)

    def result(self, handle):
        async_result, spec = handle
        index, start, stop = spec.index, spec.start, spec.stop
        reships = 0
        while True:
            try:
                reply = self._await_reply(async_result, index, start, stop)
                break
            except PayloadMissing:
                # A cold worker held the task (fresh pool, post-crash
                # respawn, or LRU eviction): re-submit with the payload
                # attached.  Bounded — every worker caches the payload on
                # its first shipped task, so more round trips than workers
                # means the pool is systematically losing its cache.
                reships += 1
                if reships > 2 * self._num_workers:
                    raise WorkerCrashError(
                        f"morsel {index} [{start}, {stop}) could not be "
                        f"placed after {reships} payload re-ships; the "
                        "pool's workers are not retaining payloads"
                    ) from None
                self.payload_ships += 1
                async_result = self._pool.apply_async(
                    _persistent_worker_run, (spec, self._payload_bytes)
                )
        return self._decode_reply(reply, index, start, stop)

    def close(self) -> None:
        """Per-query teardown: release query state, keep the pool alive.

        The dispatcher calls this at the end of every ``execute`` (also on
        abandonment).  Abandoned in-flight morsels are left to finish in
        the background — the supervisor discards the whole pool when a
        query failed or was aborted, so stuck workers cannot haunt the
        next lease.
        """
        self._runtime = None

    def shutdown(self) -> None:
        """Actually terminate and reap the pool (idempotent, thread-safe)."""
        ProcessBackend.close(self)


class PersistentThreadBackend(ThreadBackend):
    """A thread pool that survives across queries.

    Thread pools are cheap next to process pools, but a server still
    benefits: no per-query thread churn, and the pool layer treats every
    backend uniformly (leases, health, breaker) so degradation policy does
    not special-case the backend in use.
    """

    name = "thread-persistent"

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ExecutionError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self._num_workers = int(num_workers)
        self._pool = None
        self._shutdown_lock = threading.Lock()
        self.queries_served = 0

    def start(self) -> "PersistentThreadBackend":
        self._pool = ThreadPoolExecutor(
            max_workers=self._num_workers,
            thread_name_prefix="repro-server-pool",
        )
        return self

    def open(
        self,
        executor,
        plan: QueryPlan,
        factorized: bool = False,
        runtime: Optional[QueryContext] = None,
        faults: Optional[FaultPlan] = None,
        count_only: bool = False,
    ) -> None:
        if self._pool is None:
            raise ExecutionError(
                "persistent thread backend is not started (or already "
                "shut down); call start() before leasing it to queries"
            )
        self._plan = plan
        self._graph = executor.graph
        self._batch_size = executor.batch_size * executor.coalesce
        self._factorized = factorized
        self._count_only = count_only
        self._runtime = runtime
        self._faults = faults
        self._clock = getattr(executor, "clock", None)
        self.queries_served += 1

    def close(self) -> None:
        """Per-query teardown: drop query state, keep the pool alive."""
        self._plan = None
        self._graph = None
        self._runtime = None
        self._faults = None

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent, thread-safe)."""
        with self._shutdown_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


#: Persistent pool class per public backend name.  ``"serial"`` has none:
#: one thread needs no pool, so the server runs such a query inline on its
#: slot thread (as it does every plan under the cost gate).
PERSISTENT_BACKENDS = {
    "thread": PersistentThreadBackend,
    "process": PersistentProcessBackend,
}


class CircuitBreaker:
    """Consecutive-failure breaker guarding one pool key.

    States: *closed* (healthy — leases create/reuse real pools), *open*
    (``threshold`` consecutive pool failures — leases degrade to inline
    until ``cooldown_seconds`` pass), *half-open* (cooldown elapsed — the
    next lease is a real-pool trial; its failure re-opens the breaker with
    a fresh cooldown, its success closes it).

    Thread-safe; time is injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ExecutionError(f"threshold must be >= 1, got {threshold}")
        if cooldown_seconds < 0:
            raise ExecutionError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.trips = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._opened_at is not None:
                # A failed half-open trial: re-open with a fresh cooldown.
                self._opened_at = self._clock()
            elif self._failures >= self.threshold:
                self._opened_at = self._clock()
                self.trips += 1

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def allows(self) -> bool:
        """May the next lease use a real pool?

        True while closed, and again once the cooldown elapses (the
        half-open trial).  Concurrent leases during half-open all trial —
        acceptable: the cost of a wrong guess is one more failed pool, and
        serializing trials would stall a recovered server.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            return self._clock() - self._opened_at >= self.cooldown_seconds

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_seconds:
                return "half-open"
            return "open"


class PoolLease:
    """One query's hold on a supervised pool.

    A ``degraded`` lease (breaker open) holds nothing — ``backend`` is
    ``None`` and the holder runs its query inline; releasing it is a no-op.
    Otherwise release exactly once, with the query's outcome:

    * ``"ok"`` — the pool behaved; it returns to the free list and the
      breaker records a success.
    * ``"failed"`` — the pool (not the query) misbehaved: a worker-crash
      error escaped recovery, or pool machinery raised.  The pool is shut
      down and the breaker records a failure.
    * ``"aborted"`` — the *query* was cut short (deadline, cancellation)
      and may have left stuck or busy workers behind.  The pool is shut
      down so the next lease starts clean, but the breaker records nothing
      — a slow query is not a sick pool.
    """

    def __init__(self, backend, key, supervisor, degraded: bool = False) -> None:
        self.backend = backend
        self.key = key
        self.degraded = degraded
        self._supervisor = supervisor
        self._released = False

    def release(self, outcome: str = "ok") -> None:
        if self._released:  # pragma: no cover - defensive
            return
        self._released = True
        self._supervisor._release(self, outcome)


class PoolSupervisor:
    """Owns every persistent pool; queries lease and release them.

    Pools are keyed on ``(backend name, parallelism)``.  A lease pops a
    free pool for its key or starts a fresh one; a release routes on
    outcome (see :class:`PoolLease`).  When the key's circuit breaker is
    open, :meth:`lease` returns a *degraded* lease with no pool behind it
    instead of touching pools at all — the server keeps answering queries
    inline, just without parallelism, until the cooldown's trial lease
    proves pools healthy again.
    """

    def __init__(
        self,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._free: Dict[Tuple[str, int], List[object]] = {}
        self._breakers: Dict[Tuple[str, int], CircuitBreaker] = {}
        self._closed = False
        self.pools_created = 0
        self.pools_reused = 0
        self.pools_recycled = 0
        self.degraded_leases = 0

    def breaker(self, backend_name: str, parallelism: int) -> CircuitBreaker:
        key = (backend_name, int(parallelism))
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self._breaker_threshold,
                    cooldown_seconds=self._breaker_cooldown,
                    clock=self._clock,
                )
                self._breakers[key] = breaker
            return breaker

    def lease(self, backend_name: str, parallelism: int) -> PoolLease:
        if backend_name not in PERSISTENT_BACKENDS:
            raise ExecutionError(
                f"unknown server backend {backend_name!r}; available: "
                f"{sorted(PERSISTENT_BACKENDS)}"
            )
        key = (backend_name, int(parallelism))
        with self._lock:
            if self._closed:
                raise ExecutionError(
                    "pool supervisor is closed; no further leases"
                )
        breaker = self.breaker(*key)
        if not breaker.allows():
            with self._lock:
                self.degraded_leases += 1
            return PoolLease(None, key, self, degraded=True)
        with self._lock:
            free = self._free.get(key)
            backend = free.pop() if free else None
            if backend is not None:
                self.pools_reused += 1
        if backend is None:
            # Pool startup happens outside the lock: spawning processes
            # can take a while and must not serialize unrelated leases.
            try:
                backend = PERSISTENT_BACKENDS[backend_name](parallelism).start()
            except Exception:
                breaker.record_failure()
                raise
            with self._lock:
                self.pools_created += 1
        return PoolLease(backend, key, self)

    def _release(self, lease: PoolLease, outcome: str) -> None:
        if outcome not in ("ok", "failed", "aborted"):
            raise ExecutionError(
                f"unknown lease outcome {outcome!r}; expected "
                "'ok', 'failed', or 'aborted'"
            )
        if lease.degraded:
            # A degraded lease ran inline work; its outcome says nothing
            # about pool health, and there is nothing to recycle.
            return
        breaker = self.breaker(*lease.key)
        if outcome == "ok":
            breaker.record_success()
            with self._lock:
                if not self._closed:
                    self._free.setdefault(lease.key, []).append(lease.backend)
                    return
            lease.backend.shutdown()
            return
        if outcome == "failed":
            breaker.record_failure()
        lease.backend.shutdown()
        with self._lock:
            self.pools_recycled += 1

    def close(self) -> None:
        """Shut down every free pool; in-flight leases drain on release."""
        with self._lock:
            self._closed = True
            pools = [
                backend
                for backends in self._free.values()
                for backend in backends
            ]
            self._free.clear()
        for backend in pools:
            backend.shutdown()

    def describe(self) -> str:
        with self._lock:
            keys = sorted(self._free)
            free = {key: len(self._free[key]) for key in keys}
            created = self.pools_created
            reused = self.pools_reused
            recycled = self.pools_recycled
            degraded = self.degraded_leases
        breaker_states = {
            key: self._breakers[key].state for key in sorted(self._breakers)
        }
        lines = [
            "Pool supervisor:",
            f"  pools created: {created}, leases reused: {reused}, "
            f"recycled: {recycled}, degraded leases: {degraded}",
        ]
        for key in sorted(set(free) | set(breaker_states)):
            backend_name, parallelism = key
            lines.append(
                f"  ({backend_name}, {parallelism}): "
                f"{free.get(key, 0)} free, "
                f"breaker {breaker_states.get(key, 'closed')}"
            )
        return "\n".join(lines)
