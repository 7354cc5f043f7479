"""The server's pool layer: a supervisor leasing pools, and a breaker.

A :class:`~repro.server.server.DatabaseServer` runs thousands of queries,
most of them against a handful of hot plans, so it keeps its worker pools
alive across queries instead of paying a pool per query.  The pools are the
ordinary backends of :mod:`repro.query.backends` — one class per registry
name — used in their *pool* lifetime: the supervisor constructs and starts
them, each leased query only opens and closes one, and the supervisor shuts
it down (whoever constructs a backend shuts it down).  A process pool's
workers therefore keep their payload caches warm from query to query.

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

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError
from ..query.backends import resolve_backend


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
    """Owns every server pool; queries lease and release them.

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
        backend_class = resolve_backend(backend_name)
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
                backend = backend_class(parallelism).start()
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
