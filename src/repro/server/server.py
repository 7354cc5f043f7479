"""The admission-controlled query server wrapping one :class:`Database`.

``Database.run`` is a library call: it builds an executor (and, for the
process backend, a whole worker pool) per invocation and imposes no limit
on how many callers do so at once.  :class:`DatabaseServer` is the
long-lived service shape of the same engine:

* **Bounded concurrency** — ``max_concurrent`` dedicated worker threads
  are the execution slots; everything else waits in a bounded admission
  queue or is refused per the configured policy
  (:mod:`repro.server.admission`).
* **Inline by default, pools when they pay** — ``parallelism`` is a
  ceiling: a plan under the cost gate
  (:data:`~repro.query.executor.PARALLEL_MIN_ICOST`) runs inline on its
  slot thread, with no lease and no morsels (``stats.inline``).  Only a
  plan at or above it leases a worker pool (``stats.pooled``) from a
  :class:`~repro.server.pools.PoolSupervisor` keyed on
  ``(backend, parallelism)``; pools survive across queries, payloads are
  re-shipped lazily per ``(plan id, store generation)``, crashed pools
  are recycled, and repeated failures trip a circuit breaker that
  degrades leases to the same inline execution
  (:mod:`repro.server.pools`).
* **Deadline integration** — a query's PR 7 deadline is fixed at
  *submission*: queue wait spends the same budget as execution, a queued
  query whose deadline expires is shed without occupying a slot, and a
  caller blocked on its ticket self-sheds at the deadline.
* **Graceful shutdown** — :meth:`DatabaseServer.drain` admits nothing
  new, cancels queued tickets via their
  :class:`~repro.query.runtime.CancellationToken`, finishes running
  queries, and closes every pool leak-free.

Determinism contract: an *admitted* query returns byte-identical results
to a direct ``Database.run()`` of the same plan — the server changes who
waits and who is refused, never what an answered query answers.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional, Union

from ..errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    WorkerCrashError,
)
from ..query.backends import SerialBackend
from ..query.executor import QueryResult, effective_workers
from ..query.pattern import QueryGraph
from ..query.pipeline import validate_limit
from ..query.plan import QueryPlan
from ..query.runtime import CancellationToken, QueryContext
from .admission import (
    QUEUED,
    RUNNING,
    COMPLETED,
    FAILED,
    REJECTED,
    SHED,
    ServerConfig,
    ServerStats,
    ServerTicket,
)
from .pools import PoolSupervisor

#: Server lifecycle states.
_STATE_RUNNING = "running"
_STATE_DRAINING = "draining"
_STATE_CLOSED = "closed"


class DatabaseServer:
    """A long-lived, admission-controlled façade over one ``Database``.

    Usage::

        server = DatabaseServer(db, ServerConfig(max_concurrent=2))
        try:
            ticket = server.submit(query, timeout=5.0)
            result = ticket.result()        # or: server.run(query)
        finally:
            server.drain()

    Also a context manager (``with db.server() as server: ...``) — exit
    drains.  Thread-safe: any number of client threads may submit
    concurrently; the worker budget never exceeds
    ``max_concurrent × parallelism``.
    """

    def __init__(self, db, config: Optional[ServerConfig] = None) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.supervisor = PoolSupervisor(
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown,
        )
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._work_available = threading.Condition(self._lock)
        self._queue: "deque[ServerTicket]" = deque()
        self._running_tickets = set()
        self._state = _STATE_RUNNING
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-server-slot-{slot}",
                daemon=True,
            )
            for slot in range(self.config.max_concurrent)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Union[QueryGraph, QueryPlan],
        mode: str = "run",
        materialize: bool = False,
        factorized: Optional[bool] = None,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> ServerTicket:
        """Admit one query; returns its :class:`ServerTicket`.

        ``mode`` selects the sink the slot drains through — ``"run"``,
        ``"count"``, ``"collect"`` (honouring ``limit=``; the streaming
        ``LimitSink`` short-circuits server-side too), or ``"exists"``.
        All four share the same pinned-plan path, so a cached plan serves
        every mode.

        Planning happens here, synchronously, against an atomic store
        snapshot — the ticket carries a pinned plan, so whatever the queue
        does afterwards cannot change *what* the query reads.  A
        ``QueryGraph`` submission consults the database's
        :class:`~repro.query.plan_cache.PlanCache` (the outcome lands in
        ``stats.plan_cache_hits``/``plan_cache_misses``); a pre-built
        ``QueryPlan`` replays against its own pinned generation and skips
        the cache.  The query's deadline (from ``timeout`` or the config's
        ``default_timeout``) also starts here: waiting in the queue spends
        the same budget execution would.

        Raises :class:`~repro.errors.ServerClosedError` once draining,
        :class:`~repro.errors.ServerOverloadedError` under the ``reject``
        policy when the queue is full, and
        :class:`~repro.errors.QueryTimeoutError` when a ``block``-policy
        wait outlives the query's own deadline.
        """
        if mode not in ("run", "count", "collect", "exists"):
            raise ExecutionError(
                f"unknown submit mode {mode!r}; expected 'run', 'count', "
                "'collect', or 'exists'"
            )
        if limit is not None and mode != "collect":
            raise ExecutionError(
                f"limit= only applies to mode='collect', not mode={mode!r}"
            )
        validate_limit(limit)
        effective_timeout = (
            timeout if timeout is not None else self.config.default_timeout
        )
        runtime = QueryContext(timeout=effective_timeout, cancel=cancel)
        plan, snapshot, cache_hit = self.db._pinned_plan(query)
        backend_name = self.db._resolve_backend(
            backend if backend is not None else self.config.backend
        )
        # ``parallelism`` is a ceiling: a plan under the cost gate — and any
        # plan on the "serial" backend, which is one thread by definition —
        # gets one worker, and one worker needs no pool: the slot thread
        # runs it inline.
        workers = effective_workers(
            plan,
            self.db._resolve_parallelism(
                parallelism if parallelism is not None else self.config.parallelism
            ),
        )
        if backend_name == SerialBackend.name:
            workers = 1
        kwargs = {
            "materialize": materialize,
            "factorized": factorized,
            "limit": limit,
        }
        ticket = ServerTicket(
            server=self,
            plan=plan,
            snapshot=snapshot,
            mode=mode,
            kwargs=kwargs,
            runtime=runtime,
            parallelism=workers,
            backend=backend_name,
        )
        with self._lock:
            if self._state != _STATE_RUNNING:
                raise ServerClosedError(
                    "server is draining/closed and admits no new queries"
                )
            self.stats.submitted += 1
            if isinstance(query, QueryGraph):
                if cache_hit:
                    self.stats.plan_cache_hits += 1
                else:
                    self.stats.plan_cache_misses += 1
            while len(self._queue) >= self.config.max_queue_depth:
                if self.config.policy == "reject":
                    self.stats.rejected += 1
                    depth = len(self._queue)
                    error = ServerOverloadedError(
                        f"admission queue full ({depth} waiting, policy "
                        "'reject'); retry later or raise max_queue_depth",
                        policy="reject",
                        queue_depth=depth,
                        max_queue_depth=self.config.max_queue_depth,
                    )
                    ticket._finish(REJECTED, error=error)
                    raise error
                if self.config.policy == "shed-oldest":
                    victim = self._queue.popleft()
                    self._not_full.notify()
                    self.stats.shed += 1
                    victim.token.cancel()
                    victim._finish(
                        SHED,
                        error=ServerOverloadedError(
                            "shed from the admission queue: a newer query "
                            "arrived while the queue was full (policy "
                            "'shed-oldest')",
                            policy="shed-oldest",
                            queue_depth=self.config.max_queue_depth,
                            max_queue_depth=self.config.max_queue_depth,
                        ),
                    )
                    continue
                # policy == "block": wait for room, bounded by the query's
                # own deadline — blocking past it would admit a corpse.
                remaining = runtime.remaining()
                if remaining is not None and remaining <= 0:
                    self.stats.rejected += 1
                    error = QueryTimeoutError(
                        "query's deadline expired while blocked at "
                        "admission (policy 'block')",
                        timeout=runtime.timeout,
                    )
                    ticket._finish(REJECTED, error=error)
                    raise error
                self._not_full.wait(timeout=remaining)
                if self._state != _STATE_RUNNING:
                    self.stats.rejected += 1
                    error = ServerClosedError(
                        "server began draining while this query was "
                        "blocked at admission"
                    )
                    ticket._finish(REJECTED, error=error)
                    raise error
            self._queue.append(ticket)
            self._work_available.notify()
        return ticket

    def run(self, query, **kwargs) -> QueryResult:
        """Submit and wait: the server-side analogue of ``Database.run``."""
        return self.submit(query, mode="run", **kwargs).result()

    def count(self, query, **kwargs) -> int:
        """Submit and wait: the server-side analogue of ``Database.count``."""
        return self.submit(query, mode="count", **kwargs).result()

    def collect(self, query, limit=None, **kwargs):
        """Submit and wait: the server-side analogue of ``Database.collect``."""
        return self.submit(query, mode="collect", limit=limit, **kwargs).result()

    def exists(self, query, **kwargs) -> bool:
        """Submit and wait: the server-side analogue of ``Database.exists``."""
        return self.submit(query, mode="exists", **kwargs).result()

    # ------------------------------------------------------------------
    # ticket call-backs (shed paths initiated by the ticket holder)
    # ------------------------------------------------------------------
    def _remove_queued(self, ticket: ServerTicket) -> bool:
        """Atomically pull a still-queued ticket; False if it already left."""
        with self._lock:
            try:
                self._queue.remove(ticket)
            except ValueError:
                return False
            self.stats.shed += 1
            self._not_full.notify()
            return True

    def _shed_expired_ticket(self, ticket: ServerTicket) -> bool:
        """Shed a queued ticket whose deadline expired (caller-initiated)."""
        if not self._remove_queued(ticket):
            return False
        ticket.token.cancel()
        budget = (
            f"its {ticket.runtime.timeout:g}s deadline"
            if ticket.runtime.timeout is not None
            else "its deadline"
        )
        ticket._finish(
            SHED,
            error=QueryTimeoutError(
                f"query exceeded {budget} while waiting in the admission "
                "queue (shed without occupying an execution slot)",
                timeout=ticket.runtime.timeout,
            ),
        )
        return True

    def _cancel_queued_ticket(self, ticket: ServerTicket) -> bool:
        """Shed a queued ticket whose holder cancelled it."""
        if not self._remove_queued(ticket):
            return False
        ticket._finish(
            SHED,
            error=QueryCancelledError(
                "query cancelled via its ticket while waiting in the "
                "admission queue"
            ),
        )
        return True

    # ------------------------------------------------------------------
    # execution slots
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and self._state == _STATE_RUNNING:
                    self._work_available.wait()
                if not self._queue:
                    return  # draining and nothing left to do
                ticket = self._queue.popleft()
                self._not_full.notify()
                if ticket.done():  # pragma: no cover - raced a shed path
                    continue
                if ticket.runtime.expired() or ticket.token.cancelled:
                    # Queue-deadline shedding: the slot is freed for the
                    # next ticket instead of executing a corpse.
                    self.stats.shed += 1
                    shed_ticket = ticket
                else:
                    shed_ticket = None
                    self.stats.admitted += 1
                    ticket.state = RUNNING
                    self._running_tickets.add(ticket)
            if shed_ticket is not None:
                self._finish_shed(shed_ticket)
                continue
            try:
                self._execute_ticket(ticket)
            finally:
                with self._lock:
                    self._running_tickets.discard(ticket)

    def _finish_shed(self, ticket: ServerTicket) -> None:
        was_cancelled = ticket.token.cancelled
        ticket.token.cancel()
        if was_cancelled and not ticket.runtime.expired():
            error: Exception = QueryCancelledError(
                "query cancelled while waiting in the admission queue"
            )
        else:
            budget = (
                f"its {ticket.runtime.timeout:g}s deadline"
                if ticket.runtime.timeout is not None
                else "its deadline"
            )
            error = QueryTimeoutError(
                f"query exceeded {budget} while waiting in the admission "
                "queue (shed without occupying an execution slot)",
                timeout=ticket.runtime.timeout,
            )
        ticket._finish(SHED, error=error)

    def _execute_ticket(self, ticket: ServerTicket) -> None:
        """Run one admitted ticket, inline or on a leased pool; publish it.

        The executor comes from the database's own factory
        (``Database._make_executor``), so a served query gets the same batch
        rule as a direct call.  A one-worker ticket (see :meth:`submit`) and
        a breaker-degraded lease both run inline on this slot thread: the
        serial :class:`~repro.query.executor.Executor` streaming into the
        sink.  An inline query owes the pools nothing — whatever its
        outcome, no pool is recycled and no breaker hears of it.
        """
        pooled = ticket.parallelism > 1
        lease = None
        outcome = "ok"
        value = None
        error: Optional[BaseException] = None
        try:
            if pooled:
                lease = self.supervisor.lease(ticket.backend, ticket.parallelism)
                pooled = not lease.degraded
            executor = self.db._make_executor(
                ticket.snapshot.graph,
                ticket.parallelism if pooled else 1,
                ticket.backend,
                ticket.plan,
                pool=lease.backend if pooled else None,
            )
            if ticket.mode == "count":
                value = executor.count(
                    ticket.plan,
                    factorized=ticket.kwargs.get("factorized"),
                    runtime=ticket.runtime,
                )
            elif ticket.mode == "collect":
                value = executor.collect(
                    ticket.plan,
                    limit=ticket.kwargs.get("limit"),
                    runtime=ticket.runtime,
                )
            elif ticket.mode == "exists":
                value = executor.exists(
                    ticket.plan,
                    runtime=ticket.runtime,
                )
            else:
                value = executor.run(
                    ticket.plan,
                    materialize=ticket.kwargs.get("materialize", False),
                    factorized=ticket.kwargs.get("factorized"),
                    runtime=ticket.runtime,
                )
        except (QueryTimeoutError, QueryCancelledError) as exc:
            # The query was cut short; a pool may hold abandoned morsels,
            # so recycle it — but a slow query is not a pool failure and
            # must not feed the circuit breaker.
            outcome = "aborted"
            error = exc
        except WorkerCrashError as exc:
            # Escaped the dispatcher's retry + serial fallback: the pool is
            # systematically sick.  Count it against the breaker.
            outcome = "failed"
            error = exc
        except Exception as exc:
            # A deterministic query error (planning/execution bug, bad
            # arguments) or a pool that would not start (the supervisor
            # already told the breaker): the query failed, the pool is fine.
            error = exc
        try:
            if pooled and lease is not None:
                # PR 7's death watch, reused at the pool granularity: a
                # query that *recovered* from a worker death still ran on a
                # wounded pool — recycle it and feed the circuit breaker, so
                # repeated sickness degrades future leases instead of every
                # query paying the recovery tax.
                if lease.backend.worker_died:
                    outcome = "failed"
                # Release *before* publishing the result: a caller who sees
                # the ticket finish must also see the supervisor's accounting
                # (recycles, breaker state) for the query it just ran.
                lease.release(outcome)
        finally:
            with self._lock:
                if pooled:
                    self.stats.pooled += 1
                else:
                    self.stats.inline += 1
                if error is not None:
                    self.stats.failed += 1
                else:
                    self.stats.completed += 1
            if error is not None:
                ticket._finish(FAILED, error=error)
            else:
                ticket._finish(COMPLETED, value=value)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def running(self) -> int:
        with self._lock:
            return len(self._running_tickets)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, cancel queued, finish running.

        Idempotent.  Queued tickets are cancelled via their
        ``CancellationToken`` and fail with
        :class:`~repro.errors.QueryCancelledError`; admitted (running)
        queries run to completion; worker threads exit; every pool is
        closed.  ``timeout`` bounds the wait for the worker threads
        (``None`` waits indefinitely — running queries with no deadline
        can legitimately take a while).
        """
        with self._lock:
            already = self._state != _STATE_RUNNING
            self._state = _STATE_DRAINING
            queued = list(self._queue)
            self._queue.clear()
            self.stats.shed += len(queued)
            self._work_available.notify_all()
            self._not_full.notify_all()
        for ticket in queued:
            ticket.token.cancel()
            ticket._finish(
                SHED,
                error=QueryCancelledError(
                    "queued query cancelled by server drain"
                ),
            )
        for worker in self._workers:
            worker.join(timeout=timeout)
        if not already:
            self.supervisor.close()
        with self._lock:
            if all(not worker.is_alive() for worker in self._workers):
                self._state = _STATE_CLOSED

    close = drain

    def __enter__(self) -> "DatabaseServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        with self._lock:
            state = self._state
            depth = len(self._queue)
            running = len(self._running_tickets)
            counters = self.stats.snapshot()
        lines = [
            f"Database server [{state}]:",
            f"  admission: policy={self.config.policy!r}, "
            f"slots={self.config.max_concurrent}, "
            f"queue {depth}/{self.config.max_queue_depth}, "
            f"running {running}",
            "  counters: "
            + ", ".join(f"{key}={value}" for key, value in counters.items()),
            f"  defaults: parallelism={self.config.parallelism}, "
            f"backend={self.config.backend!r}, "
            f"timeout={self.config.default_timeout}",
            f"  breaker: threshold={self.config.breaker_threshold}, "
            f"cooldown={self.config.breaker_cooldown:g}s",
        ]
        lines.append(
            "\n".join(
                "  " + line for line in self.supervisor.describe().splitlines()
            )
        )
        return "\n".join(lines)
