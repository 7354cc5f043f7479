"""Admission control: server configuration, tickets, and counters.

The server's contract under overload is *bounded everything*: a bounded
number of queries execute at once (``max_concurrent`` slots), a bounded
number wait (``max_queue_depth``), and the excess is refused according to
an explicit, configurable policy instead of piling up until memory or
latency collapses:

* ``"reject"`` — a full queue refuses the *new* query with the typed
  :class:`~repro.errors.ServerOverloadedError` (fail fast; the client owns
  retry policy).
* ``"shed-oldest"`` — a full queue admits the new query by evicting the
  *oldest waiting* one (its ticket fails with ``ServerOverloadedError``).
  Freshest-first service: under sustained overload the oldest waiter is
  the likeliest to be past caring about its answer.
* ``"block"`` — ``submit`` blocks until the queue has room (bounded by the
  query's own deadline, when it has one).  Backpressure for closed-loop
  clients that would rather wait than handle refusals.

Queue *deadline shedding* runs on top of every policy: a queued query
whose PR 7 deadline already expired is failed at dequeue time without
occupying an execution slot, and a caller blocked on
:meth:`ServerTicket.result` self-sheds at its deadline instead of waiting
for a worker to reach the ticket.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ExecutionError
from ..query.backends import resolve_backend
from ..query.runtime import CancellationToken, QueryContext

#: Admission policies accepted by :class:`ServerConfig`.
POLICIES = ("reject", "shed-oldest", "block")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`~repro.server.server.DatabaseServer`.

    Attributes:
        max_concurrent: execution slots — queries running at once.  The
            server's worker budget is ``max_concurrent × parallelism``
            pool workers; admission never exceeds it.
        max_queue_depth: queries waiting beyond the running ones; the
            bound the admission policy enforces.
        policy: what a full queue does — see the module docstring.
        default_timeout: per-query wall-clock budget (seconds) applied
            when ``submit`` passes none.  The deadline is fixed at
            *submission*, so queue wait spends the same budget; ``None``
            leaves unspecified queries deadline-free.
        parallelism: default worker *ceiling* per query (``None`` defers
            to the wrapped database's own resolution).  A plan under
            :data:`~repro.query.executor.PARALLEL_MIN_ICOST` runs inline on
            its slot thread whatever this says; construct a
            ``MorselExecutor`` to force dispatch.
        backend: default morsel backend name per query (``None`` defers
            to the wrapped database).
        breaker_threshold: consecutive pool failures that open the
            degradation circuit breaker.
        breaker_cooldown: seconds an open breaker waits before the next
            real-pool trial lease.

    Every field is checked here, so a bad setting fails the constructor,
    not the first query that reaches it (the breaker is only built at the
    first pooled lease).
    """

    max_concurrent: int = 2
    max_queue_depth: int = 8
    policy: str = "reject"
    default_timeout: Optional[float] = None
    parallelism: Optional[int] = None
    backend: Optional[str] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ExecutionError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.max_queue_depth < 1:
            raise ExecutionError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.policy not in POLICIES:
            raise ExecutionError(
                f"unknown admission policy {self.policy!r}; "
                f"available: {sorted(POLICIES)}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ExecutionError(
                f"default_timeout must be positive seconds, "
                f"got {self.default_timeout}"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ExecutionError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.backend is not None:
            resolve_backend(str(self.backend).strip().lower())
        if self.breaker_threshold < 1:
            raise ExecutionError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ExecutionError(
                f"breaker_cooldown must be >= 0 seconds, "
                f"got {self.breaker_cooldown}"
            )


@dataclass
class ServerStats:
    """Monotonic admission counters (guarded by the server's lock).

    Invariants (exact once the server is drained, transiently off by the
    in-flight queries while running):

    * ``submitted == admitted + rejected + shed`` — every submitted query
      is accounted exactly once;
    * ``admitted == completed + failed`` — every admitted query reaches a
      terminal outcome;
    * ``admitted == inline + pooled`` — which way the engine went: on the
      slot thread with no pool (a plan under the cost gate, one requested
      worker, the ``"serial"`` backend, or a breaker-degraded lease), or
      through a leased pool;
    * ``plan_cache_hits + plan_cache_misses`` equals the number of
      ``QueryGraph`` submissions counted in ``submitted`` — submitting a
      query graph plans it through the database's
      :class:`~repro.query.plan_cache.PlanCache`, and exactly one of the
      two counters records the outcome (pre-built ``QueryPlan``
      submissions bypass the cache and touch neither).
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    inline: int = 0
    pooled: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


#: Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"

#: Terminal outcomes.
COMPLETED = "completed"
FAILED = "failed"
REJECTED = "rejected"
SHED = "shed"


class ServerTicket:
    """One submitted query's handle: state, outcome, and result delivery.

    Returned by ``DatabaseServer.submit``.  The caller waits on
    :meth:`result` (or polls :meth:`done`); the server's worker threads
    move the ticket ``queued → running → done`` and publish either a value
    or an error.  :meth:`cancel` works at any stage: a queued ticket is
    shed immediately, a running one stops at the query's next cooperative
    check point.
    """

    def __init__(
        self,
        server,
        plan,
        snapshot,
        mode: str,
        kwargs: Dict,
        runtime: QueryContext,
        parallelism: int,
        backend: str,
    ) -> None:
        self._server = server
        self.plan = plan
        self.snapshot = snapshot
        self.mode = mode
        self.kwargs = kwargs
        self.runtime = runtime
        self.token: CancellationToken = runtime.token
        self.parallelism = parallelism
        self.backend = backend
        self.state = QUEUED
        self.outcome: Optional[str] = None
        self.value = None
        self.error: Optional[BaseException] = None
        self.submitted_at = time.monotonic()
        self._event = threading.Event()

    # ------------------------------------------------------------------
    # server-side transitions (caller holds no lock; _finish is one-shot)
    # ------------------------------------------------------------------
    def _finish(self, outcome: str, value=None, error=None) -> bool:
        """Publish the terminal outcome; True for the caller that won.

        One-shot under the server lock's protection on the queue paths,
        but also safe standalone: the event flip is the commit point and
        ``done()`` callers only read after waiting on it.
        """
        if self._event.is_set():
            return False
        self.outcome = outcome
        self.value = value
        self.error = error
        self.state = DONE
        self._event.set()
        return True

    # ------------------------------------------------------------------
    # caller-side API
    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket is finished; True when it is."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The query's value, or raise its error (typed, stats attached).

        Deadline-aware while queued: if the ticket's own deadline passes
        before a worker reaches it, the caller does not keep waiting — it
        sheds the ticket from the queue itself and gets the
        :class:`~repro.errors.QueryTimeoutError` immediately.  A *running*
        query is left to its own cooperative deadline checks (which fire
        within one poll interval) so the result reflects the execution's
        actual termination.

        ``timeout`` bounds only this wait, not the query; on expiry the
        ticket is left in place and :class:`TimeoutError` is raised.
        """
        wait_deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while not self._event.is_set():
            waits = []
            if wait_deadline is not None:
                waits.append(wait_deadline - time.monotonic())
            remaining = self.runtime.remaining()
            if remaining is not None and self.state == QUEUED:
                waits.append(remaining)
            interval = min(waits) if waits else None
            if interval is not None and interval <= 0:
                if wait_deadline is not None and time.monotonic() >= wait_deadline:
                    raise TimeoutError(
                        "ticket.result() wait timed out (the query itself "
                        "is still pending)"
                    )
                # Our own deadline passed while still queued: shed rather
                # than wait for a worker to notice.  If the server says the
                # ticket already left the queue (a worker just took it, or
                # another path finished it), briefly wait for that path to
                # publish instead of spinning on the expired deadline.
                if not self._server._shed_expired_ticket(self):
                    self._event.wait(0.01)
                continue
            self._event.wait(interval)
        if self.error is not None:
            raise self.error
        return self.value

    def cancel(self) -> bool:
        """Request cancellation; True if this call triggered it.

        Queued tickets are shed immediately (the server's shed counter
        accounts them); running ones stop at the query's next cooperative
        check point and surface
        :class:`~repro.errors.QueryCancelledError` from :meth:`result`.
        """
        first = self.token.cancel()
        self._server._cancel_queued_ticket(self)
        return first

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        outcome = f", outcome={self.outcome}" if self.outcome else ""
        return f"ServerTicket(state={self.state}{outcome})"
