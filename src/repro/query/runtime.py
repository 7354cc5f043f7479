"""Per-query runtime guardrails: wall-clock deadlines and cancellation.

A :class:`QueryContext` travels with one query execution and answers a
single question at well-defined *check points*: "may this query keep
running?"  Check points are cooperative — nothing is interrupted
pre-emptively — and sit at the boundaries the engine already works in:

* the vectorized pipeline checks between batches
  (:func:`repro.query.backends.run_pipeline` wraps the scan stream and the
  output stream), so an inline run or an in-process morsel body notices a
  deadline or a cancellation within one batch of work;
* the morsel dispatcher checks between morsels
  (:meth:`repro.query.executor.PlanRunner._dispatch`), and the parallel
  backends poll their blocking waits against the context, so a query never
  sleeps past its deadline inside ``Future.result()`` / ``AsyncResult.get()``
  even when the morsel body itself is stuck in a worker that cannot run
  cooperative checks (a different process, or a worker sleeping in an
  injected delay fault).

On violation the check raises :class:`~repro.errors.QueryTimeoutError` or
:class:`~repro.errors.QueryCancelledError` with the partial
:class:`~repro.query.operators.ExecutionStats` attached — the counters of
the work whose results were already merged when the query was cut short.

The process morsel backend does not ship the context to its workers (a
``threading.Event`` cannot cross a process boundary): the *parent* enforces
the deadline by bounding its per-morsel result waits and terminating the
pool on violation, which also reaps workers stuck mid-morsel.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import ExecutionError, QueryCancelledError, QueryTimeoutError


class CancellationToken:
    """Cooperative cancellation flag shared between a caller and a query.

    Thread-safe and reusable across check points but not across queries:
    once cancelled it stays cancelled.  Hand the same token to
    ``Database.run(cancel=token)`` and call :meth:`cancel` from any other
    thread to stop the query at its next check point.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()

    def cancel(self) -> bool:
        """Request cancellation; idempotent and safe from any thread.

        Returns True for exactly one caller — the one whose call flipped the
        token — and False for every later (or concurrent) call.  Callers
        that account for cancellations (the server's shed counters, tests
        hammering the token from many threads) can attribute the transition
        without a separate lock; callers that only want the query stopped
        can ignore the return value.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state})"


class QueryContext:
    """Deadline + cancellation state for one query execution.

    Args:
        timeout: wall-clock budget in seconds; ``None`` means no deadline.
            The deadline is fixed at construction (``clock() + timeout``),
            so planning and execution share one budget.
        cancel: a :class:`CancellationToken` to observe; a fresh private
            token is created when omitted, so :meth:`request_abort` always
            has something to set.
        clock: monotonic time source, injectable for deterministic tests.
        deadline: an absolute deadline in the clock's domain, overriding the
            ``clock() + timeout`` computation.  The admission-controlled
            server fixes a query's deadline at *submission*, so time spent
            waiting in the admission queue counts against the same budget
            the query executes under; ``timeout`` should still carry the
            originally requested budget so error messages stay meaningful.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
        deadline: Optional[float] = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ExecutionError(
                f"timeout must be a positive number of seconds, got {timeout!r}"
            )
        self.timeout = timeout
        self.token = cancel if cancel is not None else CancellationToken()
        self._clock = clock
        if deadline is not None:
            self.deadline = deadline
        else:
            self.deadline = None if timeout is None else clock() + timeout

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def remaining(self) -> Optional[float]:
        """Seconds left until the deadline (may be negative); None = no deadline."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    # ------------------------------------------------------------------
    # check points
    # ------------------------------------------------------------------
    def check(self, stats=None) -> None:
        """Raise if the query must stop; no-op otherwise.

        Cancellation wins over the deadline: an explicit user action is
        reported as what it was even when the deadline has also passed.
        ``stats`` (the partial :class:`ExecutionStats` merged so far) is
        attached to the raised error.
        """
        if self.token.cancelled:
            raise QueryCancelledError(
                "query cancelled via its cancellation token", stats=stats
            )
        if self.expired():
            if stats is not None and hasattr(stats, "deadline_remaining"):
                stats.deadline_remaining = 0.0
            budget = (
                f"its {self.timeout:g}s deadline"
                if self.timeout is not None
                else "its deadline"
            )
            raise QueryTimeoutError(
                f"query exceeded {budget}",
                stats=stats,
                timeout=self.timeout,
            )

    def request_abort(self) -> None:
        """Tell in-flight cooperative workers to stop at their next check.

        Used by the dispatcher after a deadline/cancellation fires so
        thread-backend morsels still running the pipeline abandon their
        work at the next batch boundary instead of running to completion
        inside ``close()``.
        """
        self.token.cancel()


def make_runtime(
    timeout: Optional[float] = None, cancel: Optional[CancellationToken] = None
) -> Optional[QueryContext]:
    """A :class:`QueryContext` for the given knobs, or None when both unset.

    ``None`` keeps the fast path literally unchanged: no per-batch check
    code runs for queries that asked for no guardrails.
    """
    if timeout is None and cancel is None:
        return None
    return QueryContext(timeout=timeout, cancel=cancel)
