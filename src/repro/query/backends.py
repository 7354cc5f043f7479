"""Morsel-dispatch backends: serial, thread-pool, and process-pool execution.

The morsel dispatcher (:class:`~repro.query.executor.MorselExecutor`) owns
*what* runs — the per-range operator pipeline — and *in which order* results
merge (ascending range order, the determinism contract).  A
:class:`MorselBackend` owns only *where* each morsel body runs.  There are
three, one class per registry name:

* :class:`SerialBackend` — runs each morsel inline on the caller's thread.
  Exercises the full morsel/merge bookkeeping without any concurrency; the
  cheapest way to debug a morsel-boundary issue.
* :class:`ThreadBackend` — a ``ThreadPoolExecutor``.  The numpy kernels
  release the GIL, so threads overlap on multi-core machines; the Python
  orchestration between kernels still serializes on GIL builds.
* :class:`ProcessBackend` — a ``multiprocessing`` pool.  Sidesteps the GIL
  entirely: the Python orchestration of different morsels runs in different
  interpreters.  Each worker keeps a small LRU of rehydrated
  :class:`WorkerPayload` objects (plan + graph + batch size); a task for a
  payload the worker lacks raises :class:`PayloadMissing` and the parent
  re-submits it with the pickled payload attached.  Afterwards only tiny
  :class:`MorselTaskSpec` messages (plan id + vertex range + pinned store
  generation) cross the pipe per morsel.  Results travel back *columnar*:
  the raw numpy column buffers of each batch plus a stats tuple, never
  per-row match dicts, so transport cost is one buffer copy per column.

Two lifetimes
-------------

Every backend has a *pool* lifetime — ``start()`` … ``shutdown()`` — and,
nested inside it, any number of *query* lifetimes — ``open`` … ``submit``
/ ``result`` … ``close``.  One ownership rule decides who ends the pool:
whoever constructs a backend shuts it down.  Given a backend *name*, the
dispatcher constructs a backend of its own for one query — its ``open``
starts the pool, so a process pool forks with the query's payload already
in its workers' caches — and shuts it down after the query (threads are
joined unless the query aborted; processes are terminated and reaped).
Given a backend *instance* — a server's leased pool, a test
double — the dispatcher only opens and closes it, and the pool outlives the
query: :class:`~repro.server.pools.PoolSupervisor` keeps it for the next
lease, and a process pool's workers keep their payload caches warm.

Every backend yields byte-identical results: each runs the same
:func:`run_morsel` body over the same ranges, and the dispatcher merges
outputs in ascending range order regardless of completion order.  The
differential suite (``tests/test_backend_equivalence.py``) pins all three
backends against the serial executor.

Generation pinning
------------------

A plan produced by ``Database.plan`` is pinned to the index-store generation
it was planned against (``QueryPlan.store_snapshot``).  Pickling the plan for
a worker carries that snapshot along — the worker's copy of the plan
references the worker's copy of that generation's graph and indexes, shared
structurally inside the one payload pickle — so a morsel executes against
the pinned generation even if a maintenance flush installs a newer one in
the parent between planning and execution.  The task spec carries the pinned
generation and the worker refuses mismatched specs, turning any routing bug
into a loud error instead of a silently incoherent read.

Fault tolerance
---------------

Backends are the detection layer of the query runtime's crash recovery
(the *reaction* — retry, then serial fallback — lives in the dispatcher,
:meth:`~repro.query.executor.MorselExecutor._dispatch`):

* ``result()`` raises the recoverable :class:`~repro.errors.WorkerCrashError`
  when a morsel's output is lost or untrustworthy.  For the process backend
  that means: a pool worker died while the morsel was in flight (watched via
  the pool's worker processes; the reply would otherwise never arrive and
  ``get()`` would block forever), no reply within the per-morsel timeout
  (``REPRO_MORSEL_TIMEOUT``), or a reply whose checksum does not match its
  payload.  In-process backends convert the injected-fault signals of
  :mod:`repro.query.faults` the same way.
* Process replies travel in a *checksummed envelope*
  ``(encoded, stats_tuple, checksum)`` — :func:`reply_checksum` covers the
  raw column bytes, the structure, and the stats — so a corrupted transport
  is detected in the parent instead of silently merging wrong rows.
* Blocking waits are *polled* against the query's
  :class:`~repro.query.runtime.QueryContext`, so a deadline or cancellation
  fires within one poll interval even while a worker is stuck.
* Worker exceptions are **not** recoverable: a deterministic bug re-raised
  from ``result()`` propagates (retrying it cannot succeed, and the serial
  fallback would only reproduce it); the dispatcher still closes the
  backend and shuts down a pool it owns, so no per-query pool outlives the
  error.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..errors import ExecutionError, ReproError, WorkerCrashError
from ..graph.graph import PropertyGraph
from .binding import MatchBatch
from .factorized import FactorizedBatch, FactorizedSegment
from .faults import (
    FAULT_KILL_EXIT_CODE,
    FaultPlan,
    InjectedReplyCorruption,
    InjectedWorkerCrash,
)
from .runtime import QueryContext
from .operators import ExecutionContext, ExecutionStats
from .pipeline import run_pipeline
from .plan import QueryPlan


# ----------------------------------------------------------------------
# the morsel body (shared by every backend)
# ----------------------------------------------------------------------
def run_morsel(
    plan: QueryPlan,
    graph: PropertyGraph,
    batch_size: int,
    start: int,
    stop: int,
    runtime: Optional[QueryContext] = None,
    clock=None,
    count_only: bool = False,
) -> Tuple[List[object], ExecutionStats]:
    """Run the full compiled pipeline over one vertex-range morsel.

    ``batch_size`` is the *in-flight* batch size: the dispatcher passes
    :func:`~repro.query.executor.rows_in_flight` and re-splits the returned
    flat batches to its emission size.  With ``count_only=True`` (a sink
    that needs no rows) the body returns
    :class:`~repro.query.factorized.FactorizedBatch` objects carrying
    per-row cardinalities, never re-split: their prefixes are already at
    most the in-flight size.  ``runtime`` (in-process backends only — it cannot cross a process
    boundary) enables cooperative per-batch deadline/cancellation checks;
    ``clock`` (in-process only, for the same reason) overrides the
    per-stage timing clock, so tests can drive morsel bodies with a fake
    clock.
    """
    stats = ExecutionStats()
    context = ExecutionContext(
        graph=graph,
        query=plan.query,
        batch_size=batch_size,
        stats=stats,
        runtime=runtime,
    )
    if clock is not None:
        context.clock = clock
    scan = replace(plan.operators[0], vertex_range=(start, stop))
    stream = run_pipeline(plan, context, scan=scan, count_only=count_only)
    return list(stream), stats


def run_morsel_faulted(
    plan: QueryPlan,
    graph: PropertyGraph,
    batch_size: int,
    start: int,
    stop: int,
    runtime: Optional[QueryContext] = None,
    faults: Optional[FaultPlan] = None,
    index: int = 0,
    attempt: int = 0,
    clock=None,
    count_only: bool = False,
) -> Tuple[List[object], ExecutionStats]:
    """:func:`run_morsel` with the in-process fault-injection hooks applied.

    ``kill``/``error``/``delay`` faults fire before the body (a crash or a
    stuck worker never produces partial output); ``corrupt`` fires after it
    (the body's work is done, its reply is untrustworthy).  The injected
    signals escape as their raw harness exceptions — the backends convert
    them into :class:`~repro.errors.WorkerCrashError` exactly where a real
    failure of the same kind would surface.
    """
    if faults is not None:
        faults.apply_before_morsel(index, attempt)
    result = run_morsel(
        plan,
        graph,
        batch_size,
        start,
        stop,
        runtime=runtime,
        clock=clock,
        count_only=count_only,
    )
    if faults is not None and faults.corrupts(index, attempt):
        raise InjectedReplyCorruption(
            f"injected reply corruption on morsel {index} (attempt {attempt})"
        )
    return result


# ----------------------------------------------------------------------
# columnar result transport
# ----------------------------------------------------------------------
#: One encoded batch: the column names and the raw numpy column buffers.
EncodedBatch = Tuple[Tuple[str, ...], List[np.ndarray]]


def encode_batches(batches: Sequence[MatchBatch]) -> List[EncodedBatch]:
    """Strip batches down to raw column buffers for cross-process transport."""
    return [
        (tuple(batch.variables), [batch.column(name) for name in batch.variables])
        for batch in batches
    ]


def decode_batches(encoded: Sequence[EncodedBatch]) -> List[MatchBatch]:
    """Rebuild :class:`MatchBatch` objects from their raw column buffers."""
    return [
        MatchBatch(dict(zip(names, columns))) for names, columns in encoded
    ]


#: One encoded segment: target vars and per-row cardinalities.
EncodedSegment = Tuple[Tuple[str, ...], np.ndarray]

#: One encoded factorized batch: the prefix's (names, column buffers) plus
#: the per-operator segment buffers.  This is the whole point of factorized
#: transport: workers reply with per-row cardinalities instead of the
#: expanded cross-product columns, so the process backend's IPC shrinks by
#: the combination fan-out.
EncodedFactorizedBatch = Tuple[
    Tuple[str, ...], List[np.ndarray], List[EncodedSegment]
]


def encode_factorized_batches(
    batches: Sequence[FactorizedBatch],
) -> List[EncodedFactorizedBatch]:
    """Strip factorized batches to raw buffers for cross-process transport."""
    encoded = []
    for batch in batches:
        prefix = batch.prefix
        segments: List[EncodedSegment] = [
            (segment.target_vars, segment.cardinalities)
            for segment in batch.segments
        ]
        encoded.append(
            (
                tuple(prefix.variables),
                [prefix.column(name) for name in prefix.variables],
                segments,
            )
        )
    return encoded


def decode_factorized_batches(
    encoded: Sequence[EncodedFactorizedBatch],
) -> List[FactorizedBatch]:
    """Rebuild :class:`FactorizedBatch` objects from their raw buffers."""
    return [
        FactorizedBatch(
            prefix=MatchBatch(dict(zip(names, columns))),
            segments=tuple(
                FactorizedSegment(target_vars, cardinalities)
                for target_vars, cardinalities in segments
            ),
        )
        for names, columns, segments in encoded
    ]


# ----------------------------------------------------------------------
# reply integrity
# ----------------------------------------------------------------------
def reply_checksum(encoded: Sequence[object], stats_tuple: Tuple) -> int:
    """CRC32 over a reply envelope's structure, buffer bytes, and stats.

    Walks the nested tuple/list structure of an encoded reply (flat or
    factorized), folding in each numpy array's dtype, shape, and raw bytes,
    each scalar's ``repr``, and a length marker per sequence — so a flipped
    payload byte, a truncated batch list, and a reordered column all change
    the checksum.  Fast (one C-speed pass per buffer) relative to the pickle
    transport the reply already paid for.
    """
    crc = zlib.crc32(repr(stats_tuple).encode())
    pending: List[object] = [encoded]
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            crc = zlib.crc32(str((value.dtype.str, value.shape)).encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(value).tobytes(), crc)
        elif isinstance(value, (tuple, list)):
            crc = zlib.crc32(f"seq:{len(value)}".encode(), crc)
            pending.extend(reversed(value))
        else:
            crc = zlib.crc32(repr(value).encode(), crc)
    return crc


def _corrupt_reply(encoded: Sequence[object], checksum: int) -> int:
    """Damage a reply envelope in place (fault injection only).

    Flips one bit in the first non-empty integer buffer found in the
    encoded structure; when the reply has no such buffer (e.g. an
    empty-result morsel), damages the checksum instead so the corruption is
    still detectable.  Returns the checksum to ship (unchanged when a
    buffer was flipped — the *payload* no longer matches it).
    """
    pending: List[object] = [encoded]
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            if value.size and np.issubdtype(value.dtype, np.integer):
                try:
                    value.flat[0] ^= 1
                    return checksum
                except (ValueError, TypeError):  # pragma: no cover - read-only
                    continue
        elif isinstance(value, (tuple, list)):
            pending.extend(reversed(value))
    return checksum ^ 0x5A5A


# ----------------------------------------------------------------------
# process-backend wire format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MorselTaskSpec:
    """One morsel of work, as shipped to a process-pool worker.

    Deliberately tiny and plain (four ints/None): the heavy state — plan,
    graph, indexes — travels at most once per worker inside
    :class:`WorkerPayload`; afterwards each morsel costs one of these over
    the pipe.

    Attributes:
        plan_id: identifies the payload the task belongs to; must match the
            payload the worker runs it against.
        generation: the index-store generation the plan is pinned to
            (``None`` for hand-built plans without a snapshot); must match
            the payload's generation — a mismatch means the parent tried to
            run a task against a payload from a different store state,
            which would silently mix edge/vertex IDs across flush
            remappings.
        start, stop: the half-open vertex-ID range of the morsel.
        index: the morsel's deterministic submission index (what the
            payload's fault plan keys on).
        attempt: 0 for the first submission, incremented per retry of the
            same range (first-attempt-only faults key on it).
    """

    plan_id: int
    generation: Optional[int]
    start: int
    stop: int
    index: int = 0
    attempt: int = 0


@dataclass
class WorkerPayload:
    """Everything a process-pool worker needs to execute morsel tasks.

    Pickled once in the parent per plan configuration and shipped to a
    worker the first time one of its tasks lands there; the worker keeps it
    rehydrated in its payload cache.  The plan's ``store_snapshot`` (when
    present) rides along inside the same pickle, so the plan's index
    references and ``graph`` stay one shared, internally consistent object
    graph on the worker side.

    ``count_only`` selects the morsel body's pipeline (and thereby the reply
    encoding): flat batches for sinks that need rows, prefix columns plus
    per-row cardinalities for sinks that need none.  ``faults`` ships
    the chaos-run fault plan to the workers (children never read the
    environment, so injection behaves identically under every start method).
    """

    plan_id: int
    generation: Optional[int]
    plan: QueryPlan
    graph: PropertyGraph
    batch_size: int
    faults: Optional[FaultPlan] = None
    count_only: bool = False


class PayloadMissing(ReproError):
    """Worker-side signal: this task's payload is not in the worker's cache.

    Part of the process backend's wire protocol, not an error a caller
    should ever see: the parent catches it in ``result()`` and re-submits
    the same task with the payload bytes attached.  Raised by a fresh
    worker (first task of a plan, or a respawn after a crash) and by a
    worker whose LRU cache evicted the plan.  ``__reduce__`` replays the
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
#: a payload pins a whole plan + graph generation, and a long-lived pool
#: cycles through many; keeping the hottest few is the point of keeping the
#: pool, keeping all of them would be a slow memory leak.
_PAYLOAD_CACHE: "OrderedDict[int, WorkerPayload]" = OrderedDict()
_PAYLOAD_CACHE_CAPACITY = 8

#: Parent-side bound on distinct payloads a pool keeps pickled for re-shipping.
_PARENT_PAYLOAD_CAPACITY = 16

#: How long the process backend waits for a pool worker to prove it
#: started before failing (generous: spawn starts a fresh interpreter per
#: worker; healthy fork pools answer in milliseconds).
WORKER_STARTUP_TIMEOUT_SECONDS = 30.0

#: Granularity of the parallel backends' blocking result waits.  Each poll
#: interval the backend re-checks the query's deadline/cancellation and the
#: process backend re-checks its workers' liveness, so both guardrails fire
#: within ~this many seconds of the triggering event.
_RESULT_POLL_SECONDS = 0.05

#: After a pool worker is observed dead, how long the process backend keeps
#: waiting for the in-flight morsel's reply before declaring it lost.  The
#: reply may still arrive: the dead worker might not be the one holding
#: this morsel, and a finished reply can sit in the result pipe behind the
#: crash.  One short grace beat distinguishes the two without stalling
#: recovery.
DEATH_GRACE_SECONDS = 0.25

#: Default per-morsel reply timeout for the process backend (None disables).
#: Generous on purpose: it is a stuck-worker backstop, not a deadline — use
#: ``Database.run(timeout=...)`` for query-level budgets.
DEFAULT_MORSEL_TIMEOUT_SECONDS = 120.0

#: Environment override for the per-morsel reply timeout (seconds; ``0``
#: disables the backstop entirely).
MORSEL_TIMEOUT_ENV_VAR = "REPRO_MORSEL_TIMEOUT"

#: Environment variable selecting the default morsel backend by name.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_morsel_timeout(value: Optional[float] = None) -> Optional[float]:
    """The per-morsel reply timeout: explicit value, env override, or default.

    ``0`` (from either source) disables the backstop and returns None.
    """
    if value is None:
        raw = os.environ.get(MORSEL_TIMEOUT_ENV_VAR)
        if raw is None or not raw.strip():
            return DEFAULT_MORSEL_TIMEOUT_SECONDS
        try:
            value = float(raw)
        except ValueError:
            raise ExecutionError(
                f"${MORSEL_TIMEOUT_ENV_VAR} must be a number of seconds, "
                f"got {raw!r}"
            ) from None
    if value < 0:
        raise ExecutionError(
            f"morsel timeout must be >= 0 seconds (0 disables), got {value!r}"
        )
    return value if value > 0 else None

#: Monotonic ids tying task specs to the payload they belong to.
_PLAN_IDS = itertools.count(1)


def _worker_run(
    spec: Optional[MorselTaskSpec], payload_bytes: Optional[bytes] = None
):
    """The process-pool worker body: one morsel in, one reply envelope out.

    ``spec=None`` is the pool's startup probe and answers ``True``.
    Otherwise the payload comes from this worker's LRU cache, and a miss
    raises :class:`PayloadMissing`; ``payload_bytes`` rides along only on
    the parent's re-submission after that round trip.  The bytes are
    unpickled even under ``fork`` (where the parent's objects are inherited
    copy-on-write), so every start method exercises the same rehydration
    path.

    The spec must match the payload's plan id and generation; the reply is
    the checksummed envelope ``(encoded, stats_tuple, checksum)``.  Injected
    faults fire here the way real failures would: ``kill`` is a hard
    ``os._exit`` (the parent sees a dead child and a lost task, not a
    pickled exception), ``delay`` sleeps holding the morsel, ``error``
    raises through the pool's normal exception transport, and ``corrupt``
    damages the envelope *after* its checksum was computed.
    """
    if spec is None:
        return True
    payload = _PAYLOAD_CACHE.get(spec.plan_id)
    if payload is not None:
        _PAYLOAD_CACHE.move_to_end(spec.plan_id)
    elif payload_bytes is None:
        raise PayloadMissing(spec.plan_id, spec.generation)
    else:
        payload = pickle.loads(payload_bytes)
        _PAYLOAD_CACHE[payload.plan_id] = payload
        while len(_PAYLOAD_CACHE) > _PAYLOAD_CACHE_CAPACITY:
            _PAYLOAD_CACHE.popitem(last=False)
    if spec.plan_id != payload.plan_id or spec.generation != payload.generation:
        raise ExecutionError(
            f"morsel task spec (plan {spec.plan_id}, generation "
            f"{spec.generation}) does not match the worker's rehydrated "
            f"payload (plan {payload.plan_id}, generation "
            f"{payload.generation}); tasks and payloads from different "
            "store generations must not mix"
        )
    faults = payload.faults
    if faults is not None:
        if faults.kills(spec.index, spec.attempt):
            os._exit(FAULT_KILL_EXIT_CODE)
        if faults.errors(spec.index, spec.attempt):
            raise RuntimeError(
                f"injected worker error on morsel {spec.index} "
                f"(attempt {spec.attempt})"
            )
        if faults.delays(spec.index, spec.attempt):
            time.sleep(faults.delay_seconds)
    batches, stats = run_morsel(
        payload.plan,
        payload.graph,
        payload.batch_size,
        spec.start,
        spec.stop,
        count_only=payload.count_only,
    )
    encode = encode_factorized_batches if payload.count_only else encode_batches
    encoded = encode(batches)
    stats_tuple = dataclasses.astuple(stats)
    checksum = reply_checksum(encoded, stats_tuple)
    if faults is not None and faults.corrupts(spec.index, spec.attempt):
        checksum = _corrupt_reply(encoded, checksum)
    return encoded, stats_tuple, checksum


def _seed_worker_cache(payload_bytes: Optional[bytes]) -> None:
    """Pool initializer: put a pool's first payload into the worker cache.

    A pool started by its own query knows that query's payload before it
    forks, so its workers (and any respawn, which reruns the initializer)
    start warm instead of each round-tripping :class:`PayloadMissing` and
    receiving the bytes over the task pipe.
    """
    if payload_bytes is not None:
        payload = pickle.loads(payload_bytes)
        _PAYLOAD_CACHE[payload.plan_id] = payload


def preferred_start_method() -> str:
    """The start method the process backend uses on this platform.

    The platform's *default* start method, deliberately: where that default
    is ``fork`` (Linux), workers inherit the parent's memory copy-on-write
    and pool startup costs milliseconds.  Platforms whose default is
    ``spawn`` (Windows, macOS) keep it even though ``fork`` may be
    *offered* — CPython demoted fork there because forked children can
    crash inside the Objective-C runtime — so the backend stays safe but
    per-query pool creation is expensive (a fresh interpreter + re-import
    per worker); the benchmark harness skips the process scenarios there
    (``requires_fork`` in the baseline).
    """
    return multiprocessing.get_start_method()


def fork_available() -> bool:
    """True when process pools can be started cheaply (fork is the default)."""
    return preferred_start_method() == "fork"


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class MorselBackend:
    """Where morsel bodies run; the dispatcher owns ordering and merging.

    Two nested lifetimes.  The *pool* lifetime: :meth:`start` returns the
    backend ready to serve ``num_workers`` morsels at once, and
    :meth:`shutdown` releases the workers (idempotent and thread-safe).
    Inside it, any number of sequential *query* lifetimes: the dispatcher
    calls :meth:`open` once per ``execute``, then interleaves :meth:`submit`
    (hand over one ``[start, stop)`` range, returning an opaque handle) and
    :meth:`result` (block for one handle's ``(batches, stats)``), and
    finally :meth:`close` — also on abandonment and after a failed
    ``open``, so backends must tolerate ``close`` with submissions
    outstanding.  ``open`` starts a backend that is not started yet, which
    is how a pool built for one query begins: knowing the query, the
    process backend forks its workers with the payload already cached.
    Whoever constructs a backend shuts it down (see the module docstring).

    ``open(executor, plan, batch_size, ...)`` receives the morsel bodies'
    in-flight batch size from the dispatcher, which computes it once
    (:func:`~repro.query.executor.rows_in_flight`).  ``submit`` may run the
    morsel eagerly, lazily, or remotely — the only contract is that
    ``result(handle)`` returns exactly the output of :func:`run_morsel` for
    the submitted range.  The dispatcher retrieves
    handles in submission (= ascending range) order, which is what makes
    every backend's merged output byte-identical to the serial executor.

    ``open(..., count_only=True)`` says the consuming sink needs no rows:
    the morsel bodies run the count-only pipeline and ``result`` returns
    :class:`~repro.query.factorized.FactorizedBatch` objects (prefix
    columns + per-row cardinalities over the wire for the process backend)
    instead of flat batches.

    ``open(..., runtime=...)`` arms the fault-tolerance layer: ``result``'s
    blocking waits are polled against the runtime so a deadline or a
    cancellation interrupts them, and in-process morsel bodies run
    cooperative per-batch checks.  ``open(..., faults=...)`` arms the
    fault-injection hooks; ``submit``'s ``index``/``attempt`` identify each
    submission to them (and to the dispatcher's retry bookkeeping).
    ``result`` raises the recoverable :class:`~repro.errors.WorkerCrashError`
    when the submitted morsel's output was lost to a worker failure.
    """

    #: Registry name (also the ``Database.run(backend=...)`` spelling).
    name = "abstract"

    def __init__(self, num_workers: int = 1) -> None:
        if num_workers < 1:
            raise ExecutionError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)

    def start(self) -> "MorselBackend":
        return self

    def shutdown(self) -> None:
        pass

    @property
    def worker_died(self) -> bool:
        """True once a pool worker died during the current query (sticky).

        Read after a query to judge the pool rather than the query: one
        that recovered from a death still ran on a wounded pool.  Only the
        process backend's workers can die.
        """
        return False

    def open(
        self,
        executor,
        plan: QueryPlan,
        batch_size: int,
        runtime: Optional[QueryContext] = None,
        faults: Optional[FaultPlan] = None,
        count_only: bool = False,
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def submit(
        self, start: int, stop: int, index: int = 0, attempt: int = 0
    ):  # pragma: no cover
        raise NotImplementedError

    def result(self, handle) -> Tuple[List[MatchBatch], ExecutionStats]:
        raise NotImplementedError  # pragma: no cover

    def close(self) -> None:  # pragma: no cover
        raise NotImplementedError


class SerialBackend(MorselBackend):
    """Run every morsel inline on the caller's thread (no concurrency, no pool).

    ``submit`` binds the morsel body to the query's state; the body runs
    lazily inside :meth:`result`, so peak memory matches the windowed
    parallel backends instead of materializing the whole result at
    submission time.
    """

    name = "serial"

    def open(
        self,
        executor,
        plan: QueryPlan,
        batch_size: int,
        runtime: Optional[QueryContext] = None,
        faults: Optional[FaultPlan] = None,
        count_only: bool = False,
    ) -> None:
        self._plan = plan
        self._graph = executor.graph
        self._batch_size = batch_size
        self._count_only = count_only
        self._runtime = runtime
        self._faults = faults
        self._clock = getattr(executor, "clock", None)

    def submit(self, start: int, stop: int, index: int = 0, attempt: int = 0):
        body = functools.partial(
            run_morsel_faulted,
            self._plan,
            self._graph,
            self._batch_size,
            start,
            stop,
            runtime=self._runtime,
            faults=self._faults,
            index=index,
            attempt=attempt,
            clock=self._clock,
            count_only=self._count_only,
        )
        return (body, index, start, stop)

    def result(self, handle) -> Tuple[List[MatchBatch], ExecutionStats]:
        task, index, start, stop = handle
        try:
            return self._wait(task)
        except (InjectedWorkerCrash, InjectedReplyCorruption) as fault:
            raise WorkerCrashError(
                f"morsel {index} [{start}, {stop}) lost to injected fault: "
                f"{fault}"
            ) from fault

    def _wait(self, task):
        return task()

    def close(self) -> None:
        self._plan = self._graph = self._runtime = self._faults = None


class ThreadBackend(SerialBackend):
    """Run morsels on a thread pool (the numpy kernels release the GIL).

    Shares the serial backend's query state; ``submit`` hands the bound
    morsel body to the pool instead of deferring it.
    """

    name = "thread"

    def __init__(self, num_workers: int = 1) -> None:
        super().__init__(num_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._aborted = False

    def start(self) -> "ThreadBackend":
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="repro-morsel"
        )
        return self

    def open(self, executor, plan: QueryPlan, batch_size: int, **options) -> None:
        if self._pool is None:
            self.start()
        super().open(executor, plan, batch_size, **options)

    def submit(self, start: int, stop: int, index: int = 0, attempt: int = 0):
        body, *where = super().submit(start, stop, index, attempt)
        return (self._pool.submit(body), *where)

    def _wait(self, future):
        if self._runtime is None:
            return future.result()
        # Poll so the caller's deadline/cancellation can interrupt the wait
        # even while the worker thread is stuck in non-cooperative code
        # (e.g. an injected delay sleeping inside the morsel body).
        while True:
            try:
                return future.result(timeout=_RESULT_POLL_SECONDS)
            except FutureTimeoutError:
                self._runtime.check()

    def close(self) -> None:
        # The dispatcher sets an aborted query's token (deadline,
        # cancellation) before closing; remember it for shutdown().
        runtime = getattr(self, "_runtime", None)
        self._aborted = runtime is not None and runtime.cancelled
        super().close()

    def shutdown(self) -> None:
        """Stop the worker threads: joined, unless the last query aborted.

        After an abort, queued futures are cancelled and cooperative bodies
        stop at their next batch check, but a thread stuck in
        non-cooperative code is left to finish in the background (Python
        threads cannot be killed) — waiting for it would defeat the
        deadline.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not self._aborted, cancel_futures=True)


class ProcessBackend(MorselBackend):
    """Run morsels on a ``multiprocessing`` pool with lazily shipped payloads.

    ``start()`` spawns the workers and proves one answers.  ``open``
    registers the query's :class:`WorkerPayload` under a parent-side key
    (plan identity, generation, stream, batch size, fault plan) and
    reuses the wire plan id and pickled bytes of a repeated configuration,
    so on a pool that outlives its queries a hot plan's morsels cost one
    tiny :class:`MorselTaskSpec` each.  An ``open`` that finds the pool not
    started spawns it with that payload seeded into the workers' caches
    (the pool built for one query).  ``result`` re-ships the payload to a
    worker that answered :class:`PayloadMissing`, then decodes the
    columnar reply back into batches and an :class:`ExecutionStats`.

    Crash recovery composes with the cache: ``multiprocessing.Pool``
    respawns dead workers (reseeded by the initializer, if the pool had a
    seed), a respawn's cache miss surfaces as :class:`PayloadMissing` on its
    first task, and the parent re-ships the payload — the mechanism that
    warms a long-lived pool heals a wounded one.
    """

    name = "process"

    def __init__(self, num_workers: int = 1) -> None:
        super().__init__(num_workers)
        self._pool = None
        # Serializes shutdown() against concurrent callers: a pool
        # supervisor tearing down an unhealthy backend can race a server
        # drain (or a dispatcher's finally block), and exactly one of them
        # must terminate/join the pool while the others see a no-op.
        self._pool_lock = threading.Lock()
        # key -> (wire plan id, payload bytes, payload object).  The payload
        # object reference keeps the plan alive so the id()-based key cannot
        # be reused by a different plan while the entry exists.
        self._payloads: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._death_ever = False
        self.queries_served = 0
        self.payload_ships = 0
        self.payload_reuses = 0

    @staticmethod
    def _start_method() -> str:
        """Start method for this pool, adjusted for parent-side threads.

        ``fork``-ing a multi-threaded parent is unsafe: a lock held by a
        sibling thread at the moment of the fork (allocator arenas, another
        query's pool machinery) stays locked forever in the child, which
        then deadlocks.  When other threads are alive — e.g. queries on the
        thread backend running concurrently — fall back to ``forkserver``,
        which forks from a clean single-threaded server process instead of
        this one.  The fallback carries the standard spawn-family contract
        (the Linux *default* from Python 3.14): the parent's ``__main__``
        must be import-safe — guard top-level pool-creating code with ``if
        __name__ == "__main__"`` — and multiprocessing raises its usual
        bootstrapping error (or :meth:`start`'s health check fires) when it
        is not.
        """
        method = preferred_start_method()
        if method == "fork" and threading.active_count() > 1:
            if "forkserver" in multiprocessing.get_all_start_methods():
                return "forkserver"
        return method

    def start(self) -> "ProcessBackend":
        """Spawn the worker pool and prove one worker answers."""
        return self._spawn(seed=None)

    def _spawn(self, seed: Optional[bytes]) -> "ProcessBackend":
        """:meth:`start`, with ``seed`` (pickled payload bytes or None)
        rehydrated into every worker's cache by the pool initializer."""
        method = self._start_method()
        self._pool = multiprocessing.get_context(method).Pool(
            processes=self.num_workers,
            initializer=_seed_worker_cache,
            initargs=(seed,),
        )
        # A pool whose workers die during startup (e.g. forkserver/spawn
        # re-importing a parent ``__main__`` that is not importable — a REPL
        # or stdin script) respawns them forever while queued tasks wait — a
        # silent livelock; the probe converts it into a loud, actionable
        # error.
        probe = self._pool.apply_async(_worker_run, (None,))
        try:
            probe.get(timeout=WORKER_STARTUP_TIMEOUT_SECONDS)
        except multiprocessing.TimeoutError:
            self.shutdown()
            raise ExecutionError(
                f"process-backend workers failed to start within "
                f"{WORKER_STARTUP_TIMEOUT_SECONDS:.0f}s (start method "
                f"{method!r}).  Under the forkserver/spawn start methods "
                "the parent's __main__ must be importable — run from a "
                "script or module, not a REPL/stdin program, or use the "
                "thread backend"
            ) from None
        except BaseException:
            # KeyboardInterrupt (or any other failure) while waiting must
            # not orphan the just-spawned workers.
            self.shutdown()
            raise
        return self

    def open(
        self,
        executor,
        plan: QueryPlan,
        batch_size: int,
        runtime: Optional[QueryContext] = None,
        faults: Optional[FaultPlan] = None,
        count_only: bool = False,
    ) -> None:
        generation = plan.pinned_generation
        key = (id(plan), generation, count_only, batch_size, faults)
        entry = self._payloads.get(key)
        if entry is None:
            payload = WorkerPayload(
                plan_id=next(_PLAN_IDS),
                generation=generation,
                plan=plan,
                graph=executor.graph,
                batch_size=batch_size,
                faults=faults,
                count_only=count_only,
            )
            entry = (
                payload.plan_id,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                payload,
            )
            self._payloads[key] = entry
            while len(self._payloads) > _PARENT_PAYLOAD_CAPACITY:
                self._payloads.popitem(last=False)
        else:
            self._payloads.move_to_end(key)
            self.payload_reuses += 1
        self._plan_id, self._payload_bytes, _ = entry
        if self._pool is None:
            self._spawn(seed=self._payload_bytes)
        self._generation = generation
        self._count_only = count_only
        self._runtime = runtime
        self._morsel_timeout = resolve_morsel_timeout(
            getattr(executor, "morsel_timeout", None)
        )
        # Fresh death watch per query: a death absorbed (and healed) during
        # an earlier query must not charge this one a grace beat per morsel.
        self._seen_pids = self._worker_pids()
        self._death_ever = False
        self.queries_served += 1

    # ------------------------------------------------------------------
    # worker liveness
    # ------------------------------------------------------------------
    def _worker_pids(self) -> frozenset:
        """PIDs of the pool's current worker processes (empty when opaque)."""
        workers = getattr(self._pool, "_pool", None)
        if not workers:  # pragma: no cover - pool internals unavailable
            return frozenset()
        return frozenset(
            worker.pid for worker in workers if worker.pid is not None
        )

    def _death_observed(self) -> bool:
        """True once any pool worker has died during this query (sticky).

        ``multiprocessing.Pool`` auto-respawns dead workers (whose empty
        payload caches heal through :class:`PayloadMissing`), but the task
        a dead worker held is lost forever and its ``get()`` would block
        until the morsel timeout.  Watching the worker set — a pid we have
        not seen before means a respawn, i.e. a death — turns that hang
        into prompt recovery.  Exit codes are checked too: a dead worker
        the pool has not yet reaped keeps its pid but gains an exitcode.

        The observation is *sticky*: which morsel the dead worker held is
        unknowable from the parent, so after any death every outstanding
        reply is given one grace beat before being declared lost.  A
        false positive only costs a redundant retry (duplicate results are
        never merged — the retry replaces the declared-lost reply); a
        missed loss would cost a morsel-timeout hang.
        """
        if self._death_ever:
            return True
        workers = getattr(self._pool, "_pool", None)
        if not workers:  # pragma: no cover - pool internals unavailable
            return False
        died = any(worker.exitcode is not None for worker in workers)
        pids = self._worker_pids()
        if pids - self._seen_pids:
            died = True
        self._seen_pids = self._seen_pids | pids
        self._death_ever = died
        return died

    @property
    def worker_died(self) -> bool:
        return self._death_ever

    def submit(self, start: int, stop: int, index: int = 0, attempt: int = 0):
        spec = MorselTaskSpec(
            plan_id=self._plan_id,
            generation=self._generation,
            start=start,
            stop=stop,
            index=index,
            attempt=attempt,
        )
        return (self._pool.apply_async(_worker_run, (spec,)), spec)

    def _await_reply(self, async_result, index: int, start: int, stop: int):
        """Block (polled) for one morsel's reply envelope.

        Raises :class:`~repro.errors.WorkerCrashError` when the reply is
        lost to a worker death or the per-morsel timeout, re-raises worker
        exceptions, and re-checks the runtime's deadline/cancellation every
        poll interval.
        """
        started = time.monotonic()
        death_seen_at: Optional[float] = None
        while True:
            try:
                return async_result.get(timeout=_RESULT_POLL_SECONDS)
            except multiprocessing.TimeoutError:
                pass
            now = time.monotonic()
            if self._runtime is not None:
                self._runtime.check()
            if death_seen_at is None and self._death_observed():
                death_seen_at = now
            if death_seen_at is not None and now - death_seen_at >= DEATH_GRACE_SECONDS:
                raise WorkerCrashError(
                    f"morsel {index} [{start}, {stop}) lost: a process-pool "
                    "worker died while the morsel was in flight and its "
                    "reply never arrived"
                )
            if (
                self._morsel_timeout is not None
                and now - started >= self._morsel_timeout
            ):
                raise WorkerCrashError(
                    f"morsel {index} [{start}, {stop}) produced no reply "
                    f"within {self._morsel_timeout:g}s "
                    f"(${MORSEL_TIMEOUT_ENV_VAR} to adjust); treating the "
                    "worker as hung"
                )

    def _decode_reply(
        self, reply, index: int, start: int, stop: int
    ) -> Tuple[List[MatchBatch], ExecutionStats]:
        """Integrity-check one reply envelope and decode its batches."""
        try:
            encoded, stats_tuple, checksum = reply
        except (TypeError, ValueError):
            raise WorkerCrashError(
                f"morsel {index} [{start}, {stop}) returned a malformed "
                "reply envelope"
            ) from None
        if reply_checksum(encoded, stats_tuple) != checksum:
            raise WorkerCrashError(
                f"morsel {index} [{start}, {stop}) reply failed its "
                "checksum; discarding the corrupt payload"
            )
        decode = decode_factorized_batches if self._count_only else decode_batches
        return decode(encoded), ExecutionStats(*stats_tuple)

    def result(self, handle) -> Tuple[List[MatchBatch], ExecutionStats]:
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
                if reships > 2 * self.num_workers:
                    raise WorkerCrashError(
                        f"morsel {index} [{start}, {stop}) could not be "
                        f"placed after {reships} payload re-ships; the "
                        "pool's workers are not retaining payloads"
                    ) from None
                self.payload_ships += 1
                async_result = self._pool.apply_async(
                    _worker_run, (spec, self._payload_bytes)
                )
        return self._decode_reply(reply, index, start, stop)

    def close(self) -> None:
        """End the query; the pool lives on until :meth:`shutdown`.

        An abandoned query's in-flight morsels are left to finish: a
        per-query pool is terminated right after, and the server's
        supervisor discards a pool whose query failed or aborted, so stuck
        workers cannot haunt the next lease.
        """
        self._runtime = None

    def shutdown(self) -> None:
        # All retrieved results are already materialized in the parent, so
        # terminate (rather than drain) whatever is still running.  ``join``
        # runs in a ``finally`` so workers are reaped even when
        # ``terminate`` itself raises — a pool must never outlive its owner,
        # least of all on the error path.  The pool is claimed atomically,
        # so concurrent callers see one terminate/join and the rest no-op.
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.terminate()
        finally:
            pool.join()


#: Registry of backend names accepted by ``MorselExecutor``/``Database``
#: and the server's pool supervisor.
BACKENDS: Dict[str, Type[MorselBackend]] = {
    backend.name: backend
    for backend in (SerialBackend, ThreadBackend, ProcessBackend)
}

#: Backend used when neither the call, the instance, nor the environment
#: picks one.
DEFAULT_BACKEND = ThreadBackend.name


def resolve_backend(name) -> Type[MorselBackend]:
    """The backend class registered under ``name`` — the one name check.

    Raises a typed :class:`~repro.errors.ExecutionError` (so callers
    catching :class:`~repro.errors.ReproError` see it) naming every valid
    backend and the environment knob — a misconfigured deployment should
    read its fix straight off the traceback.
    """
    try:
        return BACKENDS[name]
    except (KeyError, TypeError):
        names = ", ".join(repr(known) for known in sorted(BACKENDS))
        raise ExecutionError(
            f"unknown morsel backend {name!r}; valid backends are "
            f"{names} (pass one to Database.run(backend=...) or set the "
            f"${BACKEND_ENV_VAR} environment variable)"
        ) from None
