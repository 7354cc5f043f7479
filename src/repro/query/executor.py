"""Plan execution: the serial executor and the morsel-driven dispatcher.

The :class:`Executor` drives a :class:`~repro.query.plan.QueryPlan`'s operator
pipeline over a property graph, producing partial-match batches and exposing
convenience entry points for counting or collecting the matches.  Matching
semantics is *homomorphism*: distinct query variables may bind to the same
graph element unless the query predicate forbids it.

Morsel-driven parallel execution
--------------------------------

:class:`MorselExecutor` parallelizes a plan the way morsel-driven schedulers
(Leis et al.) do: the scan's candidate domain — the vertex-ID range of the
leading :class:`~repro.query.operators.ScanVertices` — is split into
contiguous *morsels*, and the **full operator pipeline** runs per morsel.
Every operator is already batch-at-a-time and stateless (the scan is cloned
per morsel with an explicit ``vertex_range``; extension and filter operators
share immutable configuration and index references), so no operator
semantics change: each morsel's pipeline is exactly the serial pipeline over
a sub-range of the scan.

The dispatcher is split along two orthogonal axes:

* **where morsels run** — a pluggable :class:`~repro.query.backends
  .MorselBackend`: ``serial`` (inline, for debugging the morsel
  bookkeeping), ``thread`` (a thread pool; the numpy kernels release the GIL
  for their inner loops, so threads overlap on multi-core machines), or
  ``process`` (a ``multiprocessing`` pool that sidesteps the GIL entirely —
  picklable task specs out, columnar numpy buffers back; see
  :mod:`repro.query.backends`).  Three backends, two lifetimes, one
  ownership rule: a backend's pool lives from ``start()`` to
  ``shutdown()`` and serves queries from ``open`` to ``close``, and
  whoever constructs it shuts it down — the dispatcher, for a backend
  given by name (one pool per query), or the caller that passed in an
  instance (the server's leased pools, which outlive their queries);
* **how the domain is cut** — by degree
  (:func:`~repro.query.morsels.degree_weighted_ranges`): the primary
  index's CSR list lengths are prefix-summed so each morsel carries roughly
  equal *adjacency work*, which is what balances Zipf-skewed graphs (each
  vertex also weighs one unit for the scan, so a domain without adjacency
  work is cut into equal vertex-count ranges).  The cut over-partitions
  (``STEAL_SPLIT_FACTOR`` × more, smaller morsels) so idle workers keep
  pulling queued morsels while a heavy one is in flight — bounded
  work-stealing through the pool's queue, with the in-flight window capping
  buffered results.  An explicit ``morsel_size`` cuts fixed-size ranges
  instead, for boundary cases.

**One stream switch.**  The entry points of :class:`PlanRunner` decide
once which stream a run needs, from the sink (``needs_rows``), the plan
(``supports_factorized_count``) and the caller (``factorized=False`` forces
the flat oracle), and pass it down as ``count_only``: the only stream flag
from ``execute`` to the morsel body.  ``count_only=False`` streams flat
:class:`~repro.query.binding.MatchBatch` rows; ``count_only=True`` streams
:class:`~repro.query.factorized.FactorizedBatch` prefixes whose suffix
carries per-row cardinalities only.

**Rows in flight** are decided in one place, :func:`rows_in_flight`, from
the configured batch size, the runner and whether the sink needs rows.  A
run whose sink needs rows (``collect``, ``exists``,
``run(materialize=True)``, the flat ``count(factorized=False)`` oracle)
carries the batch size on the direct :class:`Executor` — every inline run —
and :data:`DEFAULT_COALESCE` × it inside a morsel, because its extensions
materialize rows × fan-out.  A count-only run (a sink declaring
``needs_rows = False``: ``count()``, ``run(factorized=True)``) carries at
least ``COUNT_ONLY_COALESCE`` × the batch size on every runner: its suffix
reduces to cardinalities, so the larger batch pays each kernel call's
Python cost once per 8 k rows and lets the per-distinct-key sharing see
repeats.  Batch boundaries never change the produced rows.

**Determinism.**  Extension operators emit output rows in input-row order and
batch boundaries never affect which rows are produced (the batch kernels are
row-segmented), so the concatenation of per-morsel outputs in ascending
range order is *byte-identical* to the serial executor's output — same match
rows in the same order, and, because every stats counter is per-row
accounting, identical :class:`~repro.query.operators.ExecutionStats` — for
**every** backend × morsel cut × worker count combination.
``parallelism=1`` (the default everywhere) bypasses the dispatcher entirely
and remains the oracle the parallel paths are tested against
(``tests/test_backend_equivalence.py``).

**Parallelism is a ceiling.**  ``Database`` and ``DatabaseServer`` ask
:func:`effective_workers` before building a dispatcher: a plan whose i-cost
estimate is under :data:`PARALLEL_MIN_ICOST` runs inline on the calling
thread — the direct :class:`Executor`, streaming straight into the sink,
``morsels_dispatched == 0`` — because
below that cost a pool measures slower than no pool.  Constructing a
:class:`MorselExecutor` directly is never gated.

**Fault tolerance.**  Determinism survives worker failures: a morsel lost
to a crash, hang, or corrupt reply (the backend raises
:class:`~repro.errors.WorkerCrashError`) is retried at the front of the
dispatch window and, past ``max_retries``, re-executed serially in the
parent — so the merged output stays byte-identical to the fault-free run
while ``ExecutionStats.retries``/``morsels_recovered`` record the recovery.
Queries also carry optional runtime guardrails — a wall-clock ``timeout``
and a cooperative ``cancel`` token (:mod:`repro.query.runtime`) — checked
between batches and between morsels, and enforced against stuck workers by
the backends' polled waits.  The chaos suite
(``tests/test_fault_injection.py``) drives all of this with deterministic
injected faults (:mod:`repro.query.faults`).
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    WorkerCrashError,
)
from ..graph.graph import PropertyGraph
from ..graph.types import Direction
from .backends import (
    DEFAULT_BACKEND,
    MorselBackend,
    resolve_backend,
    run_morsel,
    run_pipeline,
)
from .binding import DEFAULT_BATCH_SIZE
from .faults import FAULTS_ENV_VAR, FaultPlan
from .morsels import degree_weighted_ranges, ranges_of_size
from .operators import ExecutionContext, ExecutionStats, ScanVertices
from .pipeline import (
    CountSink,
    ExistsSink,
    FlattenSink,
    LimitSink,
    PipelineBuilder,
    Sink,
    validate_limit,
)
from .plan import QueryPlan
from .runtime import CancellationToken, QueryContext, make_runtime


@dataclass
class QueryResult:
    """Materialized result of a query execution."""

    matches: List[Dict[str, int]]
    count: int
    seconds: float
    stats: ExecutionStats

    def __len__(self) -> int:
        return self.count


#: Plan i-cost (estimated adjacency-list entries read) below which a query
#: runs inline on the calling thread however many workers were requested:
#: ``parallelism`` is a ceiling, and under this cost a pool only adds
#: dispatch, range splitting and GIL hand-offs to the same kernel work.
#: Measured, not tuned — ``benchmarks/crossover.py`` regenerates the table
#: into ``BENCH_parallel_crossover.json``: one-slot server on 2 cores (the
#: second one idle), ``count()`` at 8192 rows in flight, median of 7, ms as
#: inline / thread ×2 / process ×2 —
#:
#:   vertices  shape     i-cost   inline  thread×2  process×2
#:     16 k    one_hop   6.4e4      0.44     3.4      16.3
#:             two_hop   3.2e5      1.9      8.4      78
#:             triangle  5.8e5     88       52        72     <- thread ahead
#:     64 k    one_hop   2.6e5      0.96     5.4      27.7
#:             two_hop   1.3e6      8.4     13.5     100
#:             triangle  2.3e6    339      225       313     <- both pools ahead
#:    256 k    one_hop   1.0e6      4.0     11.3      70
#:             two_hop   5.1e6     36.2     42.3     224
#:             triangle  9.2e6   1862     1018      1152
#:
#: Below 2 M a thread pool costs ``one_hop``/``two_hop`` 1.6-8× (process
#: more) — with a core idle; two busy slot threads have none to spare
#: (``server_zipf``: 2× ``ops_per_s`` inline).  The triangle is the
#: exception at every size: on these graphs its intersections share no list,
#: and at 8 k rows their arrays outgrow the caches (inline 16 k: 66 ms at
#: 2 k rows, 112 ms at 8 k), so thread ×2 leads by 1.5-1.8×, below the gate
#: too.  The i-cost cannot tell that triangle from a ``two_hop`` of the same
#: cost, so the gate stays where the shapes it exists for lose.
#: ``two_hop`` still loses above it because its count sink runs in the
#: parent and the prefix columns are shipped.  A constant on purpose: when
#: the dispatcher changes, re-measure.
PARALLEL_MIN_ICOST = 2_000_000


def effective_workers(plan: QueryPlan, requested: int) -> int:
    """Workers a run of ``plan`` gets when the caller allows ``requested``.

    ``1`` means inline on the calling thread — no lease, no backend, no
    morsels.  The gate acts only on an estimate it has: a hand-built plan
    (cost and cardinality both 0) keeps the requested count.
    """
    estimated = plan.estimated_cost > 0 or plan.estimated_cardinality > 0
    if requested > 1 and estimated and plan.estimated_cost < PARALLEL_MIN_ICOST:
        return 1
    return requested


def describe_execution(plan: QueryPlan) -> str:
    """The gate's verdict on ``plan``, with its numbers (``plan.describe()``)."""
    cost = f"i-cost≈{plan.estimated_cost:,.0f}"
    if effective_workers(plan, 2) == 1:
        return f"inline — {cost} < {PARALLEL_MIN_ICOST:,}"
    if plan.estimated_cost >= PARALLEL_MIN_ICOST:
        return f"parallel up to the requested workers — {cost} >= {PARALLEL_MIN_ICOST:,}"
    return "as requested — a hand-built plan carries no estimate to gate on"


#: Serial-sized batches coalesced into one in-flight batch inside a morsel,
#: for runs whose sink needs rows.  Larger batches amortize the
#: per-kernel-call Python overhead (one gather / one ``intersect_segments``
#: call covers ``DEFAULT_COALESCE`` × ``batch_size`` rows), but a
#: row-producing extension materializes rows × fan-out: past ~2 its
#: intermediates outgrow the caches and the kernels slow down more than the
#: amortization saves (measured on the two-leg worst-case-optimal join of
#: the directed triangle a→c, a→b, c→b), and the flat oracle's peak memory
#: grows with it.
DEFAULT_COALESCE = 2

#: Serial-sized batches per in-flight batch, at least, when the sink needs
#: no rows.  A count-only suffix carries cardinalities, not rows × fan-out,
#: so only the prefix grows, and the suffix's per-distinct-key sharing sees
#: more repeats per batch.  Serial ``count()``, median of 7, 2 cores, going
#: from 1 to 8 × 1024 rows: SQ1-SQ10 40.9 → 24.4 ms per round, MR1-MF5
#: 61.5 → 46.0 ms (MF3, a flat count, unmoved), and the ``server_zipf``
#: triangle 15.2 → 8.8 ms as its lists start to be shared (0 → 22 k).  16
#: read 23.2 / 45.3 / 9.0 ms: not worth doubling the prefix's transient
#: arrays on hub graphs without its own measurement.
COUNT_ONLY_COALESCE = 8


def rows_in_flight(batch_size: int, coalesce: int, count_only: bool) -> int:
    """Rows a pipeline carries per batch: the one batch-size rule.

    ``batch_size × coalesce`` for a sink that needs rows; a count-only sink
    (``needs_rows = False``) raises ``coalesce`` to at least
    :data:`COUNT_ONLY_COALESCE`.
    """
    if count_only:
        coalesce = max(coalesce, COUNT_ONLY_COALESCE)
    return batch_size * coalesce


class PlanRunner:
    """Shared count/collect/exists/run entry points over an ``execute`` stream.

    Subclasses provide ``execute(plan, stats=None, runtime=None,
    count_only=False)``; the convenience entry points here consume that
    stream identically for the serial and the morsel-driven executor, so
    their result contracts cannot drift apart.

    Sink-aware finalization: every entry point drains its stream through a
    first-class pipeline :class:`~repro.query.pipeline.Sink` whose halt
    signal propagates upstream.  Row-producing entry points (``collect``,
    ``run(materialize=True)``) use :class:`~repro.query.pipeline
    .FlattenSink` — the kept oracle — or its streaming
    :class:`~repro.query.pipeline.LimitSink` spelling when a ``limit`` is
    given, which stops the pipeline (and, under the morsel dispatcher,
    morsel submission) as soon as the limit is satisfied.  ``exists``
    drains through :class:`~repro.query.pipeline.ExistsSink`, halting on
    the first match.  ``count`` (and ``run(factorized=True)``) drain
    :class:`~repro.query.pipeline.CountSink`, which needs no rows: plans
    with a factorizable suffix then run ``count_only``, computing the count
    from unexpanded cardinality products instead of materializing the
    combination cross-product.

    Entry points accept an optional ``stats`` object so callers can
    observe the merged :class:`~repro.query.operators.ExecutionStats`
    (per-stage times, ``morsels_dispatched``, ...) of runs whose return
    value carries no stats of its own.
    """

    def execute(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats] = None,
        runtime: Optional[QueryContext] = None,
        count_only: bool = False,
    ) -> Iterator:
        """Yield the plan's batches: flat ``MatchBatch`` rows, or with
        ``count_only=True`` ``FactorizedBatch`` cardinalities."""
        raise NotImplementedError

    def _resolve_factorized(
        self, plan: QueryPlan, factorized: Optional[bool]
    ) -> bool:
        """Effective sink choice: ``None`` auto-opts-in capable plans."""
        if factorized is None:
            return plan.supports_factorized_count
        if factorized and not plan.supports_factorized_count:
            raise ExecutionError(
                f"plan for {plan.query.name!r} has no factorizable suffix "
                "(see QueryPlan.supports_factorized_count); "
                "factorized=True cannot be honoured"
            )
        return bool(factorized)

    def count(
        self,
        plan: QueryPlan,
        factorized: Optional[bool] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        runtime: Optional[QueryContext] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> int:
        """Number of matches produced by the plan (sink-aware).

        ``factorized=None`` (the default) computes the count from
        unexpanded cardinality products whenever the plan supports it and
        falls back to the flat stream otherwise; ``False`` forces the flat
        oracle path; ``True`` requires a factorizable plan (raises
        otherwise).  The count is identical either way.

        ``timeout`` (seconds) and ``cancel`` (a
        :class:`~repro.query.runtime.CancellationToken`) arm the query's
        runtime guardrails: a violated deadline raises
        :class:`~repro.errors.QueryTimeoutError`, a triggered token
        :class:`~repro.errors.QueryCancelledError` — both carrying the
        partial stats merged so far.  A pre-built ``runtime`` overrides
        both: the admission-controlled server passes one whose deadline was
        fixed at submission, so queue wait spends the same budget.
        """
        if runtime is None:
            runtime = make_runtime(timeout, cancel)
        sink = CountSink()
        count_only = self._resolve_factorized(plan, factorized) and not sink.needs_rows
        return sink.drain(
            self.execute(plan, stats=stats, runtime=runtime, count_only=count_only)
        )

    def collect(
        self,
        plan: QueryPlan,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        runtime: Optional[QueryContext] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> List[Dict[str, int]]:
        """Materialize matches as dictionaries (optionally limited).

        A ``limit`` drains through the streaming
        :class:`~repro.query.pipeline.LimitSink`: the sink halts the
        pipeline as soon as the limit is reached *mid-batch* — the final
        batch contributes only its needed prefix rows, no further batch is
        pulled, and under the morsel dispatcher no further morsel is
        submitted (``stats.morsels_dispatched`` stays below the unlimited
        run's).  The returned prefix is byte-identical to the unlimited
        run's first ``limit`` matches.  ``timeout``/``cancel``/``runtime``
        behave as in :meth:`count`.

        ``limit=None`` is unlimited and ``limit=0`` a legal empty result;
        a negative limit raises a typed
        :class:`~repro.errors.ExecutionError` (it used to be silently
        swallowed into zero rows here, masking caller bugs).
        """
        validate_limit(limit)
        if limit == 0:
            return []
        sink = FlattenSink() if limit is None else LimitSink(limit)
        if runtime is None:
            runtime = make_runtime(timeout, cancel)
        return sink.drain(self.execute(plan, stats=stats, runtime=runtime))

    def exists(
        self,
        plan: QueryPlan,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        runtime: Optional[QueryContext] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> bool:
        """Whether the plan produces any match at all (streaming, early-out).

        Drains through :class:`~repro.query.pipeline.ExistsSink`: the first
        non-empty batch halts the pipeline, so upstream operators (and,
        under the morsel dispatcher, morsel submission) stop as soon as one
        match is proven.  ``timeout``/``cancel``/``runtime`` behave as in
        :meth:`count`.
        """
        if runtime is None:
            runtime = make_runtime(timeout, cancel)
        return ExistsSink().drain(self.execute(plan, stats=stats, runtime=runtime))

    def run(
        self,
        plan: QueryPlan,
        materialize: bool = False,
        factorized: Optional[bool] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        runtime: Optional[QueryContext] = None,
    ) -> QueryResult:
        """Execute a plan, timing it and gathering execution statistics.

        ``factorized=None``/``False`` runs the flat pipeline (the oracle
        path — ``run`` keeps flat semantics unless explicitly opted in);
        ``factorized=True`` drains the factorized stream through a
        :class:`CountSink` — the result carries the count and the
        factorized stats (``combos_avoided``, ``segments_emitted``) but no
        rows, so it cannot be combined with ``materialize=True``.

        ``timeout``/``cancel``/``runtime`` behave as in :meth:`count`; a
        run that finishes under its deadline records the unused budget in
        ``stats.deadline_remaining``.
        """
        use_factorized = bool(factorized) and self._resolve_factorized(
            plan, factorized
        )
        if use_factorized and materialize:
            raise ExecutionError(
                "materialize=True needs flat tuples; a factorized run is "
                "count-only (use the default flat path to collect matches)"
            )
        if runtime is None:
            runtime = make_runtime(timeout, cancel)
        stats = ExecutionStats()
        started = time.perf_counter()
        matches: List[Dict[str, int]] = []
        if materialize:
            matches = FlattenSink().drain(
                self.execute(plan, stats=stats, runtime=runtime)
            )
            count = len(matches)
        else:
            sink = CountSink()
            count = sink.drain(
                self.execute(
                    plan,
                    stats=stats,
                    runtime=runtime,
                    count_only=use_factorized and not sink.needs_rows,
                )
            )
        elapsed = time.perf_counter() - started
        if runtime is not None and runtime.deadline is not None:
            stats.deadline_remaining = max(0.0, runtime.remaining())
        return QueryResult(matches=matches, count=count, seconds=elapsed, stats=stats)


class Executor(PlanRunner):
    """Executes query plans serially over one property graph.

    ``clock`` optionally overrides the monotonic clock used for per-stage
    timing (``ExecutionStats.operator_seconds``) — injectable so tests can
    assert exact time attribution with a fake clock.

    Every inline run is this runner: ``parallelism=1`` and the plans the
    plan-cost gate keeps inline (:func:`effective_workers`) alike.  Its
    batches are emitted as produced, ``batch_size`` rows for a sink that
    needs rows and :data:`COUNT_ONLY_COALESCE` × ``batch_size`` for a
    count-only one (:func:`rows_in_flight`).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        batch_size: int = DEFAULT_BATCH_SIZE,
        clock=None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph
        self.batch_size = batch_size
        self.clock = clock

    def execute(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats] = None,
        runtime: Optional[QueryContext] = None,
        count_only: bool = False,
    ) -> Iterator:
        """Yield the plan's batches; ``count_only`` as in :class:`PlanRunner`.

        A count-only stream counts once per distinct bound key of a batch
        wherever its keys repeat.
        """
        context = ExecutionContext(
            graph=self.graph,
            query=plan.query,
            batch_size=rows_in_flight(self.batch_size, 1, count_only),
            stats=stats or ExecutionStats(),
            runtime=runtime,
        )
        if self.clock is not None:
            context.clock = self.clock
        yield from run_pipeline(plan, context, count_only=count_only)


#: Morsels handed out per worker (load-balancing granularity of the default
#: morsel size: more morsels than workers lets fast workers steal the tail).
MORSELS_PER_WORKER = 4

#: Extra over-partitioning of degree-weighted morsels: the weighted splitter
#: targets ``workers × MORSELS_PER_WORKER × STEAL_SPLIT_FACTOR`` morsels, so
#: workers that finish early keep stealing queued (smaller) morsels while a
#: heavy one is still in flight.  Bounded: the in-flight window caps how many
#: completed-but-unmerged results can pile up, and the splitter never cuts
#: below one vertex per morsel.
STEAL_SPLIT_FACTOR = 2

#: In-flight morsels per worker: bounds how many completed-but-unconsumed
#: morsel results can be buffered at once, so memory stays proportional to
#: the window (× the largest morsel output), not to the whole query result.
MORSEL_WINDOW_PER_WORKER = 2

#: How many times a morsel lost to a worker failure is re-submitted to the
#: backend before the dispatcher gives up on the pool and re-executes the
#: range serially in-process.  Two covers the realistic transient cases
#: (the reply raced a *different* worker's death; the respawned worker
#: absorbed the retry) without stalling long on a systematically failing
#: pool.
MAX_MORSEL_RETRIES = 2

class MorselExecutor(PlanRunner):
    """Morsel-driven parallel plan execution with deterministic merge order.

    Args:
        graph: the property graph the plan reads.
        batch_size: row count of the batches the executor *emits* (the same
            contract as :class:`Executor`; inside a morsel the pipeline runs
            with :func:`rows_in_flight` rows).
        num_workers: worker-pool width.  ``1`` still runs through the
            dispatcher (useful for testing morsel bookkeeping); use
            :class:`Executor` for the true serial path.  Everywhere else
            ``parallelism`` is a ceiling — plans under
            :data:`PARALLEL_MIN_ICOST` run inline — so construct a
            ``MorselExecutor`` to force dispatch.
        morsel_size: vertices per morsel.  ``None`` (the default) cuts
            degree-weighted morsels; an explicit size forces fixed-size
            even ranges — the boundary-case knob (single-vertex morsels,
            morsels smaller than a batch).
        backend: where morsel bodies run — a name from
            :data:`~repro.query.backends.BACKENDS` (``"serial"``,
            ``"thread"``, ``"process"``; each query starts a pool of its
            own and shuts it down after), or a
            :class:`~repro.query.backends.MorselBackend` instance (only
            opened — which starts it if it is not — and closed; its owner
            shuts it down).
        max_retries: re-submissions of a morsel lost to a worker failure
            before the dispatcher degrades to in-process serial re-execution
            of the range (``0`` = straight to the serial fallback).
        morsel_timeout: process-backend per-morsel reply timeout in seconds
            (``None`` = the :data:`~repro.query.backends
            .MORSEL_TIMEOUT_ENV_VAR` override or the default backstop;
            ``0`` disables).
        fault_plan: a :class:`~repro.query.faults.FaultPlan` (or spec
            string) injected into this executor's queries — the
            programmatic spelling of the ``REPRO_FAULTS`` environment
            variable, for chaos tests.
        clock: override of the per-stage timing clock, threaded into the
            in-process morsel bodies (serial/thread backends and the serial
            fallback; process workers keep the real clock — callables do
            not cross the pickle boundary).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_workers: int = 4,
        morsel_size: Optional[int] = None,
        backend: Union[str, MorselBackend] = DEFAULT_BACKEND,
        max_retries: int = MAX_MORSEL_RETRIES,
        morsel_timeout: Optional[float] = None,
        fault_plan: Union[None, str, FaultPlan] = None,
        clock=None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        if num_workers < 1:
            raise ExecutionError(f"num_workers must be >= 1, got {num_workers}")
        if morsel_size is not None and morsel_size < 1:
            raise ExecutionError(f"morsel_size must be >= 1, got {morsel_size}")
        if not isinstance(backend, MorselBackend):
            resolve_backend(backend)
        if max_retries < 0:
            raise ExecutionError(f"max_retries must be >= 0, got {max_retries}")
        if morsel_timeout is not None and morsel_timeout < 0:
            raise ExecutionError(
                f"morsel_timeout must be >= 0 seconds (0 disables), "
                f"got {morsel_timeout}"
            )
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self.graph = graph
        self.batch_size = batch_size
        self.num_workers = int(num_workers)
        self.morsel_size = None if morsel_size is None else int(morsel_size)
        self.backend = backend
        self.max_retries = int(max_retries)
        self.morsel_timeout = morsel_timeout
        self.fault_plan = fault_plan
        self.clock = clock

    def _resolve_faults(self) -> Optional[FaultPlan]:
        """The active fault plan: the instance's, else the environment's."""
        if self.fault_plan is not None:
            return self.fault_plan
        return FaultPlan.parse(os.environ.get(FAULTS_ENV_VAR))

    # ------------------------------------------------------------------
    # morsel partitioning
    # ------------------------------------------------------------------
    def _domain_weights(self, plan: QueryPlan, lo: int, hi: int) -> np.ndarray:
        """Per-vertex work estimate over the scan domain ``[lo, hi)``.

        One unit per vertex for the scan itself, plus — for every leg
        anywhere in the pipeline whose adjacency is read off the *scanned*
        vertex — that vertex's list length.  List lengths come from the
        index's CSR bound offsets when the index exposes them
        (``vertex_degrees``; the primary adjacency indexes do) and fall back
        to the graph's degree arrays otherwise.  Legs bound to later
        variables read domains already redistributed by earlier extensions
        and cannot be attributed to a scan vertex cheaply; scan-bound legs
        are where degree skew concentrates (the hub's list is re-fetched by
        every operator touching it), so this estimate captures the bulk of
        the imbalance at O(domain) cost.
        """
        weights = np.ones(hi - lo, dtype=np.float64)
        scan = plan.operators[0]
        assert isinstance(scan, ScanVertices)
        for operator in plan.operators[1:]:
            legs = getattr(operator, "legs", None)
            if not legs:
                continue
            for leg in legs:
                if leg.access_path.uses_bound_edge or leg.bound_var != scan.var:
                    continue
                vertex_degrees = getattr(
                    leg.access_path.index, "vertex_degrees", None
                )
                if callable(vertex_degrees):
                    weights += vertex_degrees(lo, hi)
                elif leg.access_path.direction is Direction.FORWARD:
                    weights += self.graph.out_degree()[lo:hi]
                else:
                    weights += self.graph.in_degree()[lo:hi]
        return weights

    def morsel_ranges(self, plan: QueryPlan) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` vertex ranges covering the scan domain.

        The ranges partition the leading scan's domain in ascending order;
        concatenating per-range outputs in list order therefore reproduces
        the serial scan order — regardless of whether the cuts are
        degree-weighted or fixed-size.  An explicit ``vertex_range`` on the
        plan's scan is respected (the morsels partition that sub-range), and
        an explicit ``morsel_size`` forces fixed-size ranges.
        """
        scan = plan.operators[0]
        assert isinstance(scan, ScanVertices)
        lo, hi = scan.domain(self.graph)
        if hi <= lo:
            return []
        if self.morsel_size is not None:
            return ranges_of_size(lo, hi, self.morsel_size)
        return degree_weighted_ranges(
            lo,
            hi,
            self.num_workers * MORSELS_PER_WORKER * STEAL_SPLIT_FACTOR,
            self._domain_weights(plan, lo, hi),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats] = None,
        runtime: Optional[QueryContext] = None,
        count_only: bool = False,
    ) -> Iterator:
        """Yield the plan's batches in deterministic morsel order.

        Morsels are dispatched to the configured backend through a bounded
        sliding window (``num_workers * MORSEL_WINDOW_PER_WORKER`` in
        flight): workers drain the window out of order, the next morsel is
        submitted as the oldest one is consumed, and batches are yielded
        strictly in ascending morsel order — so consumers observe the exact
        serial row sequence while peak memory stays proportional to the
        window, not to the whole query result.  Flat batches are re-split
        to ``batch_size`` rows; ``count_only`` batches (as in
        :class:`PlanRunner`; over the process backend the replies then ship
        prefix columns and cardinalities) are yielded whole, because their
        only consumers are aggregate sinks that reduce them immediately.
        """
        batches = self._dispatch(plan, stats, runtime, count_only)
        if count_only:
            yield from batches
            return
        for batch in batches:
            yield from batch.split(self.batch_size)

    def _dispatch(
        self,
        plan: QueryPlan,
        stats: Optional[ExecutionStats],
        runtime: Optional[QueryContext],
        count_only: bool,
    ) -> Iterator[object]:
        """Windowed morsel dispatch behind :meth:`execute`.

        This is also the *reaction* half of crash recovery (backends are the
        detection half): a morsel whose ``result()`` raises the recoverable
        :class:`~repro.errors.WorkerCrashError` is re-submitted to the
        backend up to ``max_retries`` times — the retry entry goes to the
        *front* of the window, so the ascending merge order (and thus
        byte-identical output) is preserved — and, when retries are
        exhausted, the range is re-executed serially in-process with fault
        injection disabled.  Failed attempts' partial stats are discarded,
        so the merged counters are identical to a fault-free run (plus the
        ``retries``/``morsels_recovered`` bookkeeping).

        A deadline/cancellation violation — raised here between morsels, by
        a backend's polled wait, or by a cooperative in-process morsel body
        — gets the merged partial stats attached and requests abort on the
        runtime's token, so in-flight cooperative morsels stop at their next
        batch boundary instead of running to completion inside ``close()``.

        **Early termination across morsels.**  The window is topped up at
        the head of each merge iteration — *after* the consumer has pulled
        the previous morsel's batches — never eagerly ahead of consumption.
        When a sink halts (``collect(limit=)`` satisfied, ``exists`` proven)
        this generator is abandoned mid-yield, so no further morsel is ever
        submitted to the backend; ``merged.morsels_dispatched`` (counted at
        first-attempt submission) then stays strictly below the full
        domain's morsel count.  Before this restructure the dispatcher
        refilled the window *before* yielding, so a satisfied limit still
        dispatched one extra morsel per buffered result.
        """
        merged = stats if stats is not None else ExecutionStats()
        all_ranges = self.morsel_ranges(plan)
        if not all_ranges:
            return
        ranges = iter(enumerate(all_ranges))
        window = self.num_workers * MORSEL_WINDOW_PER_WORKER
        faults = self._resolve_faults()
        batch_size = rows_in_flight(self.batch_size, DEFAULT_COALESCE, count_only)
        # Whoever constructs a backend shuts it down: a name gets a pool of
        # its own, started by this query's open() (so a process pool forks
        # with the payload cached) and shut down after it; an instance (a
        # server lease, a test double) is only opened and closed.
        owned = not isinstance(self.backend, MorselBackend)
        backend = self.backend
        if owned:
            backend = resolve_backend(backend)(self.num_workers)
        try:
            backend.open(
                self,
                plan,
                batch_size,
                runtime=runtime,
                faults=faults,
                count_only=count_only,
            )
            # Window entries: (handle, index, lo, hi, attempt).
            pending = deque()
            exhausted = False
            while True:
                while not exhausted and len(pending) < window:
                    refill = next(ranges, None)
                    if refill is None:
                        exhausted = True
                        break
                    rindex, (rlo, rhi) = refill
                    rhandle = backend.submit(rlo, rhi, index=rindex, attempt=0)
                    pending.append((rhandle, rindex, rlo, rhi, 0))
                    merged.morsels_dispatched += 1
                if not pending:
                    break
                handle, index, lo, hi, attempt = pending.popleft()
                recovered = attempt > 0
                try:
                    batches, morsel_stats = backend.result(handle)
                except WorkerCrashError:
                    merged.retries += 1
                    if runtime is not None:
                        runtime.check(merged)
                    if attempt < self.max_retries:
                        retry = attempt + 1
                        handle = backend.submit(lo, hi, index=index, attempt=retry)
                        pending.appendleft((handle, index, lo, hi, retry))
                        continue
                    # Retries exhausted: recover the range in-process,
                    # serially, with injection disabled — the deterministic
                    # last resort that cannot lose to another worker fault.
                    batches, morsel_stats = run_morsel(
                        plan,
                        self.graph,
                        batch_size,
                        lo,
                        hi,
                        runtime=runtime,
                        clock=self.clock,
                        count_only=count_only,
                    )
                    recovered = True
                if recovered:
                    merged.morsels_recovered += 1
                merged.add(morsel_stats)
                if runtime is not None:
                    runtime.check(merged)
                yield from batches
        except (QueryTimeoutError, QueryCancelledError) as exc:
            # Whatever check point raised (a morsel-local context, a
            # backend's polled wait), the caller should see the merged
            # partial stats of the work already consumed.
            exc.stats = merged
            if runtime is not None:
                runtime.request_abort()
            raise
        finally:
            try:
                backend.close()
            finally:
                if owned:
                    backend.shutdown()
