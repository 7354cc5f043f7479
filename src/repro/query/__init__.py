"""Query processing: patterns, predicates, operators, optimizer, executor.

Physical pipeline
-----------------

Plans execute through an explicit physical pipeline
(:mod:`repro.query.pipeline`): :class:`~repro.query.pipeline
.PipelineBuilder` compiles a :class:`~repro.query.plan.QueryPlan` into
``Source → [stages...] → Sink``.  Sinks are first-class and push-style —
:class:`~repro.query.pipeline.CountSink`, :class:`~repro.query.pipeline
.FlattenSink`, and the streaming :class:`~repro.query.pipeline.LimitSink` /
:class:`~repro.query.pipeline.ExistsSink` — and a sink's halt signal
(``push`` returning ``False``) propagates across batches *and* across
morsels, so ``collect(limit=)`` / ``exists()`` genuinely short-circuit:
upstream operators stop mid-stream and the morsel dispatcher stops handing
out morsels (observable as ``ExecutionStats.morsels_dispatched``).  Every
stage boundary is timed with an injectable monotonic clock
(``ExecutionStats.operator_seconds`` / ``operator_batches``); the timing
fields are excluded from the byte-identity contract below.

Parallel execution
------------------

Query execution is serial by default and parallel on request:
``Database.run(query, parallelism=N)`` (or the ``REPRO_PARALLELISM``
environment variable, or ``Database(..., parallelism=N)``) allows up to ``N``
workers: ``N`` is a ceiling, and a plan whose i-cost estimate is under
:data:`~repro.query.executor.PARALLEL_MIN_ICOST` still runs inline on the
calling thread, because below that cost a pool measures slower than no pool
(``plan.describe()`` prints the verdict).  A plan at or above it is dispatched
to the morsel-driven :class:`~repro.query.executor.MorselExecutor` when
``N >= 2``.  The scan's vertex domain is split into contiguous range morsels
— degree-weighted by default (:mod:`repro.query.morsels` prefix-sums the
primary CSR offsets so each morsel carries ~equal adjacency work, which is
what balances Zipf-skewed graphs); each morsel runs the *entire* operator
pipeline — scan, extend/intersect, multi-extend, filter — on a pluggable
:class:`~repro.query.backends.MorselBackend` (``backend=`` /
``REPRO_BACKEND``): ``thread`` (default; the numpy batch kernels release the
GIL), ``process`` (a ``multiprocessing`` pool — picklable morsel task specs
out, columnar numpy buffers back, plan/graph rehydrated once per worker —
sidestepping the GIL for CPU-bound plans), or ``serial`` (inline, the
morsel-bookkeeping debug path).  The per-morsel outputs are merged in
ascending range order.  How many rows a batch carries in flight is one rule,
:func:`~repro.query.executor.rows_in_flight`, decided by the sink: a run
whose sink needs rows coalesces two serial-sized batches per kernel call
inside a morsel (one on every inline run), and a count-only run
(``count()``, ``run(factorized=True)``) carries
:data:`~repro.query.executor.COUNT_ONLY_COALESCE` of them on every runner.

**Determinism guarantee:** for any ``parallelism``, backend, morsel size,
and rows in flight, the produced matches, their order, and the execution
statistics are byte-identical to the serial run (``parallelism=1``, which
is kept as the oracle).  This holds because every operator emits output
rows in input-row order and the batch kernels are row-segmented, so batch
and morsel boundaries can never change *what* is produced, only how it is
grouped into batches in flight.

Fault-tolerant runtime
----------------------

``Database.run/count(timeout=..., cancel=...)`` arm per-query guardrails: a
wall-clock deadline and a cooperative :class:`~repro.query.runtime
.CancellationToken`, checked between batches and between morsels (and
enforced against stuck workers by polled backend waits), raising
``QueryTimeoutError`` / ``QueryCancelledError`` with partial stats attached.
The process backend additionally survives worker crashes — dead workers,
hung morsels (``REPRO_MORSEL_TIMEOUT``), and checksum-failing replies are
retried and finally re-executed serially in-process, preserving the
byte-identical determinism contract (``stats.retries`` /
``stats.morsels_recovered`` record it).  :class:`~repro.query.faults
.FaultPlan` (or the ``REPRO_FAULTS`` environment variable) injects
deterministic faults for chaos testing.
"""

from .backends import (
    BACKENDS,
    MorselBackend,
    MorselTaskSpec,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerPayload,
    reply_checksum,
)
from .binding import MatchBatch, concat_batches
from .engine import Database, IndexCreationResult
from .executor import Executor, MorselExecutor, QueryResult
from .factorized import FactorizedBatch, FactorizedSegment
from .pipeline import (
    CountSink,
    ExistsSink,
    FlattenSink,
    LimitSink,
    PhysicalPipeline,
    PipelineBuilder,
    Sink,
    run_pipeline,
    run_pipeline_legacy,
    validate_limit,
)
from .faults import FaultPlan
from .morsels import degree_weighted_ranges, even_ranges, ranges_of_size
from .runtime import CancellationToken, QueryContext
from .naive import NaiveMatcher
from .operators import (
    ExecutionContext,
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    ScanVertices,
    SortedRangeFilter,
)
from .optimizer import CostModel, Optimizer
from .pattern import QueryEdge, QueryGraph, QueryVertex
from .plan import QueryPlan
from .plan_cache import DEFAULT_PLAN_CACHE_CAPACITY, PlanCache, PlanCacheStats
from ..predicates import (
    CompareOp,
    Comparison,
    Constant,
    Predicate,
    PropertyRef,
    cmp,
    comparison_subsumes,
    const,
    predicate_subsumes,
    prop,
    residual_conjuncts,
)

__all__ = [
    "BACKENDS",
    "CancellationToken",
    "CompareOp",
    "Comparison",
    "Constant",
    "CostModel",
    "CountSink",
    "Database",
    "FaultPlan",
    "QueryContext",
    "ExecutionContext",
    "ExecutionStats",
    "ExistsSink",
    "Executor",
    "ExtendIntersect",
    "ExtensionLeg",
    "FactorizedBatch",
    "FactorizedSegment",
    "Filter",
    "FlattenSink",
    "IndexCreationResult",
    "LimitSink",
    "MatchBatch",
    "MorselBackend",
    "MorselExecutor",
    "MorselTaskSpec",
    "MultiExtend",
    "NaiveMatcher",
    "Optimizer",
    "PhysicalPipeline",
    "PipelineBuilder",
    "PlanCache",
    "PlanCacheStats",
    "Predicate",
    "ProcessBackend",
    "PropertyRef",
    "QueryEdge",
    "QueryGraph",
    "QueryPlan",
    "QueryResult",
    "QueryVertex",
    "ScanVertices",
    "SerialBackend",
    "Sink",
    "SortedRangeFilter",
    "ThreadBackend",
    "WorkerPayload",
    "cmp",
    "comparison_subsumes",
    "concat_batches",
    "const",
    "degree_weighted_ranges",
    "even_ranges",
    "predicate_subsumes",
    "prop",
    "ranges_of_size",
    "reply_checksum",
    "residual_conjuncts",
    "run_pipeline",
    "validate_limit",
    "run_pipeline_legacy",
]
