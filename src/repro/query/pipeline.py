"""The physical pipeline: ``Source → [PhysicalOperator...] → Sink``.

:class:`PipelineBuilder` compiles a :class:`~repro.query.plan.QueryPlan`
into a :class:`PhysicalPipeline` — an explicit source stage (the leading
:class:`~repro.query.operators.ScanVertices`), the chain of extension and
filter stages, and a first-class :class:`Sink` terminal.  This is the one
execution path: the inline :class:`~repro.query.executor.PlanRunner`, every
morsel backend (:mod:`repro.query.backends` — morsel bodies call
:func:`run_pipeline`, which compiles through the builder) run the same
pipeline objects.

Halt propagation
----------------

Sinks are *push*-style: :meth:`Sink.push` consumes one batch and returns
``True`` to keep the stream coming or ``False`` once the sink is satisfied
(a reached ``LIMIT``, a proven ``EXISTS``).  The halt signal propagates

* **across batches** — :meth:`Sink.drain` stops pulling the stage chain on
  the first ``False``, so upstream operators never produce a batch past the
  halt; and
* **across morsels** — the morsel dispatcher refills its in-flight window
  only while its consumer keeps pulling, so once a sink reports satisfied
  no further morsel is submitted to the backend
  (:meth:`~repro.query.executor.PlanRunner._dispatch`;
  ``ExecutionStats.morsels_dispatched`` records how many actually went
  out).  This is what makes ``collect(limit=)`` genuinely short-circuit
  instead of post-filtering a full run.

Merged rows in count-only pipelines
-----------------------------------

A count-only pipeline (``PipelineBuilder.build(count_only=True)``) is
list-based before its factorized suffix too: after each flat stage that is
one of the plan's merge points (:meth:`~repro.query.plan.QueryPlan
.merge_points`) the stage's output batches are projected onto the variables
later operators read and equal rows are merged into one row weighted by
their number (:func:`~repro.query.operators.merge_rows`, kept per batch
only when the rows repeat).  The next stage then reads one list per
distinct key, and every operator charges its logical counters by the row
weights, so they — and ``output_rows``/``combos_avoided`` — equal the
unmerged run's; the physical ``lists_shared``/``entries_shared`` record the
reads spared.  The merge runs inside the stage's timed region.  Flat
pipelines never merge: ``run``/``collect``/``exists`` and
``count(factorized=False)`` see every row.

Per-stage observability
-----------------------

Every stage boundary is timed with the context's injectable monotonic
clock (``ExecutionContext.clock``): ``ExecutionStats.operator_seconds``
maps stage labels (``"0:scan"``, ``"1:extend"``, ...) to *exclusive* wall
time — the time a ``next()`` on that stage spent excluding its upstream
stages — so the per-stage times of one pipeline sum to its total drive
time; ``operator_batches`` counts the batches each stage emitted.  Both
travel in the columnar stats envelope from process workers and merge
key-wise across morsels, and both are excluded from stats equality
(``compare=False``), keeping the cross-backend byte-identity contract on
the work counters intact.

The differential harness (``tests/test_pipeline_executor.py``) checks the
inline run's matches against the independent backtracking matcher
(:mod:`repro.query.naive`) and pins every backend's matches, their order
and the work-counter stats to the inline run.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ExecutionError
from .binding import MatchBatch
from .factorized import FactorizedBatch
from .operators import (
    ExecutionContext,
    ExecutionStats,
    ExtendIntersect,
    Filter,
    MultiExtend,
    ScanVertices,
    merge_rows,
)
from .plan import QueryPlan

#: Stage-label names per operator class (labels are ``"{index}:{name}"``).
OPERATOR_STAGE_NAMES = {
    ScanVertices: "scan",
    ExtendIntersect: "extend",
    MultiExtend: "multi-extend",
    Filter: "filter",
}


def stage_label(index: int, operator: object) -> str:
    """Deterministic label of plan operator ``index`` in stats/describe."""
    name = OPERATOR_STAGE_NAMES.get(type(operator))
    if name is None:  # pragma: no cover - defensive
        raise TypeError(f"unsupported operator {type(operator).__name__}")
    return f"{index}:{name}"


# ----------------------------------------------------------------------
# stage timing
# ----------------------------------------------------------------------
class _StageTicker:
    """Exclusive-time attribution across nested timed stages.

    Each timed region measures its total elapsed clock time and subtracts
    whatever nested timed regions accumulated inside it (``inner``), so a
    stage is charged only for its own work — and the charged times sum to
    the outermost region's elapsed time exactly, fake clocks included.
    """

    __slots__ = ("clock", "inner")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.inner = 0.0

    def timed_call(self, stats: ExecutionStats, label: str, fn, *args):
        """Run ``fn(*args)`` charging its exclusive time to ``label``."""
        started = self.clock()
        saved = self.inner
        self.inner = 0.0
        try:
            return fn(*args)
        finally:
            elapsed = self.clock() - started
            stats.record_stage(label, elapsed - self.inner, 1)
            self.inner = saved + elapsed


def _timed_stage(
    stream: Iterator, label: str, stats: ExecutionStats, ticker: _StageTicker
) -> Iterator:
    """Wrap a stage's output stream, charging exclusive time per ``next()``.

    The final (StopIteration) pull is charged too — tail work an operator
    does after its last batch still belongs to the stage — with no batch
    counted for it.
    """
    while True:
        started = ticker.clock()
        saved = ticker.inner
        ticker.inner = 0.0
        done = False
        try:
            item = next(stream)
        except StopIteration:
            done = True
        elapsed = ticker.clock() - started
        stats.record_stage(label, elapsed - ticker.inner, 0 if done else 1)
        ticker.inner = saved + elapsed
        if done:
            return
        yield item


def _merged(
    stream: Iterator[MatchBatch], names: Tuple[str, ...], context: ExecutionContext
) -> Iterator[MatchBatch]:
    """A merge point: every batch of ``stream`` merged on ``names``."""
    for batch in stream:
        yield merge_rows(batch, names, context)


def _runtime_checked(
    stream: Iterator[MatchBatch], context: ExecutionContext
) -> Iterator[MatchBatch]:
    """Interleave cooperative deadline/cancellation checks into a batch stream.

    Wrapped around the *scan* stream, so the check granularity is one scan
    batch of pipeline work even for plans whose later operators filter most
    batches away before they reach the output loop.
    """
    for batch in stream:
        context.check_runtime()
        yield batch


# ----------------------------------------------------------------------
# sinks: the first-class pipeline terminal
# ----------------------------------------------------------------------
class Sink:
    """Push-style terminal of a physical pipeline.

    ``push(item)`` consumes one batch (flat
    :class:`~repro.query.binding.MatchBatch` or
    :class:`~repro.query.factorized.FactorizedBatch`, sink permitting) and
    returns ``False`` once the sink needs no more input — the halt signal
    the pipeline driver and the morsel dispatcher propagate upstream.
    ``result()`` finalizes; ``satisfied`` reports whether the halt
    condition has been met without consuming anything.

    ``needs_rows`` declares what the sink reads of a factorized batch: a
    sink that only ever calls ``match_count()`` sets it to ``False``, and
    the runner then compiles the suffix count-only
    (``PipelineBuilder.build(count_only=True)``) — cardinalities without
    candidate arrays, computed once per distinct bound key.
    """

    name = "sink"
    needs_rows = True

    def push(self, item) -> bool:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError

    @property
    def satisfied(self) -> bool:
        return False

    def drain(self, stream: Iterable):
        """Push the whole ``stream`` (stopping early on halt) and finalize.

        An early halt closes the stream explicitly, so generator-backed
        pipelines run their cleanup (``finally: backend.close()`` in the
        morsel dispatcher) deterministically rather than at GC time.
        """
        try:
            for item in stream:
                if not self.push(item):
                    break
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        return self.result()


class CountSink(Sink):
    """Aggregate-only sink: accumulates the match count, never flat rows.

    Consumes either stream shape — flat :class:`~repro.query.binding
    .MatchBatch` batches (``len`` per batch) or
    :class:`~repro.query.factorized.FactorizedBatch` batches (per-row
    product of segment cardinalities, one multiply/sum pass per batch) —
    and produces the identical count for either, by the factorization
    contract.
    """

    name = "count"
    needs_rows = False

    def __init__(self) -> None:
        self.count = 0

    def push(self, item) -> bool:
        self.count += item.match_count()
        return True

    def result(self) -> int:
        return self.count


def validate_limit(limit: Optional[int]) -> Optional[int]:
    """Shared ``limit`` validation for every LIMIT entry point.

    ``None`` means unlimited and ``0`` is a legal empty result; anything
    negative raises a typed :class:`~repro.errors.ExecutionError` (the same
    contract as ``parallelism``/``timeout`` validation) instead of being
    silently swallowed into zero rows.  Used by ``Database.collect``,
    the executors' ``collect``, ``DatabaseServer.submit(mode="collect")``,
    and :class:`LimitSink` itself.
    """
    if limit is not None and limit < 0:
        raise ExecutionError(
            f"limit must be >= 0, got {limit} "
            "(limit=0 is a legal empty result; limit=None is unlimited)"
        )
    return limit


class FlattenSink(Sink):
    """Materializing sink: flat match dicts — the kept oracle representation.

    With a ``limit`` the sink halts as soon as the limit is reached
    *mid-batch*: only the needed rows of the final batch are converted, the
    ``push`` returns ``False``, and upstream operators never run past it
    (see :class:`LimitSink`, the streaming spelling of the same).
    """

    name = "flatten"

    def __init__(self, limit: Optional[int] = None) -> None:
        self.matches: List[Dict[str, int]] = []
        self.limit = limit

    def push(self, batch: MatchBatch) -> bool:
        if self.limit is None:
            self.matches.extend(batch.to_dicts())
            return True
        remaining = self.limit - len(self.matches)
        if remaining <= len(batch):
            self.matches.extend(batch.row(index) for index in range(remaining))
            return False
        self.matches.extend(batch.to_dicts())
        return True

    @property
    def satisfied(self) -> bool:
        return self.limit is not None and len(self.matches) >= self.limit

    def result(self) -> List[Dict[str, int]]:
        return self.matches


class LimitSink(FlattenSink):
    """Streaming ``LIMIT`` sink: exactly the first ``limit`` matches.

    Never materializes beyond need — the batch that crosses the limit
    contributes only its needed prefix rows, the halt propagates upstream
    immediately, and (under the morsel dispatcher) no further morsel is
    submitted once satisfied.
    """

    name = "limit"

    def __init__(self, limit: int) -> None:
        validate_limit(limit)
        super().__init__(limit=limit)


class ExistsSink(Sink):
    """Boolean sink: halts on the first non-empty batch, keeps no rows.

    Consumes either stream shape (``match_count`` is defined on both);
    ``result()`` is ``True`` iff any match exists.
    """

    name = "exists"

    def __init__(self) -> None:
        self.found = False

    def push(self, item) -> bool:
        if item.match_count() > 0:
            self.found = True
            return False
        return True

    @property
    def satisfied(self) -> bool:
        return self.found

    def result(self) -> bool:
        return self.found


# ----------------------------------------------------------------------
# the compiled pipeline
# ----------------------------------------------------------------------
class PipelineStage:
    """One labelled stage of a compiled pipeline.

    ``emit`` is set on suffix stages only: the bound method that turns a
    prefix batch into this operator's
    :class:`~repro.query.factorized.FactorizedSegment`.  ``merge`` is set
    on the flat stages of a count-only pipeline that are merge points
    (:meth:`~repro.query.plan.QueryPlan.merge_points`): the variables its
    output batches are merged on.
    """

    __slots__ = ("label", "operator", "emit", "merge")

    def __init__(
        self,
        label: str,
        operator: object,
        emit=None,
        merge: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.label = label
        self.operator = operator
        self.emit = emit
        self.merge = merge

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PipelineStage({self.label!r}, {type(self.operator).__name__})"


class PhysicalPipeline:
    """A compiled ``Source → stages → (optional factorized suffix)`` chain.

    Built by :class:`PipelineBuilder`; stateless across runs (stages share
    the plan's immutable operators), so one pipeline object can drive any
    number of contexts — including the morsel case, where every morsel body
    compiles an identical pipeline around its range-restricted scan clone.

    :meth:`stream` lazily yields output batches under a context, timing
    every stage boundary.
    """

    def __init__(
        self,
        plan: QueryPlan,
        source: PipelineStage,
        stages: Tuple[PipelineStage, ...],
        suffix: Tuple[PipelineStage, ...] = (),
    ) -> None:
        self.plan = plan
        self.source = source
        self.stages = stages
        self.suffix = suffix

    @property
    def labels(self) -> List[str]:
        """Stage labels in pipeline order (keys of ``operator_seconds``)."""
        return [self.source.label] + [
            stage.label for stage in self.stages + self.suffix
        ]

    def describe(self) -> str:
        """One-line physical shape, e.g. ``0:scan → 1:extend → 2:filter``."""
        parts = [self.source.label]
        parts.extend(stage.label for stage in self.stages)
        if self.suffix:
            suffix = ", ".join(stage.label for stage in self.suffix)
            parts.append(f"[factorized suffix: {suffix}]")
        return " → ".join(parts)

    def _seed_stats(self, stats: ExecutionStats) -> None:
        # Every stage is present in the observability maps even when it
        # never emits (empty morsel, early halt) — "timings present for
        # every stage" is part of the observability contract.
        for label in self.labels:
            stats.operator_seconds.setdefault(label, 0.0)
            stats.operator_batches.setdefault(label, 0)

    def _compose(
        self, context: ExecutionContext, ticker: _StageTicker
    ) -> Iterator[MatchBatch]:
        """The timed stage chain up to (excluding) the factorized suffix."""
        scan = self.source.operator
        stream: Iterator[MatchBatch] = _timed_stage(
            scan.execute(context), self.source.label, context.stats, ticker
        )
        if context.runtime is not None:
            stream = _runtime_checked(stream, context)
        for stage in self.stages:
            stream = stage.operator.execute(stream, context)
            if stage.merge is not None:
                stream = _merged(stream, stage.merge, context)
            stream = _timed_stage(stream, stage.label, context.stats, ticker)
        return stream

    def stream(self, context: ExecutionContext) -> Iterator:
        """Yield the pipeline's output batches under ``context``.

        Flat pipelines yield :class:`~repro.query.binding.MatchBatch`;
        factorized ones yield
        :class:`~repro.query.factorized.FactorizedBatch` (flat prefix plus
        unexpanded suffix segments).  Runtime guardrails are checked
        between batches exactly as the pre-pipeline executor did.
        """
        ticker = _StageTicker(context.clock)
        self._seed_stats(context.stats)
        stream = self._compose(context, ticker)
        if not self.suffix:
            for batch in stream:
                context.check_runtime()
                context.stats.output_rows += len(batch)
                yield batch
            return
        for batch in stream:
            context.check_runtime()
            if len(batch) == 0:
                continue
            segments = tuple(
                ticker.timed_call(
                    context.stats, stage.label, stage.emit, batch, context
                )
                for stage in self.suffix
            )
            factorized = FactorizedBatch(prefix=batch, segments=segments)
            context.stats.output_rows += factorized.match_count()
            context.stats.combos_avoided += factorized.flat_rows_avoided()
            context.stats.segments_emitted += len(segments)
            yield factorized


class PipelineBuilder:
    """Compiles a :class:`~repro.query.plan.QueryPlan` into a pipeline.

    Validates the physical shape once — a leading
    :class:`~repro.query.operators.ScanVertices` source followed by
    extension/filter stages — and assigns the deterministic stage labels
    under which per-stage times are reported.
    """

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan

    def _suffix_emitter(self, operator: object):
        """How a suffix operator turns a prefix batch into its segment.

        An E/I counts with the plan's static verdict on whether its keys can
        repeat bound in at compile time; a MULTI-EXTEND's segments are
        count-only as they are.
        """
        if isinstance(operator, ExtendIntersect):
            return partial(
                operator.count_factorized,
                keys_may_repeat=self.plan.suffix_keys_may_repeat(operator),
            )
        return operator.extend_factorized

    def build(
        self,
        scan: Optional[ScanVertices] = None,
        count_only: bool = False,
    ) -> PhysicalPipeline:
        """Compile the plan; ``scan`` optionally replaces the source.

        The morsel dispatcher passes a range-restricted scan clone; the
        remaining operators are shared as-is (stateless between calls).
        ``count_only=True`` is for sinks that declare ``needs_rows =
        False``: it splits the plan at ``plan.factorized_suffix_start()``
        into flat stages plus a suffix whose segments carry cardinalities
        only, raising :class:`~repro.errors.ExecutionError` for plans
        without a factorizable suffix.
        """
        plan = self.plan
        lead = scan if scan is not None else plan.operators[0]
        if not isinstance(lead, ScanVertices):
            raise TypeError(
                f"pipeline source must be ScanVertices, got {type(lead).__name__}"
            )
        suffix_start = len(plan.operators)
        merges = {}
        if count_only:
            suffix_start = plan.factorized_suffix_start()
            if suffix_start >= len(plan.operators):
                raise ExecutionError(
                    f"plan for {plan.query.name!r} has no factorizable suffix; "
                    "use the flat pipeline"
                )
            merges = plan.merge_points()
        source = PipelineStage(stage_label(0, lead), lead)
        stages = []
        for index, operator in enumerate(plan.operators[1:suffix_start], start=1):
            if not isinstance(operator, (ExtendIntersect, MultiExtend, Filter)):
                raise TypeError(
                    f"unsupported operator {type(operator).__name__}"
                )
            stages.append(
                PipelineStage(
                    stage_label(index, operator), operator, merge=merges.get(index)
                )
            )
        suffix = tuple(
            PipelineStage(
                stage_label(index, operator),
                operator,
                self._suffix_emitter(operator),
            )
            for index, operator in enumerate(
                plan.operators[suffix_start:], start=suffix_start
            )
        )
        return PhysicalPipeline(plan, source, tuple(stages), suffix)


# ----------------------------------------------------------------------
# the morsel-body entry points (all backends route through these)
# ----------------------------------------------------------------------
def run_pipeline(
    plan: QueryPlan,
    context: ExecutionContext,
    scan: Optional[ScanVertices] = None,
    count_only: bool = False,
) -> Iterator:
    """Drive the plan's compiled pipeline under ``context``.

    ``scan`` optionally replaces the plan's leading scan operator (the
    morsel dispatcher substitutes a range-restricted clone).  When the
    context carries a :class:`~repro.query.runtime.QueryContext`, the
    deadline and cancellation token are checked between batches, raising
    :class:`~repro.errors.QueryTimeoutError` /
    :class:`~repro.errors.QueryCancelledError` mid-stream.

    ``count_only=True`` runs the operators before
    ``plan.factorized_suffix_start()`` flat and hands each prefix batch to
    every suffix operator once, yielding
    :class:`~repro.query.factorized.FactorizedBatch` objects — one
    cardinality segment per suffix operator instead of the combination
    cross-product.  ``output_rows`` still advances by the represented match
    count, so the counter means the same thing on both streams;
    ``combos_avoided``/``segments_emitted`` record what the flat stream
    would have materialized.
    """
    pipeline = PipelineBuilder(plan).build(scan=scan, count_only=count_only)
    yield from pipeline.stream(context)

