"""Physical operators of the GraphflowDB-style query processor.

The executor evaluates linear pipelines of the following operators
(Section IV-A of the paper):

* :class:`ScanVertices` — produce the initial single-variable matches.
* :class:`ExtendIntersect` (E/I) — extend partial matches by one query vertex
  by intersecting ``z >= 1`` adjacency lists sorted on neighbour IDs; with
  ``z = 1`` it degenerates to a simple extend.
* :class:`MultiExtend` — intersect adjacency lists sorted on a property other
  than neighbour ID and extend by one or more query vertices at once; also the
  operator through which edge-partitioned A+ indexes are read (a leg may be
  bound to an already-matched query *edge*).
* :class:`Filter` — evaluate residual predicates on fully bound variables.

Operators exchange :class:`~repro.query.binding.MatchBatch` objects.  Each
operator records how many adjacency lists and list entries it touched in the
:class:`ExecutionStats`, which is the empirical analogue of the optimizer's
i-cost metric.

Batch-at-a-time execution
-------------------------

The A+ index lookup is a constant number of array accesses, so on the hot
path the interpreter — not the index — dominates when lists are fetched one
partial match at a time.  The extension operators therefore default to a
*batch-at-a-time* strategy built on the batched index contract:

* every index class exposes ``list_many(bound_ids, key_values,
  sorted_filter)`` returning ``(edge_ids, nbr_ids, counts)`` — the
  concatenation of the addressed lists plus per-row lengths — backed by one
  :meth:`~repro.storage.csr.NestedCSR.gather` flat gather-index, or, under a
  sorted-range filter, by bisecting every list and gathering only the run
  the filter admits;
* :meth:`ExtensionLeg.fetch_many` fetches a whole batch through that API
  and applies the residual predicate vectorized over the concatenated
  candidates (bound columns repeated by counts);
* the single-leg :class:`ExtendIntersect` (the dominant plan shape) never
  enters a per-row loop: the extended batch is emitted with one ``repeat`` and
  one ``with_columns``;
* multi-leg E/I and :class:`MultiExtend` hand the whole batch's concatenated
  segments to the segment-wise intersection kernel
  (:func:`~repro.storage.intersect.intersect_segments`), which joins all legs
  on composite (row, key) keys in a handful of numpy ops — sort-merge,
  galloping binary search, or a hash-table probe, chosen adaptively — and
  returns per-combination entry positions through which the edge columns stay
  aligned with the intersected neighbours.  No per-row Python loop remains on
  any vectorized path.

For a sink that needs no rows the trailing extensions stay unexpanded and
run count-only (:meth:`ExtendIntersect.count_factorized`,
:meth:`MultiExtend.extend_factorized`): list lengths from the CSR offsets
(bisected under a sorted-range filter), and one fetch per *distinct* bound
key of the batch where keys repeat.  The logical counters charge every row
its own list on every one of these paths — a sorted list's searched run,
on the per-row path too.

``vectorized=False`` on the extension operators selects the legacy
tuple-at-a-time path; it is kept only as the equivalence oracle the
batch, logical-counter and pipeline differential tests compare against.
Both paths produce byte-identical batches and :class:`ExecutionStats`
counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..graph.graph import PropertyGraph
from ..index.index_store import AccessPath
from ..storage.csr import search_range, segment_mask_counts
from ..storage.intersect import (
    combo_positions,
    count_shared_intersections,
    dedup_sorted,
    intersect_segments,
)
from ..storage.sort_keys import SortKey
from .binding import DEFAULT_BATCH_SIZE, MatchBatch
from .factorized import FactorizedSegment, SharedKeys
from .pattern import QueryGraph
from ..predicates import CompareOp, Predicate


@dataclass
class ExecutionStats:
    """Counters accumulated while executing a plan.

    ``combos_avoided`` and ``segments_emitted`` advance only on the
    factorized execution path (:mod:`repro.query.factorized`):
    ``combos_avoided`` counts the rows the flat pipeline would have
    materialized for the factorized suffix (intermediate and output
    expansions included), ``segments_emitted`` the unexpanded extension
    segments produced in their stead.  ``output_rows`` stays the total
    match count on both paths.

    Every counter except ``segments_emitted`` is per-row accounting and is
    therefore identical across batch sizes, morsel cuts, backends and
    worker counts; ``segments_emitted`` advances once per (batch, suffix
    operator) pair, so it scales with how the prefix stream is batched —
    compare it only within one execution configuration.

    The fault-recovery counters advance only when the morsel runtime loses
    a worker: ``retries`` counts morsel failures the dispatcher handled
    (each failed attempt, whether the fix was a resubmission or the serial
    fallback) and ``morsels_recovered`` counts morsels whose merged result
    came from a recovery path rather than the first attempt.  Both stay 0
    on fault-free runs, so the cross-backend byte-identity contract on the
    work counters is untouched.  ``deadline_remaining`` is not a counter:
    the runner sets it once, after the query completes, to the wall-clock
    seconds left of a ``timeout=`` budget (``None`` when no deadline was
    requested; ``0.0`` on the partial stats attached to a
    :class:`~repro.errors.QueryTimeoutError`).

    The pipeline observability fields are deliberately excluded from
    equality (``compare=False``): per-stage wall-clock time and the number
    of morsels a dispatcher handed out are runtime artefacts that vary
    across backends, worker counts and early termination, while the work
    counters above are the byte-identity contract.  ``operator_seconds``
    maps a stage label (e.g. ``"0:scan"``, ``"1:extend"``) to the
    *exclusive* wall-clock seconds spent in that stage (child-stage time
    subtracted, so the per-stage times sum to the pipeline total);
    ``operator_batches`` counts the batches each stage emitted;
    ``morsels_dispatched`` counts the morsels the dispatcher actually
    submitted to workers — under ``collect(limit=)`` early termination this
    stays below the full domain's morsel count.

    ``lists_shared`` and ``entries_shared`` are the *physical* side of the
    logical ``lists_accessed``/``list_entries_fetched``: list reads and
    list entries a count-only suffix operator did **not** repeat because
    the rows of a batch shared their bound key (one read per distinct key,
    see :class:`~repro.query.factorized.SharedKeys`).  The logical counters
    keep charging every row its own list, so ``list_entries_fetched -
    entries_shared`` is what the storage layer actually gathered.  Sharing
    happens within a batch, so both depend on how the prefix stream is cut
    and are excluded from equality like the other runtime artefacts.
    """

    lists_accessed: int = 0
    list_entries_fetched: int = 0
    intermediate_rows: int = 0
    output_rows: int = 0
    predicate_evaluations: int = 0
    combos_avoided: int = 0
    segments_emitted: int = 0
    retries: int = 0
    morsels_recovered: int = 0
    deadline_remaining: Optional[float] = None
    morsels_dispatched: int = field(default=0, compare=False)
    lists_shared: int = field(default=0, compare=False)
    entries_shared: int = field(default=0, compare=False)
    operator_seconds: Dict[str, float] = field(default_factory=dict, compare=False)
    operator_batches: Dict[str, int] = field(default_factory=dict, compare=False)

    def record_stage(self, label: str, seconds: float, batches: int = 0) -> None:
        """Attribute ``seconds`` of exclusive wall time (and optionally
        emitted batches) to pipeline stage ``label``."""
        self.operator_seconds[label] = (
            self.operator_seconds.get(label, 0.0) + seconds
        )
        if batches:
            self.operator_batches[label] = (
                self.operator_batches.get(label, 0) + batches
            )

    def pipeline_seconds(self) -> float:
        """Total wall time attributed to pipeline stages (sum of the
        exclusive per-stage times)."""
        return sum(self.operator_seconds.values())

    def add(self, other: "ExecutionStats") -> None:
        """Accumulate another stats object (morsel-wise merge).

        Every counter is per-row accounting, so summing the per-morsel
        counters of a partitioned execution reproduces the serial totals
        exactly.  ``deadline_remaining`` is a query-level value set by the
        runner, not a morsel-wise sum, so it is left untouched.  The
        observability fields merge additively (stage times key-wise), which
        keeps per-stage attribution meaningful across morsels; on
        multi-worker backends the summed stage times measure aggregate CPU
        time, not wall clock.
        """
        self.lists_accessed += other.lists_accessed
        self.list_entries_fetched += other.list_entries_fetched
        self.intermediate_rows += other.intermediate_rows
        self.output_rows += other.output_rows
        self.predicate_evaluations += other.predicate_evaluations
        self.combos_avoided += other.combos_avoided
        self.segments_emitted += other.segments_emitted
        self.retries += other.retries
        self.morsels_recovered += other.morsels_recovered
        self.morsels_dispatched += other.morsels_dispatched
        self.lists_shared += other.lists_shared
        self.entries_shared += other.entries_shared
        for label, seconds in other.operator_seconds.items():
            self.operator_seconds[label] = (
                self.operator_seconds.get(label, 0.0) + seconds
            )
        for label, batches in other.operator_batches.items():
            self.operator_batches[label] = (
                self.operator_batches.get(label, 0) + batches
            )


@dataclass
class ExecutionContext:
    """Shared state available to every operator during execution.

    ``runtime`` is the per-query guardrail state
    (:class:`~repro.query.runtime.QueryContext`) or ``None`` for an
    unguarded query; the pipeline driver calls :meth:`check_runtime`
    between batches.  Process-pool morsel bodies always see ``None`` — the
    parent enforces their deadline from outside (see
    :mod:`repro.query.runtime`).
    """

    graph: PropertyGraph
    query: QueryGraph
    batch_size: int = DEFAULT_BATCH_SIZE
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    runtime: Optional[object] = None
    # Monotonic clock used for per-stage timing.  Injectable so tests can
    # drive the pipeline with a fake clock and assert exact attributions;
    # process-pool workers always use the default (callables do not ship
    # with the pickled payload).
    clock: Callable[[], float] = field(default=time.perf_counter)

    def variable_kind(self, name: str) -> str:
        return self.query.variable_kind(name)

    def check_runtime(self) -> None:
        """Raise timeout/cancellation if the query must stop; cheap no-op otherwise."""
        if self.runtime is not None:
            self.runtime.check(self.stats)


# ----------------------------------------------------------------------
# sorted-range filters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SortedRangeFilter:
    """A predicate applied via binary search on a sorted list.

    When the adjacency list addressed by a leg is sorted on a property that a
    constant comparison constrains (e.g. lists sorted on ``time`` and a
    ``time < alpha`` predicate), the qualifying prefix/suffix/run is located
    by bisection instead of evaluating the predicate on every edge: one list
    at a time by :meth:`apply` (``searchsorted`` on the materialized list),
    a whole batch by :meth:`search`, which every index's ``list_many`` and
    ``count_many`` call with the batch's CSR ranges when given the filter,
    so that only the searched runs are ever gathered or resolved.

    Attributes:
        sort_key: the property the list is sorted by.
        op: the comparison operator against the constant.
        value: the (already encoded) constant.
    """

    sort_key: SortKey
    op: CompareOp
    value: float

    def apply(
        self, graph: PropertyGraph, edge_ids: np.ndarray, nbr_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if len(edge_ids) == 0:
            return edge_ids, nbr_ids
        values = self.sort_key.values(graph, edge_ids, nbr_ids)
        if self.op is CompareOp.LT:
            end = int(np.searchsorted(values, self.value, side="left"))
            return edge_ids[:end], nbr_ids[:end]
        if self.op is CompareOp.LE:
            end = int(np.searchsorted(values, self.value, side="right"))
            return edge_ids[:end], nbr_ids[:end]
        if self.op is CompareOp.GT:
            start = int(np.searchsorted(values, self.value, side="right"))
            return edge_ids[start:], nbr_ids[start:]
        if self.op is CompareOp.GE:
            start = int(np.searchsorted(values, self.value, side="left"))
            return edge_ids[start:], nbr_ids[start:]
        if self.op is CompareOp.EQ:
            start = int(np.searchsorted(values, self.value, side="left"))
            end = int(np.searchsorted(values, self.value, side="right"))
            return edge_ids[start:end], nbr_ids[start:end]
        raise ExecutionError(f"sorted-range filter does not support {self.op}")

    def search(
        self,
        graph: PropertyGraph,
        starts: np.ndarray,
        ends: np.ndarray,
        ids_at: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`apply`: the ``[lo, hi)`` run this filter admits in
        every sorted position range ``[starts[i], ends[i])``.

        ``ids_at(rows, positions)`` returns the ``(edge_ids, nbr_ids)`` at
        one position of each listed row's range; the bisection
        (:func:`~repro.storage.csr.search_range`) asks it for one position
        per open row and round, so a list costs ``log2`` of its length in
        key reads whatever the filter's selectivity.
        """

        def keys_at(rows: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray]:
            return (self.sort_key.values(graph, *ids_at(rows, positions)),)

        return search_range(starts, ends, self.op, self.value, keys_at)


# ----------------------------------------------------------------------
# extension legs
# ----------------------------------------------------------------------
@dataclass
class ExtensionLeg:
    """One adjacency-list access inside an E/I or MULTI-EXTEND operator.

    Attributes:
        access_path: how the list is read (which index, which partition-key
            values, what the list is sorted by).
        bound_var: the already-bound query variable whose adjacency is read; a
            query vertex for vertex-partitioned paths, a query edge for
            edge-partitioned paths.
        target_var: the new query vertex this leg produces candidates for.
        edge_var: the query edge matched by this leg.
        track_edge: whether the matched edge ID must be bound in the output.
        sorted_filter: optional binary-search filter on the list's sort key.
        residual: remaining predicate (query-variable names) to evaluate on the
            candidates; may reference the new vertex/edge and any bound vars.
        presorted_by_nbr: True when the addressed list is already ordered by
            neighbour ID; legs of a multiway E/I that are not presorted are
            sorted by the operator (counted in its runtime), which models the
            penalty of intersecting lists whose index is not tuned for it.
    """

    access_path: AccessPath
    bound_var: str
    target_var: str
    edge_var: str
    track_edge: bool = False
    sorted_filter: Optional[SortedRangeFilter] = None
    residual: Predicate = field(default_factory=Predicate.true)
    presorted_by_nbr: bool = True

    def fetch(
        self,
        context: ExecutionContext,
        fixed: Dict[str, Tuple[str, int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read and filter this leg's adjacency list for one partial match."""
        bound_id = fixed[self.bound_var][1]
        edge_ids, nbr_ids = self.access_path.index.list(
            bound_id, list(self.access_path.key_values)
        )
        if self.sorted_filter is not None and len(edge_ids):
            edge_ids, nbr_ids = self.sorted_filter.apply(
                context.graph, edge_ids, nbr_ids
            )
        # The searched run is what a sorted list hands over (``fetch_many``
        # gathers nothing else), so the charge follows the search.
        context.stats.lists_accessed += 1
        context.stats.list_entries_fetched += len(edge_ids)
        if not self.residual.is_true and len(edge_ids):
            arrays = {
                self.target_var: ("vertex", nbr_ids),
                self.edge_var: ("edge", edge_ids),
            }
            context.stats.predicate_evaluations += len(edge_ids)
            mask = self.residual.evaluate_bulk(context.graph, fixed, arrays)
            edge_ids = edge_ids[mask]
            nbr_ids = nbr_ids[mask]
        return edge_ids, nbr_ids

    def fetch_many(
        self,
        context: ExecutionContext,
        batch: MatchBatch,
        weights: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`fetch`: read and filter the lists of a whole batch.

        Fetches the adjacency lists of every partial match in ``batch``
        through the index's ``list_many`` gather — which, given the
        sorted-range filter, bisects every list and gathers only the
        admitted runs — then evaluates the residual predicate in
        one ``evaluate_bulk`` over the concatenated candidates (bound columns
        repeated by counts).  Returns ``(edge_ids, nbr_ids, counts)`` equal to
        concatenating :meth:`fetch` over the rows; stats counters advance
        exactly as the per-row path would.

        ``weights`` says how many partial matches each row of ``batch``
        stands for when the caller fetches once per *distinct* key
        (:meth:`ExtendIntersect.count_factorized`): the logical counters
        then advance by what the per-row path would have charged all of
        them, and ``lists_shared``/``entries_shared`` record the difference.
        """
        stats = context.stats
        bound_ids = batch.column(self.bound_var)
        edge_ids, nbr_ids, counts = self.access_path.index.list_many(
            bound_ids, list(self.access_path.key_values), self.sorted_filter
        )
        if weights is None:
            stats.lists_accessed += len(bound_ids)
            stats.list_entries_fetched += len(edge_ids)
        else:
            lists = int(weights.sum())
            entries = int(counts @ weights)
            stats.lists_accessed += lists
            stats.list_entries_fetched += entries
            stats.lists_shared += lists - len(bound_ids)
            stats.entries_shared += entries - len(edge_ids)
        if not self.residual.is_true and len(edge_ids):
            arrays = {
                self.target_var: ("vertex", nbr_ids),
                self.edge_var: ("edge", edge_ids),
            }
            for name in self.residual.variables():
                if name not in arrays:
                    arrays[name] = (
                        context.variable_kind(name),
                        np.repeat(batch.column(name), counts),
                    )
            stats.predicate_evaluations += (
                len(edge_ids) if weights is None else int(counts @ weights)
            )
            mask = self.residual.evaluate_bulk(context.graph, {}, arrays)
            edge_ids = edge_ids[mask]
            nbr_ids = nbr_ids[mask]
            counts = segment_mask_counts(counts, mask)
        return edge_ids, nbr_ids, counts

    @property
    def is_unfiltered(self) -> bool:
        """True when every entry of the addressed list is a candidate."""
        return self.sorted_filter is None and self.residual.is_true

    def key_vars(self) -> Tuple[str, ...]:
        """The bound variables this leg's candidates are a function of.

        The bound variable, plus any other already-bound variable the
        residual mentions: ``b.city = d.city`` on a leg from ``c`` to ``d``
        keys on ``(c, b)``, while MF2's ``a3.city = a4.city`` on the leg
        from ``a3`` keys on ``a3`` alone.  Partial matches that agree on
        these read the same list and keep the same entries of it.
        """
        own = (self.bound_var, self.target_var, self.edge_var)
        return (self.bound_var,) + tuple(
            sorted(name for name in self.residual.variables() if name not in own)
        )

    def count_many(self, context: ExecutionContext, batch: MatchBatch) -> np.ndarray:
        """Per-row list lengths of a leg with no residual, from the offsets.

        What :meth:`fetch_many` returns as ``counts`` when no residual
        filters: the index's ``count_many`` reads two CSR offsets per row,
        bisects them under a sorted-range filter and counts ``hi - lo`` —
        no gather index, no ID array, no offset resolved past the probes.
        """
        counts = self.access_path.index.count_many(
            batch.column(self.bound_var),
            list(self.access_path.key_values),
            self.sorted_filter,
        )
        context.stats.lists_accessed += len(counts)
        context.stats.list_entries_fetched += int(counts.sum())
        return counts

    def describe(self) -> str:
        extras = []
        if self.sorted_filter is not None:
            extras.append(
                f"sorted {self.sorted_filter.sort_key.describe()} "
                f"{self.sorted_filter.op.value} {self.sorted_filter.value}"
            )
        if not self.residual.is_true:
            extras.append(f"filter[{self.residual.describe()}]")
        suffix = f" ({'; '.join(extras)})" if extras else ""
        return (
            f"{self.bound_var}-[{self.edge_var}]->{self.target_var} "
            f"via {self.access_path.describe()}{suffix}"
        )


def _intersect_leg_results(
    legs: Sequence[ExtensionLeg],
    results: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Intersect per-leg candidates on neighbour ID.

    Returns the extended neighbour IDs (with multiplicity from parallel edges)
    and, for legs that track their edge, the aligned edge-ID columns.  Edge
    combinations of parallel edges are expanded with vectorized segment
    arithmetic (:func:`~repro.storage.intersect.combo_positions`) rather than
    per-neighbour Python loops.
    """
    # Every leg's list is sorted on neighbour ID by the caller, so distinct
    # values come from a linear dedup and ``intersect1d`` may skip its
    # per-input sort (``assume_unique`` requires sorted *and* unique inputs —
    # parallel edges make the raw lists non-unique).
    common = dedup_sorted(results[0][1])
    for _, nbr_ids in results[1:]:
        if len(common) == 0:
            break
        common = np.intersect1d(common, dedup_sorted(nbr_ids), assume_unique=True)
    empty = np.empty(0, dtype=np.int64)
    if len(common) == 0:
        return empty, {leg.edge_var: empty.copy() for leg in legs if leg.track_edge}

    lefts: List[np.ndarray] = []
    sizes_per_leg: List[np.ndarray] = []
    multiplicity = np.ones(len(common), dtype=np.int64)
    for _, nbr_ids in results:
        left = np.searchsorted(nbr_ids, common, side="left").astype(np.int64)
        right = np.searchsorted(nbr_ids, common, side="right").astype(np.int64)
        lefts.append(left)
        sizes_per_leg.append(right - left)
        multiplicity *= sizes_per_leg[-1]
    out_nbrs = np.repeat(np.asarray(common, dtype=np.int64), multiplicity)

    if not any(leg.track_edge for leg in legs):
        return out_nbrs, {}

    positions, _ = combo_positions(lefts, sizes_per_leg, multiplicity)
    out_edges: Dict[str, np.ndarray] = {}
    for leg, (edge_ids, _), pos in zip(legs, results, positions):
        if leg.track_edge:
            out_edges[leg.edge_var] = np.asarray(edge_ids, dtype=np.int64)[pos]
    return out_nbrs, out_edges


def _unique_sorted_keys(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an already-sorted key array, without re-sorting.

    Linear dedup, plus collapsing a float NaN tail to a single candidate:
    ``dedup_sorted`` alone keeps every NaN (NaN != NaN), but each NaN
    candidate's ``searchsorted`` run bounds would span the *whole* NaN run,
    duplicating combinations — collapsing matches ``np.unique`` and keeps the
    oracle aligned with the kernel's one-code-per-NaN grouping.  Production
    plans never produce NaN keys (:meth:`SortKey.values` rewrites NaN to
    ``inf``); this exists so the oracle and the public kernel API agree on
    raw float input.
    """
    out = dedup_sorted(values)
    if out.dtype.kind == "f" and len(out) > 1:
        nan_count = int(np.isnan(out).sum())
        if nan_count > 1:
            out = out[: len(out) - nan_count + 1]
    return out


def _reconcile_combo_targets(
    legs: Sequence[ExtensionLeg],
    entries: Sequence[Tuple[np.ndarray, np.ndarray]],
    positions: Sequence[np.ndarray],
    total: int,
) -> Tuple[np.ndarray, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Materialize per-combination target/edge columns and the keep mask.

    ``entries`` supplies per leg the ``(edge_ids, nbr_ids)`` arrays that
    ``positions`` index into (one position per combination).  Legs sharing a
    target vertex must agree on the chosen neighbour; disagreeing
    combinations are masked out.  Shared by the batch kernel path and the
    per-row oracle of MULTI-EXTEND so their semantics cannot drift apart.
    """
    keep = np.ones(total, dtype=bool)
    combo_targets: Dict[str, np.ndarray] = {}
    combo_edges: Dict[str, np.ndarray] = {}
    for leg, (edge_ids, nbr_ids), pos in zip(legs, entries, positions):
        chosen_nbrs = np.asarray(nbr_ids, dtype=np.int64)[pos]
        if leg.target_var in combo_targets:
            keep &= combo_targets[leg.target_var] == chosen_nbrs
        else:
            combo_targets[leg.target_var] = chosen_nbrs
        if leg.track_edge:
            combo_edges[leg.edge_var] = np.asarray(edge_ids, dtype=np.int64)[pos]
    return keep, combo_targets, combo_edges


# ----------------------------------------------------------------------
# key sharing in the count-only suffix
# ----------------------------------------------------------------------
#: A count-only leg works per distinct key when a batch's rows repeat its
#: keys at least this often on average (distinct <= rows / 2); a multi-leg
#: intersection shares its lists when every leg does.  Under that, grouping
#: saves little and adds numpy calls.  At the count-only 8 k rows in flight
#: the social triangle's keys do repeat, and sharing them is most of
#: ``server_zipf``'s throughput: never sharing read 458 ops/s, p95 25 ms and
#: 83 MB peak against 829 ops/s, 12.6 ms and 54 MB; the one-hop beside it
#: pays 0.45 → 0.48 ms p50 in GIL hand-offs (3 passes each, 2 cores).  A
#: gate of 1 (share on any repeat) measured the same as 2 (844 ops/s,
#: 0.48 ms).
_SHARE_MIN_REPEAT = 2


def _leg_keys(
    leg: ExtensionLeg, batch: MatchBatch, context: ExecutionContext
) -> SharedKeys:
    """The distinct values of ``leg.key_vars()`` over ``batch``."""
    names = leg.key_vars()
    return SharedKeys(
        [batch.column(name) for name in names],
        [_key_domain(name, context) for name in names],
    )


def _key_domain(name: str, context: ExecutionContext) -> int:
    """Exclusive upper bound of a bound variable's IDs."""
    graph = context.graph
    if context.variable_kind(name) == "vertex":
        return graph.num_vertices
    return graph.num_edges


def _key_batch(leg: ExtensionLeg, keys: SharedKeys) -> MatchBatch:
    """One row per distinct key of ``leg``: what ``fetch_many`` reads."""
    return MatchBatch(dict(zip(leg.key_vars(), keys.columns())))


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
class PhysicalOperator:
    """Base class for physical operators (documentation/typing aid)."""

    def describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


#: Minimum vertex-domain chunk scanned at once (label test + predicate are
#: evaluated per chunk, so peak memory is O(chunk), not O(num_vertices)).
_SCAN_CHUNK_MIN = 4096


@dataclass
class ScanVertices(PhysicalOperator):
    """Produce the initial matches of one query vertex.

    The label restriction and the predicate are pushed down into the chunked
    scan: the vertex-ID domain is walked in fixed-size chunks, each chunk is
    label-tested and predicate-filtered vectorized, and survivors are packed
    into full ``batch_size`` batches — the full candidate set is never
    materialized at once.

    Attributes:
        var: the query vertex variable to bind.
        label: optional vertex label restriction.
        predicate: optional single-variable predicate (e.g. ``a1.ID < 50000``
            or ``a1.city = 'BOS'``), evaluated vectorized over the candidates.
        vertex_range: optional ``(start, stop)`` half-open sub-range of the
            vertex-ID domain to scan instead of the full domain.  This is how
            the morsel dispatcher assigns one contiguous vertex-range morsel
            to each worker: scanning ``(0, num_vertices)`` in one operator and
            scanning a partition of it across several operator copies produce
            the same candidates in the same order, so per-morsel pipelines
            concatenated in range order reproduce the serial output exactly.
    """

    var: str
    label: Optional[str] = None
    predicate: Predicate = field(default_factory=Predicate.true)
    vertex_range: Optional[Tuple[int, int]] = None

    def domain(self, graph: PropertyGraph) -> Tuple[int, int]:
        """The scanned ``[start, stop)`` vertex-ID range, clipped to the graph."""
        if self.vertex_range is None:
            return 0, graph.num_vertices
        start, stop = self.vertex_range
        start = max(int(start), 0)
        stop = min(int(stop), graph.num_vertices)
        return start, max(stop, start)

    def _candidate_chunks(
        self, graph: PropertyGraph, chunk_size: int
    ) -> Iterator[np.ndarray]:
        """Yield label-filtered candidate IDs one vertex-domain chunk at a time."""
        lo, hi = self.domain(graph)
        if self.label is not None:
            code = graph.schema.vertex_label_code(self.label)
            labels = graph.vertex_labels
            for start in range(lo, hi, chunk_size):
                window = labels[start : min(start + chunk_size, hi)]
                yield np.nonzero(window == code)[0].astype(np.int64) + start
        else:
            for start in range(lo, hi, chunk_size):
                end = min(start + chunk_size, hi)
                yield np.arange(start, end, dtype=np.int64)

    def execute(self, context: ExecutionContext) -> Iterator[MatchBatch]:
        graph = context.graph
        batch_size = context.batch_size
        chunk_size = max(batch_size, _SCAN_CHUNK_MIN)
        pending: List[np.ndarray] = []
        pending_rows = 0
        for candidates in self._candidate_chunks(graph, chunk_size):
            if not self.predicate.is_true and len(candidates):
                arrays = {self.var: ("vertex", candidates)}
                context.stats.predicate_evaluations += len(candidates)
                mask = self.predicate.evaluate_bulk(graph, {}, arrays)
                candidates = candidates[mask]
            if len(candidates) == 0:
                continue
            context.stats.intermediate_rows += len(candidates)
            pending.append(candidates)
            pending_rows += len(candidates)
            while pending_rows >= batch_size:
                buffered = pending[0] if len(pending) == 1 else np.concatenate(pending)
                yield MatchBatch.single_column(self.var, buffered[:batch_size])
                rest = buffered[batch_size:]
                pending = [rest] if len(rest) else []
                pending_rows = len(rest)
        if pending_rows:
            buffered = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield MatchBatch.single_column(self.var, buffered)

    def describe(self) -> str:
        label = f":{self.label}" if self.label else ""
        where = f" WHERE {self.predicate.describe()}" if not self.predicate.is_true else ""
        span = (
            f" RANGE [{self.vertex_range[0]}, {self.vertex_range[1]})"
            if self.vertex_range is not None
            else ""
        )
        return f"SCAN ({self.var}{label}){span}{where}"


@dataclass
class ExtendIntersect(PhysicalOperator):
    """EXTEND/INTERSECT: extend partial matches by one query vertex.

    With one leg the operator extends each partial match to every edge in the
    addressed adjacency list; with ``z >= 2`` legs it intersects the lists
    (which must be sorted on neighbour IDs) and extends to each vertex in the
    intersection — the building block of WCOJ plans.

    Attributes:
        target_var: the new query vertex bound by this operator.
        legs: the adjacency-list accesses to intersect.
        post_predicate: residual predicate evaluated (vectorized) on the
            extended batch, for conjuncts that reference the new vertex
            together with variables other than the legs' bound variables.
        vectorized: select the batch-at-a-time gather path (default).  The
            single-leg fast path extends a whole batch with no per-row Python
            loop; the multi-leg path prefetches every leg through ``list_many``
            and intersects the whole batch in one segment-kernel call.
            ``False`` selects the legacy tuple-at-a-time path (benchmark
            baseline / equivalence oracle).
    """

    target_var: str
    legs: List[ExtensionLeg]
    post_predicate: Predicate = field(default_factory=Predicate.true)
    vectorized: bool = True

    def execute(
        self, batches: Iterable[MatchBatch], context: ExecutionContext
    ) -> Iterator[MatchBatch]:
        for batch in batches:
            if len(batch) == 0:
                continue
            if not self.vectorized:
                extended = self._extend_rowwise(batch, context)
            elif len(self.legs) == 1:
                extended = self._extend_batch_single(batch, context)
            else:
                extended = self._extend_batch_multi(batch, context)
            if extended is None:
                continue
            context.stats.intermediate_rows += len(extended)

            if not self.post_predicate.is_true and len(extended):
                arrays = {
                    name: (context.variable_kind(name), extended.column(name))
                    for name in extended.variables
                }
                context.stats.predicate_evaluations += len(extended)
                mask = self.post_predicate.evaluate_bulk(context.graph, {}, arrays)
                extended = extended.select(mask)
            if len(extended):
                for chunk in extended.split(context.batch_size):
                    yield chunk

    # -- batch-at-a-time paths ------------------------------------------
    def _extend_batch_single(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> Optional[MatchBatch]:
        """Single-leg fast path: one gather, one repeat, no per-row loop."""
        leg = self.legs[0]
        edge_ids, nbr_ids, counts = leg.fetch_many(context, batch)
        if len(nbr_ids) == 0:
            return None
        new_columns = {self.target_var: nbr_ids}
        if leg.track_edge:
            new_columns[leg.edge_var] = edge_ids
        return batch.repeat(counts).with_columns(new_columns)

    def _extend_batch_multi(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> Optional[MatchBatch]:
        """Multi-leg path: batched fetch per leg, one kernel call per batch.

        All legs' concatenated ``list_many`` segments are intersected on
        composite (row, neighbour) keys by
        :func:`~repro.storage.intersect.intersect_segments`; per-combination
        positions returned by the kernel keep the tracked edge columns
        aligned with the intersected neighbours.
        """
        any_tracked = any(leg.track_edge for leg in self.legs)
        per_leg = [leg.fetch_many(context, batch) for leg in self.legs]
        result = intersect_segments(
            [nbr_ids for _, nbr_ids, _ in per_leg],
            [counts for _, _, counts in per_leg],
            num_rows=len(batch),
            presorted=[leg.presorted_by_nbr for leg in self.legs],
            need_positions=any_tracked,
        )
        if result.total == 0:
            return None
        new_columns = {self.target_var: result.expanded_keys()}
        if any_tracked:
            for leg, (edge_ids, _, _), pos in zip(
                self.legs, per_leg, result.positions
            ):
                if leg.track_edge:
                    new_columns[leg.edge_var] = np.asarray(
                        edge_ids, dtype=np.int64
                    )[pos]
        return batch.repeat(result.counts_out).with_columns(new_columns)

    # -- factorized emit path -------------------------------------------
    def extend_factorized(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> FactorizedSegment:
        """Emit a multi-leg intersection unexpanded, one count per row.

        Requires the vectorized path with a TRUE post-predicate — the plan
        analysis (:meth:`~repro.query.plan.QueryPlan.factorized_suffix_start`)
        guarantees both before routing a batch here.  The segment kernel runs
        with ``need_positions=False``, so the returned cardinalities equal,
        per prefix row, the number of rows the flat path would have
        materialized, with no expansion work.  This is the per-row path of
        :meth:`count_factorized`; single legs never reach it.
        """
        if not self.vectorized or not self.post_predicate.is_true:
            raise ExecutionError(
                "extend_factorized requires the vectorized path with a TRUE "
                "post-predicate; the plan's factorized-suffix analysis admits "
                "nothing else"
            )
        per_leg = [leg.fetch_many(context, batch) for leg in self.legs]
        result = intersect_segments(
            [nbr_ids for _, nbr_ids, _ in per_leg],
            [counts for _, _, counts in per_leg],
            num_rows=len(batch),
            presorted=[leg.presorted_by_nbr for leg in self.legs],
            need_positions=False,
        )
        return FactorizedSegment(
            target_vars=(self.target_var,), cardinalities=result.counts_out
        )

    # -- count-only emit path -------------------------------------------
    def count_factorized(
        self,
        batch: MatchBatch,
        context: ExecutionContext,
        keys_may_repeat: bool = True,
    ) -> FactorizedSegment:
        """This operator's extensions as per-row counts, for sinks that
        never look at a row.

        The cardinalities and logical stats of the flat extension, no
        candidate arrays — and the work is done once per *distinct* key
        where the batch repeats its keys:

        * a single leg with no residual is two CSR offsets per row, and
          ``hi - lo`` of their bisection under a sorted-range filter
          (:meth:`ExtensionLeg.count_many`);
        * a single leg with a residual fetches and filters one list per
          distinct value of :meth:`ExtensionLeg.key_vars` and broadcasts
          the counts;
        * a multi-leg intersection fetches and filters each leg once per
          distinct key, deduplicates the rows' key tuples and counts
          through
          :func:`~repro.storage.intersect.count_shared_intersections`.
          Legs that read the same lists (:meth:`_one_list_space`) are
          fetched once, over the union of their keys.

        ``keys_may_repeat=False`` is the plan's static verdict
        (:meth:`~repro.query.plan.QueryPlan.may_repeat`) that no two rows
        share a key: the per-row path then runs with not one call added.
        Otherwise one distinct count per leg and batch decides
        (``_SHARE_MIN_REPEAT``): every leg's keys have to repeat.
        """
        if len(self.legs) == 1:
            counts = self._count_single(batch, context, keys_may_repeat)
        else:
            counts = self._count_multi(batch, context, keys_may_repeat)
        return FactorizedSegment(target_vars=(self.target_var,), cardinalities=counts)

    def _count_single(
        self, batch: MatchBatch, context: ExecutionContext, keys_may_repeat: bool
    ) -> np.ndarray:
        leg = self.legs[0]
        if leg.residual.is_true:
            return leg.count_many(context, batch)
        keys = _leg_keys(leg, batch, context) if keys_may_repeat else None
        if keys is None or keys.distinct * _SHARE_MIN_REPEAT > len(batch):
            return leg.fetch_many(context, batch)[2]
        counts = leg.fetch_many(
            context, _key_batch(leg, keys), weights=keys.weights()
        )[2]
        return counts[keys.inverse()]

    def _count_multi(
        self, batch: MatchBatch, context: ExecutionContext, keys_may_repeat: bool
    ) -> np.ndarray:
        legs = self.legs
        leg_keys = (
            [_leg_keys(leg, batch, context) for leg in legs] if keys_may_repeat else None
        )
        if leg_keys is None or max(
            keys.distinct for keys in leg_keys
        ) * _SHARE_MIN_REPEAT > len(batch):
            return self.extend_factorized(batch, context).cardinalities
        if self._one_list_space():
            # One grouping of every leg's bound column: the union is fetched
            # once, charged for all legs' rows, and each leg's rows index it.
            first = legs[0]
            union = SharedKeys(
                [np.concatenate([batch.column(leg.bound_var) for leg in legs])],
                [_key_domain(first.bound_var, context)],
            )
            fetched = [
                first.fetch_many(
                    context, _key_batch(first, union), weights=union.weights()
                )
            ]
            tuples = SharedKeys(
                list(union.inverse().reshape(len(legs), len(batch))),
                [union.distinct] * len(legs),
            )
        else:
            fetched = [
                leg.fetch_many(context, _key_batch(leg, keys), weights=keys.weights())
                for leg, keys in zip(legs, leg_keys)
            ]
            tuples = SharedKeys(
                [keys.inverse() for keys in leg_keys],
                [keys.distinct for keys in leg_keys],
            )
        counts = count_shared_intersections(
            [nbr_ids for _, nbr_ids, _ in fetched],
            [counts for _, _, counts in fetched],
            tuples.columns(),
            presorted=[leg.presorted_by_nbr for leg in legs],
            domain=context.graph.num_vertices,
        )
        return counts[tuples.inverse()]

    def _one_list_space(self) -> bool:
        """True when every leg reads the same lists: one index object under
        one key-value prefix, no filter, neighbour-sorted (so no leg's
        lists differ from another's in content or order)."""
        first = self.legs[0].access_path
        return all(
            leg.access_path.index is first.index
            and tuple(leg.access_path.key_values) == tuple(first.key_values)
            and leg.is_unfiltered
            and leg.presorted_by_nbr
            for leg in self.legs
        )

    # -- legacy tuple-at-a-time path ------------------------------------
    def _extend_rowwise(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> Optional[MatchBatch]:
        """The seed per-row path: one ``index.list`` call per partial match."""
        tracked_vars = [leg.edge_var for leg in self.legs if leg.track_edge]
        columns = {name: batch.column(name) for name in batch.variables}
        kinds = {name: context.variable_kind(name) for name in batch.variables}
        counts = np.zeros(len(batch), dtype=np.int64)
        nbr_chunks: List[np.ndarray] = []
        edge_chunks: Dict[str, List[np.ndarray]] = {v: [] for v in tracked_vars}

        for row in range(len(batch)):
            fixed = {
                name: (kinds[name], int(columns[name][row])) for name in columns
            }
            results = []
            for leg in self.legs:
                edge_ids, nbr_ids = leg.fetch(context, fixed)
                if len(self.legs) > 1 and not leg.presorted_by_nbr and len(nbr_ids) > 1:
                    order = np.argsort(nbr_ids, kind="stable")
                    edge_ids = edge_ids[order]
                    nbr_ids = nbr_ids[order]
                results.append((edge_ids, nbr_ids))
            if len(self.legs) == 1:
                edge_ids, nbr_ids = results[0]
                counts[row] = len(nbr_ids)
                nbr_chunks.append(nbr_ids)
                if self.legs[0].track_edge:
                    edge_chunks[self.legs[0].edge_var].append(edge_ids)
            else:
                nbr_ids, edges = _intersect_leg_results(self.legs, results)
                counts[row] = len(nbr_ids)
                nbr_chunks.append(nbr_ids)
                for name in tracked_vars:
                    edge_chunks[name].append(
                        edges.get(name, np.empty(0, dtype=np.int64))
                    )

        if int(counts.sum()) == 0:
            return None
        new_columns = {self.target_var: np.concatenate(nbr_chunks)}
        for name in tracked_vars:
            new_columns[name] = np.concatenate(edge_chunks[name])
        return batch.repeat(counts).with_columns(new_columns)

    def describe(self) -> str:
        mode = "EXTEND" if len(self.legs) == 1 else f"E/I x{len(self.legs)}"
        legs = "; ".join(leg.describe() for leg in self.legs)
        post = (
            f" THEN FILTER {self.post_predicate.describe()}"
            if not self.post_predicate.is_true
            else ""
        )
        return f"{mode} -> {self.target_var} [{legs}]{post}"


@dataclass
class MultiExtend(PhysicalOperator):
    """MULTI-EXTEND: property-sorted intersection extending >= 1 query vertices.

    All legs' adjacency lists are sorted on the same property (the
    ``equality_key``); the operator joins them on equal property values,
    producing one output row per combination of entries that agree on the
    property (and, for legs sharing a target vertex, on the neighbour ID).
    This is how plans exploit lists sorted on e.g. ``city`` for predicates
    like ``a2.city = a4.city`` and how edge-partitioned lists participate in
    multiway intersections (Figure 6 of the paper).

    Attributes:
        legs: adjacency accesses; each leg carries its own target vertex.
        equality_key: the :class:`SortKey` the legs are sorted and joined on.
        post_predicate: residual predicate over the extended batch.
        vectorized: fetch all legs through the batched ``list_many`` API and
            join the whole batch on composite (row, key) keys in one
            segment-kernel call (default); ``False`` selects the legacy
            per-row fetch path.
    """

    legs: List[ExtensionLeg]
    equality_key: SortKey
    post_predicate: Predicate = field(default_factory=Predicate.true)
    vectorized: bool = True

    @property
    def target_vars(self) -> List[str]:
        seen = []
        for leg in self.legs:
            if leg.target_var not in seen:
                seen.append(leg.target_var)
        return seen

    def execute(
        self, batches: Iterable[MatchBatch], context: ExecutionContext
    ) -> Iterator[MatchBatch]:
        for batch in batches:
            if len(batch) == 0:
                continue
            if self.vectorized:
                extended = self._extend_batchwise(batch, context)
            else:
                extended = self._extend_rowwise(batch, context)
            if extended is None:
                continue
            context.stats.intermediate_rows += len(extended)

            if not self.post_predicate.is_true and len(extended):
                arrays = {
                    name: (context.variable_kind(name), extended.column(name))
                    for name in extended.variables
                }
                context.stats.predicate_evaluations += len(extended)
                mask = self.post_predicate.evaluate_bulk(context.graph, {}, arrays)
                extended = extended.select(mask)
            if len(extended):
                for chunk in extended.split(context.batch_size):
                    yield chunk

    # -- batch-at-a-time path -------------------------------------------
    def _extend_batchwise(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> Optional[MatchBatch]:
        """Fetch every leg for the whole batch, then join it in one kernel call.

        The equality-key values of all legs (floats and null markers
        included, via the kernel's rank encoding) are joined on composite
        (row, key) keys; legs sharing a target vertex are reconciled with one
        boolean mask over the expanded combinations.
        """
        graph = context.graph
        per_leg = []
        leg_keys = []
        leg_counts = []
        presorted = []
        for leg in self.legs:
            edge_ids, nbr_ids, counts = leg.fetch_many(context, batch)
            per_leg.append((edge_ids, nbr_ids))
            leg_keys.append(self.equality_key.values(graph, edge_ids, nbr_ids))
            leg_counts.append(counts)
            presorted.append(leg.access_path.sorted_by(self.equality_key))

        result = intersect_segments(
            leg_keys,
            leg_counts,
            num_rows=len(batch),
            presorted=presorted,
            need_positions=True,
        )
        if result.total == 0:
            return None

        keep, combo_targets, combo_edges = _reconcile_combo_targets(
            self.legs, per_leg, result.positions, result.total
        )
        if keep.all():
            # Common case (no shared-target legs): nothing to filter, reuse
            # the kernel's per-row counts and the combo columns as-is.
            counts_out = result.counts_out
            new_columns: Dict[str, np.ndarray] = dict(combo_targets)
            new_columns.update(combo_edges)
        else:
            counts_out = np.bincount(
                result.combo_rows()[keep], minlength=len(batch)
            ).astype(np.int64, copy=False)
            if int(counts_out.sum()) == 0:
                return None
            new_columns = {
                name: values[keep] for name, values in combo_targets.items()
            }
            for name, values in combo_edges.items():
                new_columns[name] = values[keep]
        return batch.repeat(counts_out).with_columns(new_columns)

    # -- factorized emit path -------------------------------------------
    def extend_factorized(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> FactorizedSegment:
        """Emit this operator's join combinations unexpanded (count-only).

        Requires the vectorized path, a TRUE post-predicate, and pairwise
        distinct target vertices (legs sharing a target need per-combination
        reconciliation, which only the flat path performs) — all guaranteed
        by the plan's factorized-suffix analysis.  With those preconditions
        the kernel's per-row combination counts *are* the flat expansion
        counts, so the join runs with ``need_positions=False`` and never
        materializes a combination.
        """
        if not self.vectorized or not self.post_predicate.is_true:
            raise ExecutionError(
                "extend_factorized requires the vectorized path with a TRUE "
                "post-predicate; the plan's factorized-suffix analysis admits "
                "nothing else"
            )
        if len(self.target_vars) != len(self.legs):
            raise ExecutionError(
                "factorized MULTI-EXTEND requires pairwise-distinct target "
                "vertices; shared-target legs must stay on the flat path"
            )
        graph = context.graph
        leg_keys = []
        leg_counts = []
        presorted = []
        for leg in self.legs:
            edge_ids, nbr_ids, counts = leg.fetch_many(context, batch)
            leg_keys.append(self.equality_key.values(graph, edge_ids, nbr_ids))
            leg_counts.append(counts)
            presorted.append(leg.access_path.sorted_by(self.equality_key))
        result = intersect_segments(
            leg_keys,
            leg_counts,
            num_rows=len(batch),
            presorted=presorted,
            need_positions=False,
        )
        return FactorizedSegment(
            target_vars=tuple(self.target_vars), cardinalities=result.counts_out
        )

    # -- legacy tuple-at-a-time path ------------------------------------
    def _extend_rowwise(
        self, batch: MatchBatch, context: ExecutionContext
    ) -> Optional[MatchBatch]:
        """The seed per-row path: fetch and join one partial match at a time."""
        tracked_vars = [leg.edge_var for leg in self.legs if leg.track_edge]
        target_vars = self.target_vars
        columns = {name: batch.column(name) for name in batch.variables}
        kinds = {name: context.variable_kind(name) for name in batch.variables}
        counts = np.zeros(len(batch), dtype=np.int64)
        target_chunks: Dict[str, List[np.ndarray]] = {v: [] for v in target_vars}
        edge_chunks: Dict[str, List[np.ndarray]] = {v: [] for v in tracked_vars}

        for row in range(len(batch)):
            fixed = {
                name: (kinds[name], int(columns[name][row])) for name in columns
            }
            row_targets, row_edges, produced = self._extend_row(context, fixed)
            counts[row] = produced
            for name in target_vars:
                target_chunks[name].append(row_targets[name])
            for name in tracked_vars:
                edge_chunks[name].append(row_edges[name])

        if int(counts.sum()) == 0:
            return None
        new_columns: Dict[str, np.ndarray] = {
            name: np.concatenate(target_chunks[name]) for name in target_vars
        }
        for name in tracked_vars:
            new_columns[name] = np.concatenate(edge_chunks[name])
        return batch.repeat(counts).with_columns(new_columns)

    def _extend_row(
        self, context: ExecutionContext, fixed: Dict[str, Tuple[str, int]]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
        """Join the legs on the equality key for one partial match."""
        graph = context.graph
        leg_entries = []
        for leg in self.legs:
            edge_ids, nbr_ids = leg.fetch(context, fixed)
            keys = self.equality_key.values(graph, edge_ids, nbr_ids)
            if len(keys) > 1 and not leg.access_path.sorted_by(self.equality_key):
                order = np.argsort(keys, kind="stable")
                edge_ids = edge_ids[order]
                nbr_ids = nbr_ids[order]
                keys = keys[order]
            leg_entries.append((edge_ids, nbr_ids, keys))
        return self._join_entries(leg_entries)

    def _join_entries(
        self, leg_entries: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
        """Join key-sorted leg entries on the equality key, vectorized.

        Combination expansion over equal-key runs uses
        :func:`~repro.storage.intersect.combo_positions`; legs sharing a
        target vertex are reconciled with one boolean mask instead of
        per-combination Python ints.
        """
        empty = np.empty(0, dtype=np.int64)
        targets: Dict[str, np.ndarray] = {v: empty.copy() for v in self.target_vars}
        edges: Dict[str, np.ndarray] = {
            leg.edge_var: empty.copy() for leg in self.legs if leg.track_edge
        }

        # Leg entries arrive key-sorted (callers sort unsorted legs), so the
        # linear dedup keeps them sorted-unique and ``intersect1d`` may skip
        # its per-input sort.
        common = _unique_sorted_keys(leg_entries[0][2])
        for _, _, keys in leg_entries[1:]:
            if len(common) == 0:
                break
            common = np.intersect1d(
                common, _unique_sorted_keys(keys), assume_unique=True
            )
        if len(common) == 0:
            return targets, edges, 0

        lefts: List[np.ndarray] = []
        sizes_per_leg: List[np.ndarray] = []
        multiplicity = np.ones(len(common), dtype=np.int64)
        for _, _, keys in leg_entries:
            left = np.searchsorted(keys, common, side="left").astype(np.int64)
            right = np.searchsorted(keys, common, side="right").astype(np.int64)
            lefts.append(left)
            sizes_per_leg.append(right - left)
            multiplicity *= sizes_per_leg[-1]
        positions, total = combo_positions(lefts, sizes_per_leg, multiplicity)
        if total == 0:
            return targets, edges, 0

        keep, combo_targets, combo_edges = _reconcile_combo_targets(
            self.legs,
            [(edge_ids, nbr_ids) for edge_ids, nbr_ids, _ in leg_entries],
            positions,
            total,
        )
        produced = int(keep.sum())
        for name, values in combo_targets.items():
            targets[name] = values[keep]
        for name, values in combo_edges.items():
            edges[name] = values[keep]
        return targets, edges, produced

    def describe(self) -> str:
        legs = "; ".join(leg.describe() for leg in self.legs)
        post = (
            f" THEN FILTER {self.post_predicate.describe()}"
            if not self.post_predicate.is_true
            else ""
        )
        return (
            f"MULTI-EXTEND on {self.equality_key.describe()} -> "
            f"{','.join(self.target_vars)} [{legs}]{post}"
        )


@dataclass
class Filter(PhysicalOperator):
    """Evaluate a predicate over fully bound variables of each partial match."""

    predicate: Predicate

    def execute(
        self, batches: Iterable[MatchBatch], context: ExecutionContext
    ) -> Iterator[MatchBatch]:
        for batch in batches:
            if len(batch) == 0:
                continue
            arrays = {
                name: (context.variable_kind(name), batch.column(name))
                for name in batch.variables
            }
            context.stats.predicate_evaluations += len(batch)
            mask = self.predicate.evaluate_bulk(context.graph, {}, arrays)
            filtered = batch.select(mask)
            if len(filtered):
                yield filtered

    def describe(self) -> str:
        return f"FILTER {self.predicate.describe()}"
