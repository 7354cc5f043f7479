"""The top-level database facade.

:class:`Database` wires the pieces together the way GraphflowDB does in the
paper: a property graph, the primary A+ indexes, the INDEX STORE with any
secondary indexes, the DP optimizer, and the batch executor.  It also applies
the index DDL commands (``RECONFIGURE PRIMARY INDEXES``, ``CREATE 1-HOP
VIEW``, ``CREATE 2-HOP VIEW``).

Example:
    >>> from repro import Database
    >>> from repro.graph import running_example_graph
    >>> db = Database(running_example_graph())
    >>> db.execute_ddl(
    ...     "CREATE 1-HOP VIEW UsdWires "
    ...     "MATCH vs-[eadj:Wire]->vd WHERE eadj.currency = USD "
    ...     "INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID"
    ... )
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import DDLParseError, ExecutionError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction
from ..index.config import IndexConfig
from ..index.ddl import (
    CreateOneHopCommand,
    CreateTwoHopCommand,
    ReconfigurePrimaryCommand,
    parse_ddl,
)
from ..index.edge_partitioned import EdgePartitionedIndex
from ..index.index_store import IndexStore
from ..index.maintenance import IndexMaintainer
from ..index.primary import PrimaryIndex, ReconfigurationResult
from ..index.vertex_partitioned import VertexPartitionedIndex
from ..index.views import OneHopView, TwoHopView
from ..storage.memory import MemoryReport
from .backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DEFAULT_BACKEND,
    MORSEL_TIMEOUT_ENV_VAR,
    MorselBackend,
    resolve_backend,
)
from . import executor as executor_module
from .executor import (
    Executor,
    MorselExecutor,
    QueryResult,
    effective_workers,
)
from .faults import FAULTS_ENV_VAR
from .optimizer import Optimizer
from .pattern import QueryGraph
from .pipeline import validate_limit
from .plan import QueryPlan
from .plan_cache import DEFAULT_PLAN_CACHE_CAPACITY, PlanCache
from .runtime import CancellationToken


@dataclass
class IndexCreationResult:
    """Outcome of creating one or more secondary indexes."""

    names: List[str]
    seconds: float
    indexed_edges: int


#: Environment variable supplying the default worker count of ``Database.run``
#: (used by CI to push the whole test suite through the parallel path).
PARALLELISM_ENV_VAR = "REPRO_PARALLELISM"


class Database:
    """An in-memory GDBMS instance with a tunable A+ indexing subsystem.

    Parallel execution
    ------------------

    ``run``/``count`` accept a ``parallelism`` worker count and a morsel
    dispatch ``backend``.  With the default ``parallelism=1`` the plan runs
    on the serial batch :class:`~repro.query.executor.Executor` — the oracle
    path.  ``parallelism >= 2`` is a *ceiling*, not an order: a plan whose
    i-cost estimate is under
    :data:`~repro.query.executor.PARALLEL_MIN_ICOST` still runs inline on
    the calling thread (below that cost a pool measures slower than no
    pool; ``plan.describe()`` prints the verdict), and only a plan at or
    above it — or a hand-built one carrying no estimate — runs on the
    morsel-driven
    :class:`~repro.query.executor.MorselExecutor`: the scan's vertex domain
    is split into contiguous range morsels (degree-weighted by default, so
    each morsel carries ~equal adjacency work even on skewed graphs), the
    full operator pipeline runs per morsel on the selected backend —
    ``"thread"`` (default; numpy kernels release the GIL), ``"process"``
    (a ``multiprocessing`` pool with per-worker plan/graph rehydration,
    sidestepping the GIL entirely), or ``"serial"`` (inline, for debugging
    morsel bookkeeping) — and the per-morsel outputs are merged in
    ascending range order.  Every backend's result is byte-identical to the
    serial one — same match rows, same order, same
    :class:`~repro.query.operators.ExecutionStats` — so both knobs trade
    only wall-clock time, never semantics.  Per-instance defaults come from
    the constructor's ``parallelism``/``backend`` or, failing that, the
    ``REPRO_PARALLELISM``/``REPRO_BACKEND`` environment variables.

    Queries capture an atomic snapshot of the index store when planned, so
    running queries concurrently with an
    :class:`~repro.index.maintenance.IndexMaintainer` flush is safe: each
    query sees one complete store generation, never a partially merged index.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        primary_config: Optional[IndexConfig] = None,
        batch_size: int = 1024,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        plan_cache_capacity: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        self._primary = PrimaryIndex(graph, config=primary_config)
        self.store = IndexStore(graph, self._primary)
        self.batch_size = batch_size
        #: Default worker *ceiling* of run/count/collect/exists (``None``
        #: defers to ``$REPRO_PARALLELISM``, then 1): plans under
        #: ``PARALLEL_MIN_ICOST`` run inline whatever it says; construct a
        #: ``MorselExecutor`` to force dispatch.
        self.parallelism = parallelism
        self.backend = backend
        #: Memoized planning for QueryGraph submissions: an LRU keyed on
        #: (canonical fingerprint, store generation, planning knobs), so
        #: repeated hot patterns plan once per store generation and reuse
        #: the *same* pinned plan object (:mod:`repro.query.plan_cache`).
        #: ``plan_cache_capacity=0`` disables it.
        self.plan_cache = PlanCache(
            DEFAULT_PLAN_CACHE_CAPACITY
            if plan_cache_capacity is None
            else plan_cache_capacity
        )
        self.store.on_install = self.plan_cache.retire_before

    def _resolve_parallelism(self, parallelism: Optional[int]) -> int:
        """Requested worker ceiling: call arg > instance default > env > 1."""
        if parallelism is None:
            parallelism = self.parallelism
        if parallelism is None:
            raw = os.environ.get(PARALLELISM_ENV_VAR, "").strip()
            if raw:
                try:
                    parallelism = int(raw)
                except ValueError as exc:
                    raise ExecutionError(
                        f"${PARALLELISM_ENV_VAR} must be an integer worker "
                        f"count, got {raw!r}"
                    ) from exc
            else:
                parallelism = 1
        if parallelism < 1:
            raise ExecutionError(f"parallelism must be >= 1, got {parallelism}")
        return int(parallelism)

    def _resolve_backend(self, backend: Optional[str]) -> str:
        """Effective dispatch backend name: call arg > instance > env > thread.

        Only registry *names* are accepted here (each execution starts a
        backend of its own from the name and shuts it down after): a
        ``MorselBackend`` *instance* is stateful per-execute, and a shared
        ``Database`` runs queries concurrently, so one instance serving
        several in-flight queries would clobber its own query state.  The
        name is checked by :func:`~repro.query.backends.resolve_backend`.
        Callers who really want to supply an instance (custom backends,
        tests) construct a :class:`~repro.query.executor.MorselExecutor`
        directly and own its concurrency.
        """
        if backend is None:
            backend = self.backend
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
        if isinstance(backend, MorselBackend):
            raise ExecutionError(
                "Database accepts morsel backend *names* "
                f"({sorted(BACKENDS)}), not instances — a backend instance "
                "is stateful per-execute and cannot serve concurrent "
                "queries; build a MorselExecutor directly to use one"
            )
        backend = str(backend).strip().lower()
        resolve_backend(backend)
        return backend

    def _make_executor(
        self,
        graph: PropertyGraph,
        workers: int,
        backend: Optional[str] = None,
        plan: Optional[QueryPlan] = None,
        pool: Optional[MorselBackend] = None,
    ) -> Union[Executor, MorselExecutor]:
        """The executor a run of ``plan`` gets under a ``workers`` ceiling.

        ``workers == 1`` and a plan the cost gate keeps inline
        (:func:`~repro.query.executor.effective_workers`) get the direct
        serial :class:`~repro.query.executor.Executor`; anything else —
        including ``plan=None``, which has no estimate to gate on —
        gets the morsel dispatcher, on ``pool`` when the caller leased one
        (the server) and otherwise on a pool of its own named by
        ``backend``.  Rows in flight follow from the executor and the sink
        (:func:`~repro.query.executor.rows_in_flight`), never from here.
        """
        # Resolve (and thereby validate) the backend even on the serial
        # path, so a typo'd backend=/REPRO_BACKEND surfaces at the call
        # that configured it rather than when parallelism is later raised.
        backend = self._resolve_backend(backend)
        if workers == 1 or (
            plan is not None and effective_workers(plan, workers) == 1
        ):
            return Executor(graph, batch_size=self.batch_size)
        return MorselExecutor(
            graph,
            batch_size=self.batch_size,
            num_workers=workers,
            backend=backend if pool is None else pool,
        )

    def _plan_and_executor(
        self,
        query: Union[QueryGraph, QueryPlan],
        parallelism: Optional[int],
        backend: Optional[str],
    ) -> Tuple[QueryPlan, Union[Executor, MorselExecutor]]:
        """Resolve → pin → build: the shared head of run/count/collect/exists."""
        workers = self._resolve_parallelism(parallelism)
        plan, snapshot, _cache_hit = self._pinned_plan(query)
        return plan, self._make_executor(snapshot.graph, workers, backend, plan)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PropertyGraph:
        """The current graph (follows index maintenance merges)."""
        return self.store.graph

    @property
    def primary_index(self) -> PrimaryIndex:
        return self.store.primary

    def executor(
        self,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> Union[Executor, MorselExecutor]:
        """An executor over the current graph (parallel when workers > 1).

        The graph is read from one store snapshot; pair it with a plan
        produced against the same generation (as :meth:`run` does) when
        maintenance flushes may run concurrently.
        """
        return self._make_executor(
            self.store.snapshot().graph,
            self._resolve_parallelism(parallelism),
            backend,
        )

    def optimizer(self) -> Optimizer:
        return Optimizer(self.store)

    def maintainer(self, merge_threshold: int = 4096) -> IndexMaintainer:
        return IndexMaintainer(self.store, merge_threshold=merge_threshold)

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def reconfigure_primary(self, config: IndexConfig) -> ReconfigurationResult:
        """Rebuild the primary A+ indexes under a new configuration.

        The replacement primary is built off to the side and installed with
        one atomic store swap (like a maintenance flush), so a query racing
        the reconfiguration snapshots either the old or the new primary —
        never the forward index of one configuration paired with the
        backward index of the other.
        """
        state = self.store.state
        old_config = state.primary.config
        started = time.perf_counter()
        new_primary = PrimaryIndex(state.graph, config=config)
        self.store.install_state(
            graph=state.graph,
            primary=new_primary,
            statistics=state.statistics,
            vertex_indexes=state.vertex_indexes,
            edge_indexes=state.edge_indexes,
        )
        return ReconfigurationResult(
            old_config=old_config,
            new_config=config,
            seconds=time.perf_counter() - started,
        )

    def create_vertex_index(
        self,
        view: OneHopView,
        directions: Sequence[Direction] = (Direction.FORWARD,),
        config: Optional[IndexConfig] = None,
        name: Optional[str] = None,
    ) -> IndexCreationResult:
        """Create (and register) a secondary vertex-partitioned index."""
        config = config or IndexConfig.default()
        started = time.perf_counter()
        names: List[str] = []
        indexed = 0
        for direction in directions:
            index_name = name
            if index_name is not None and len(directions) > 1:
                index_name = f"{name}-{direction.value}"
            index = VertexPartitionedIndex(
                self.graph,
                view,
                direction,
                config,
                self.store.primary.for_direction(direction),
                name=index_name,
            )
            self.store.register_vertex_index(index)
            names.append(index.name)
            indexed += index.num_indexed_edges
        return IndexCreationResult(
            names=names, seconds=time.perf_counter() - started, indexed_edges=indexed
        )

    def create_edge_index(
        self,
        view: TwoHopView,
        config: Optional[IndexConfig] = None,
        name: Optional[str] = None,
    ) -> IndexCreationResult:
        """Create (and register) a secondary edge-partitioned index."""
        config = config or IndexConfig.default()
        started = time.perf_counter()
        index = EdgePartitionedIndex(self.graph, view, config, self.store.primary, name=name)
        self.store.register_edge_index(index)
        return IndexCreationResult(
            names=[index.name],
            seconds=time.perf_counter() - started,
            indexed_edges=index.num_indexed_edges,
        )

    def drop_index(self, name: str) -> None:
        self.store.drop_index(name)

    def execute_ddl(self, command: str):
        """Parse and apply one index DDL command.

        Returns the result object of the underlying operation
        (:class:`ReconfigurationResult` or :class:`IndexCreationResult`).
        """
        parsed = parse_ddl(command)
        if isinstance(parsed, ReconfigurePrimaryCommand):
            return self.reconfigure_primary(parsed.config)
        if isinstance(parsed, CreateOneHopCommand):
            return self.create_vertex_index(
                parsed.view, directions=parsed.directions, config=parsed.config
            )
        if isinstance(parsed, CreateTwoHopCommand):
            return self.create_edge_index(parsed.view, config=parsed.config)
        raise DDLParseError(f"unsupported DDL command: {command!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def plan(self, query: QueryGraph) -> QueryPlan:
        """Optimize a query into a physical plan (plan-cache aware).

        The plan is pinned to the store generation it was planned against
        (``plan.store_snapshot``): running it later — even after maintenance
        flushes — executes against that generation's graph, keeping the
        plan's index references and the executed graph coherent.

        Planning consults :attr:`plan_cache`: a structurally identical query
        already planned against the *current* store generation returns the
        same pinned plan object without re-running the optimizer.  Any store
        change (flush, reconfiguration, index DDL) bumps the generation, so
        the next ``plan`` of the pattern re-plans against the new state.
        """
        plan, _snapshot, _hit = self._pinned_plan(query)
        return plan

    def _pinned_plan(self, query: Union[QueryGraph, QueryPlan]):
        """Resolve (plan, snapshot, cache_hit) on one coherent generation.

        A concurrent maintenance flush must never be observed half-merged: a
        pre-built plan supplies the generation it was planned against (its
        legs reference that generation's indexes; executing it against a
        newer graph would mix edge IDs across flush remappings), otherwise
        the current generation is captured here and the plan cache consulted
        under it — a hit returns the entry's own pinned snapshot, which
        denotes the same immutable store state the key's generation does.
        Pre-built plans bypass the cache entirely (their pinned-replay
        semantics are the caller's explicit choice); ``cache_hit`` is False
        for them.
        """
        if isinstance(query, QueryPlan):
            plan = query
            snapshot = (
                plan.store_snapshot
                if plan.store_snapshot is not None
                else self.store.snapshot()
            )
            return plan, snapshot, False
        snapshot = self.store.snapshot()

        def _plan_fresh() -> QueryPlan:
            fresh = Optimizer(snapshot).optimize(query)
            fresh.store_snapshot = snapshot
            return fresh

        plan, hit = self.plan_cache.get_or_plan(
            query, snapshot.state.generation, _plan_fresh
        )
        if hit:
            snapshot = plan.store_snapshot
        return plan, snapshot, hit

    def run(
        self,
        query: Union[QueryGraph, QueryPlan],
        materialize: bool = False,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        factorized: Optional[bool] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Plan (if needed) and execute a query.

        Args:
            query: a query graph (planned here against an atomic store
                snapshot) or an already-built plan, which is executed against
                the generation pinned in its ``store_snapshot`` (its legs
                reference that generation's indexes; executing it against a
                newer graph would mix edge IDs across flush remappings).
            materialize: also collect the matches as dictionaries.
            parallelism: worker ceiling; ``1`` (the default) runs serially,
                ``>= 2`` allows the morsel-driven parallel executor — a plan
                under ``PARALLEL_MIN_ICOST`` still runs inline on the calling
                thread (construct a ``MorselExecutor`` to force dispatch).
                The output is byte-identical either way.
            backend: morsel dispatch backend for runs that do go parallel —
                ``"serial"``, ``"thread"`` (default), or ``"process"``.
                Output is byte-identical across backends.
            factorized: ``None``/``False`` runs the flat pipeline (the
                default — ``run`` keeps flat row semantics and stats);
                ``True`` runs the factorized count-only pipeline: the
                result's ``count`` and factorized stats
                (``combos_avoided``, ``segments_emitted``) are filled, no
                rows are materialized, and the plan must have a
                factorizable suffix (incompatible with ``materialize``).
            timeout: wall-clock budget in seconds; a query that exceeds it
                raises :class:`~repro.errors.QueryTimeoutError` (with the
                partial stats attached) at its next check point — between
                batches/morsels, or within one poll interval when a worker
                is stuck.  A finished run records the unused budget in
                ``result.stats.deadline_remaining``.
            cancel: a :class:`~repro.query.runtime.CancellationToken`;
                triggering it from any thread stops the query at its next
                check point with :class:`~repro.errors.QueryCancelledError`.
        """
        plan, executor = self._plan_and_executor(query, parallelism, backend)
        return executor.run(
            plan,
            materialize=materialize,
            factorized=factorized,
            timeout=timeout,
            cancel=cancel,
        )

    def count(
        self,
        query: Union[QueryGraph, QueryPlan],
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        factorized: Optional[bool] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> int:
        """Number of matches of a query (factorized when the plan allows).

        With the default ``factorized=None`` the count is computed with
        aggregate pushdown whenever the plan has a factorizable terminal
        suffix — trailing extension combinations stay unexpanded and the
        count is the per-row product of their cardinalities — and falls
        back to the flat pipeline otherwise.  ``factorized=False`` forces
        the flat oracle path; ``True`` requires a factorizable plan.  The
        returned count is identical on every path and backend.
        ``parallelism`` is a ceiling and ``timeout``/``cancel`` behave as in
        :meth:`run`.
        """
        plan, executor = self._plan_and_executor(query, parallelism, backend)
        return executor.count(
            plan, factorized=factorized, timeout=timeout, cancel=cancel
        )

    def collect(
        self,
        query: Union[QueryGraph, QueryPlan],
        limit: Optional[int] = None,
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> List[Dict[str, int]]:
        """Matches as dictionaries; ``limit`` short-circuits the pipeline.

        A ``limit`` drains through the streaming
        :class:`~repro.query.pipeline.LimitSink`: the pipeline halts as
        soon as the limit is reached — mid-batch, and when the run goes
        parallel (``parallelism`` is a ceiling, as in :meth:`run`)
        mid-morsel (no further morsel is dispatched) —
        while the returned prefix stays byte-identical to the unlimited
        run's first ``limit`` matches on every backend.  ``limit=None``
        is unlimited and ``limit=0`` a legal empty result; a negative
        limit raises :class:`~repro.errors.ExecutionError` (validated
        here like ``parallelism`` is, before any planning happens).
        ``timeout``/``cancel`` behave as in :meth:`run`.
        """
        validate_limit(limit)
        plan, executor = self._plan_and_executor(query, parallelism, backend)
        return executor.collect(
            plan, limit=limit, timeout=timeout, cancel=cancel
        )

    def exists(
        self,
        query: Union[QueryGraph, QueryPlan],
        parallelism: Optional[int] = None,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> bool:
        """Whether the query has any match (streaming, first-match early-out).

        Drains through :class:`~repro.query.pipeline.ExistsSink`: the
        first non-empty batch halts the pipeline and (when the run goes
        parallel) stops morsel dispatch, so nothing beyond the first match
        is ever computed.  ``parallelism`` is a ceiling and
        ``timeout``/``cancel`` behave as in :meth:`run`.
        """
        plan, executor = self._plan_and_executor(query, parallelism, backend)
        return executor.exists(
            plan, timeout=timeout, cancel=cancel
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def server(self, config=None):
        """An admission-controlled :class:`~repro.server.DatabaseServer`.

        The long-lived service shape of this database: persistent worker
        pools shared across queries, a bounded admission queue with a
        configurable overload policy, and graceful drain.  ``config`` is a
        :class:`~repro.server.ServerConfig` (defaults apply when omitted).
        Use as a context manager — exit drains::

            with db.server() as server:
                result = server.run(query, timeout=5.0)
        """
        from ..server import DatabaseServer

        return DatabaseServer(self, config)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def memory_report(self) -> MemoryReport:
        """Byte-accurate accounting of every index in the store."""
        report = MemoryReport()
        for breakdown in self.store.memory_breakdowns():
            report.add(breakdown)
        return report

    def describe(self) -> str:
        lines = [self.graph.describe(), self.store.describe()]
        default = self._resolve_parallelism(None)
        backend_name = self._resolve_backend(None)
        lines.append(
            "Pipeline (physical execution):\n"
            "  plans compile to Source -> [stages] -> Sink "
            "(repro.query.pipeline): a leading\n"
            "  vertex scan, extend-intersect / multi-extend / filter stages "
            "labelled\n"
            "  '0:scan', '1:extend', ... (plan.describe() lists the logical "
            "operators), and\n"
            "  a first-class push-style sink — CountSink, FlattenSink, or "
            "the streaming\n"
            "  LimitSink / ExistsSink that never materialize beyond need.  "
            "Halt semantics:\n"
            "  a sink's push() returning False stops the pipeline "
            "mid-stream, across\n"
            "  batches and across morsels — collect(limit=) and exists() "
            "stop dispatching\n"
            "  morsels once satisfied (stats.morsels_dispatched records how "
            "many went out).\n"
            "  Per-operator stats: every stage boundary is timed "
            "(injectable monotonic\n"
            "  clock); stats.operator_seconds maps stage labels to "
            "exclusive wall time\n"
            "  (summing to the pipeline total) and stats.operator_batches "
            "counts emitted\n"
            "  batches — on every backend, surviving the process workers' "
            "columnar stats\n"
            "  transport, and excluded from the byte-identity contract "
            "below."
        )
        lines.append(
            "Parallel execution:\n"
            f"  default parallelism: {default} "
            f"(constructor parallelism= or ${PARALLELISM_ENV_VAR}; "
            "run()/count() accept a per-query override)\n"
            f"  default backend: {backend_name} "
            f"(constructor backend= or ${BACKEND_ENV_VAR}; "
            f"available: {', '.join(sorted(BACKENDS))})\n"
            "  parallelism is a ceiling: a plan with i-cost < "
            f"{executor_module.PARALLEL_MIN_ICOST:,} runs inline on the "
            "calling\n"
            "  thread (no pool, morsels_dispatched == 0; plan.describe() "
            "prints 'execution:\n"
            "  inline — i-cost≈... < ...'); at or above it: "
            f"parallel ×{default} on {backend_name!r}.\n"
            "  parallelism=1 runs the serial batch executor (the oracle); "
            ">=2 allows the\n"
            "  morsel-driven dispatcher: the scan domain is cut into "
            "contiguous vertex-range\n"
            "  morsels (degree-weighted via the primary CSR offsets, so "
            "each morsel carries\n"
            "  ~equal adjacency work on skewed graphs), the full pipeline "
            "runs per morsel on\n"
            "  the selected backend — serial (inline), thread (GIL-releasing "
            "numpy kernels),\n"
            "  or process (multiprocessing pool: plan+graph rehydrated once "
            "per worker,\n"
            "  per-morsel task specs out, columnar numpy buffers back) — "
            "and outputs merge\n"
            "  in ascending range order.  Determinism contract: matches, "
            "order, and stats\n"
            "  are byte-identical to the serial run for every backend, "
            "morsel size,\n"
            "  and worker count."
        )
        lines.append(
            "Factorized execution (aggregate pushdown):\n"
            "  count() computes aggregate-only queries without expanding the "
            "combination\n"
            "  cross-product: when a plan ends in a run of vectorized "
            "extensions with no\n"
            "  post-predicates and no cross-dependencies (its factorizable "
            "suffix, reported\n"
            "  by plan.describe()), those operators emit per-row cardinality "
            "segments and\n"
            "  the count is the per-prefix-row product of segment sizes.  "
            "Opt out with\n"
            "  count(query, factorized=False) — the flat oracle path; "
            "run()/collect() stay\n"
            "  flat unless run(factorized=True) is requested.  Determinism "
            "contract: the\n"
            "  count is identical on every path, backend, and worker count; "
            "result.stats\n"
            "  reports combos_avoided (flat rows never materialized) and "
            "segments_emitted.\n"
            "  A sink that needs no rows (count) runs the suffix count-only: "
            "an\n"
            "  unfiltered extension reads two CSR offsets per row, a filtered "
            "one fetches\n"
            "  and filters once per distinct bound key of a batch, an "
            "intersection fetches\n"
            "  each distinct list once (plan.describe(): 'suffix counts per "
            "distinct key').\n"
            "  lists_accessed / list_entries_fetched stay logical — every "
            "row is charged\n"
            "  its own list, identically on every path — while lists_shared "
            "/ entries_shared\n"
            "  count the reads and entries the sharing did not repeat: "
            "logical minus shared\n"
            "  is what the storage layer gathered."
        )
        lines.append(
            "Robustness (fault-tolerant query runtime):\n"
            "  run()/count() accept timeout= (wall-clock seconds; raises "
            "QueryTimeoutError\n"
            "  with partial stats attached) and cancel= (a "
            "CancellationToken; trigger it\n"
            "  from any thread to raise QueryCancelledError).  Checks are "
            "cooperative —\n"
            "  between batches and between morsels — and the parallel "
            "backends poll their\n"
            "  blocking waits, so deadlines fire even while a worker is "
            "stuck.\n"
            "  The process backend recovers from worker crashes: a dead "
            "worker, a reply\n"
            "  missing past the per-morsel backstop "
            f"(${MORSEL_TIMEOUT_ENV_VAR}), or a reply\n"
            "  failing its checksum loses only that morsel, which is "
            "retried and finally\n"
            "  re-executed serially in-process — results stay "
            "byte-identical to a\n"
            "  fault-free run; stats.retries / stats.morsels_recovered "
            "record the recovery.\n"
            f"  Chaos knob: ${FAULTS_ENV_VAR} (kill@K | delay@K:SECS | "
            "corrupt@K | error@K,\n"
            "  '!' suffix = every attempt) injects deterministic faults "
            "for testing."
        )
        from ..server.admission import ServerConfig

        defaults = ServerConfig()
        lines.append(
            "Server (admission-controlled service mode):\n"
            "  db.server() wraps this database in a long-lived "
            "DatabaseServer: plans under\n"
            "  the cost gate run inline on their slot thread "
            "(ServerStats.inline), the rest\n"
            "  lease a worker pool (ServerStats.pooled): the same backends "
            "run() uses, kept\n"
            "  alive across queries per (backend, parallelism) instead of "
            "one per query, so\n"
            "  process workers keep their (plan id, store generation) "
            "payloads cached;\n"
            "  crashed pools are recycled behind a circuit breaker that "
            "degrades to inline\n"
            "  execution.  Bounded admission: max_concurrent "
            "execution slots,\n"
            "  a max_queue_depth queue, and a\n"
            f"  full-queue policy of 'reject' (typed ServerOverloadedError), "
            "'shed-oldest',\n"
            "  or 'block'.  Deadlines are fixed at submission, so queue "
            "wait spends the\n"
            "  query's own budget, and expired queued queries are shed "
            "without a slot.\n"
            "  drain() cancels queued queries, finishes running ones, and "
            "closes pools\n"
            "  leak-free.  Defaults: slots="
            f"{defaults.max_concurrent}, queue depth="
            f"{defaults.max_queue_depth}, policy={defaults.policy!r},\n"
            f"  breaker threshold={defaults.breaker_threshold} / cooldown="
            f"{defaults.breaker_cooldown:g}s.  Determinism contract: an\n"
            "  admitted query's result is byte-identical to a direct "
            "Database.run()."
        )
        cache_counters = self.plan_cache.stats.snapshot()
        lines.append(
            "Plan cache (canonical query fingerprints):\n"
            "  QueryGraph submissions are memoized: plan()/run()/count()/"
            "collect()/exists()\n"
            "  (and the server's submit()) consult an LRU keyed on (query "
            "fingerprint,\n"
            "  store generation, planning knobs).  The fingerprint is a "
            "canonical label of\n"
            "  the pattern — vertices, edges, labels, directions, "
            "predicates — so renaming\n"
            "  variables or reordering insertion hits the same entry; any "
            "store change\n"
            "  (maintenance flush, reconfiguration, index DDL) bumps the "
            "generation, which\n"
            "  invalidates for free: the next submission re-plans against "
            "the new state.\n"
            "  Hits return the *same* pinned plan object, so the server "
            "pools' payload\n"
            "  registry (keyed on plan identity) skips re-pickling too.  "
            "Pre-built\n"
            "  QueryPlan submissions bypass the cache (pinned-generation "
            "replay).\n"
            "  Determinism contract: a cache-hit execution is "
            "byte-identical to a\n"
            "  fresh-planned one on every backend.\n"
            f"  capacity: {self.plan_cache.capacity} entries "
            "(constructor plan_cache_capacity=; 0 disables), "
            f"current: {len(self.plan_cache)}\n"
            "  counters: "
            + ", ".join(f"{k}={v}" for k, v in cache_counters.items())
        )
        return "\n".join(lines)
