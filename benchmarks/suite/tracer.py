"""Span tracer for the benchmark's traced pass, installed from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` rebinds a
fixed list of layer-boundary callables — class attributes for methods, and
every ``repro.*`` module attribute holding the same function object for
module-level functions (the engine uses ``from ... import``) — to wrappers
that record one span per call; :meth:`Tracer.uninstall` restores every
original.  The untraced pass never constructs a tracer.

A span is ``(sid, parent, op, name, thread, start, end, n, tag)``: ``parent``
is the enclosing span on the same thread (a thread-local stack), ``op`` the
benchmark operation it belongs to, ``n`` a work count measured at the
boundary (entries gathered, bytes decoded) and ``tag`` a result label (the
intersection strategy chosen).  Spans are recorded only inside an
:meth:`Tracer.op` block, so set-up, warm-up and verification calls pass
straight through.

Work a query hands to another thread keeps its operation: a server ticket
remembers the operation that created it, and the slot thread that executes
the ticket and the pool threads that run its morsels adopt that operation's
root span as their parent.  Process-pool workers are separate interpreters;
their spans are never seen by the parent, which reports the time it waited
for them instead.

A span's *self time* is its duration minus the part of that interval its
child spans cover (children on other threads may overlap each other, so the
covered part is the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Name of the root span :meth:`Tracer.op` records for every operation.
OP_SPAN = "bench.op"


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    thread: int
    start: float
    end: float
    n: int
    tag: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.seconds
        - covered_seconds(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


class NameTotal(NamedTuple):
    """Per-span-name totals over one traced pass."""

    self_s: float
    total_s: float
    calls: int
    n: int


class Tracer:
    """Records spans around the engine's layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        #: ``ExecutionStats`` injected into every traced ``PlanRunner.count``.
        self.execution_stats: List[object] = []
        #: Morsel backends seen by ``open`` while installed, keyed by id, with
        #: their public payload counters as first seen.
        self.backends: Dict[int, Tuple[object, Dict[str, int]]] = {}
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(QueryContext) -> root context of the operation that built the
        #: server ticket carrying it.
        self._handoff: Dict[int, Tuple[int, int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation on the calling thread."""
        sid = next(self._ids)
        self._local.stack = [(sid, op_id)]
        start = self._clock()
        try:
            yield sid
        finally:
            end = self._clock()
            self._local.stack = None
            self.spans.append(
                Span(sid, 0, op_id, OP_SPAN, threading.get_ident(), start, end, 0, None)
            )

    def current(self) -> Optional[Tuple[int, int]]:
        """``(span id, op id)`` on top of this thread's stack, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def root(self) -> Optional[Tuple[int, int]]:
        """``(span id, op id)`` of this thread's operation root, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[0] if stack else None

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable] = None,
        tag: Optional[Callable] = None,
        adopt: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call inside an op.

        ``count(args, kwargs, result)`` yields the span's ``n``,
        ``tag(result)`` its label.  ``adopt(args, kwargs)`` is consulted when
        the calling thread has no operation of its own: it returns the
        ``(span id, op id)`` context handed over from another thread, or
        ``None`` to pass the call through unrecorded.
        """
        local = self._local
        clock = self._clock
        ids = self._ids
        record = self.spans.append
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            adopted = False
            if not stack:
                context = adopt(args, kwargs) if adopt is not None else None
                if context is None:
                    return fn(*args, **kwargs)
                stack = local.stack = [context]
                adopted = True
            parent, op_id = stack[-1]
            sid = next(ids)
            stack.append((sid, op_id))
            n = 0
            label = None
            end = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if count is not None:
                    n = count(args, kwargs, result)
                if tag is not None:
                    label = tag(result)
                return result
            finally:
                if end is None:
                    end = clock()
                stack.pop()
                if adopted:
                    local.stack = None
                record(Span(sid, parent, op_id, name, get_ident(), start, end, n, label))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as span ``name``."""
        self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, **hooks))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Wrap ``fn`` in every ``repro.*`` module attribute that holds it."""
        wrapper = self.wrap(fn, name, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the engine's layer boundaries (see the module docstring)."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        from repro.index.edge_partitioned import EdgePartitionedIndex
        from repro.index.maintenance import IndexMaintainer
        from repro.index.primary import AdjacencyIndex
        from repro.index.vertex_partitioned import VertexPartitionedIndex
        from repro.query import backends
        from repro.query.executor import PlanRunner
        from repro.query.operators import ExecutionStats
        from repro.query.optimizer import Optimizer
        from repro.query.pattern import QueryGraph
        from repro.query.pipeline import PipelineBuilder
        from repro.server import pools  # noqa: F401 - defines backend subclasses
        from repro.server.admission import ServerTicket
        from repro.server.pools import PoolSupervisor
        from repro.server.server import DatabaseServer
        from repro.storage import csr, intersect
        from repro.storage.offset_lists import OffsetLists

        try:
            # storage
            self.patch_method(
                csr.NestedCSR, "gather", "storage.gather",
                count=lambda args, kwargs, result: len(result[0]),
            )
            self.patch_function(
                intersect.intersect_segments, "storage.intersect",
                count=lambda args, kwargs, result: sum(
                    len(keys) for keys in (args[0] if args else kwargs["leg_keys"])
                ),
            )
            self.patch_function(
                intersect.choose_strategy, "storage.choose_strategy",
                tag=lambda result: result,
            )
            self.patch_method(
                OffsetLists, "resolve_many", "storage.offset_resolve",
                count=lambda args, kwargs, result: len(result[0]),
            )
            self.patch_function(csr.merge_sorted_runs, "storage.merge_runs")
            # index
            self.patch_method(AdjacencyIndex, "list_many", "index.primary_list_many")
            for cls in (VertexPartitionedIndex, EdgePartitionedIndex):
                self.patch_method(cls, "list_many", "index.secondary_list_many")
            for attr in ("insert_edges", "delete_edges", "flush"):
                self.patch_method(IndexMaintainer, attr, f"index.{attr}")
            # query: planning
            self.patch_method(QueryGraph, "fingerprint", "query.fingerprint")
            self.patch_method(Optimizer, "optimize", "query.plan")
            self.patch_method(PipelineBuilder, "build", "query.pipeline_build")
            # query: execution.  count() takes an optional stats object; the
            # traced pass supplies one so the operation's own counters and
            # per-stage seconds come back without a second execution.
            plain_count = PlanRunner.__dict__["count"]
            traced_count = self.wrap(plain_count, "query.run")
            collected = self.execution_stats

            def count_with_stats(runner, plan, *args, **kwargs):
                if self.current() is None:
                    return plain_count(runner, plan, *args, **kwargs)
                if kwargs.get("stats") is None:
                    kwargs["stats"] = ExecutionStats()
                try:
                    return traced_count(runner, plan, *args, **kwargs)
                finally:
                    collected.append(kwargs["stats"])

            self._patch(PlanRunner, "count", count_with_stats)
            # query: dispatch and transport
            pending = [backends.MorselBackend]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                for attr in ("open", "submit", "result", "close"):
                    if attr in cls.__dict__:
                        self.patch_method(cls, attr, f"query.backend_{attr}")
                if "open" in cls.__dict__:
                    self._patch(cls, "open", self._noting_backend(cls.__dict__["open"]))
            for decode in (backends.decode_batches, backends.decode_factorized_batches):
                self.patch_function(
                    decode, "query.decode",
                    count=lambda args, kwargs, result: _buffer_bytes(args[0]),
                )
            self.patch_function(backends.reply_checksum, "query.checksum")
            self.patch_function(
                backends.run_morsel_faulted, "query.morsel",
                adopt=lambda args, kwargs: self._adopt_from(kwargs.get("runtime")),
            )
            # server
            self.patch_method(DatabaseServer, "submit", "server.submit")
            self.patch_method(ServerTicket, "result", "server.ticket_result")
            self.patch_method(PoolSupervisor, "lease", "server.lease")
            self.patch_method(
                DatabaseServer, "_execute_ticket", "server.slot",
                adopt=lambda args, kwargs: self._adopt_from(args[1].runtime),
            )
            ticket_init = ServerTicket.__dict__["__init__"]

            def remember_op(ticket, *args, **kwargs):
                ticket_init(ticket, *args, **kwargs)
                root = self.root()
                if root is not None:
                    self._handoff[id(ticket.runtime)] = root

            self._patch(ServerTicket, "__init__", remember_op)
        except BaseException:
            self.uninstall()
            raise

    def _adopt_from(self, runtime: object) -> Optional[Tuple[int, int]]:
        return None if runtime is None else self._handoff.get(id(runtime))

    def _noting_backend(self, traced_open: Callable) -> Callable:
        def open_backend(backend, *args, **kwargs):
            if id(backend) not in self.backends:
                self.backends[id(backend)] = (backend, _payload_counters(backend))
            return traced_open(backend, *args, **kwargs)

        return open_backend

    def payload_counters(self) -> Dict[str, int]:
        """Growth of the seen backends' payload counters since first seen."""
        growth = dict.fromkeys(_PAYLOAD_COUNTERS, 0)
        for backend, first in self.backends.values():
            for key, value in _payload_counters(backend).items():
                growth[key] += value - first[key]
        return growth

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, NameTotal]:
        """Self seconds, total seconds, calls and work count per span name."""
        own = self_seconds(self.spans)
        sums: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for span in self.spans:
            row = sums[span.name]
            row[0] += own[span.sid]
            row[1] += span.seconds
            row[2] += 1
            row[3] += span.n
        return {name: NameTotal(*row) for name, row in sums.items()}

    def tag_counts(self, name: str) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.name == name:
                counts[span.tag] += 1
        return dict(counts)

    def uncovered_seconds(self, names: Optional[Iterable[str]] = None) -> float:
        """Operation time no descendant span covers, summed over operations.

        With ``names`` the cover is restricted to spans of those names, and
        only operations that have at least one such span are considered.
        """
        wanted = None if names is None else set(names)
        by_op: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.name != OP_SPAN and (wanted is None or span.name in wanted):
                by_op[span.op].append((span.start, span.end))
        total = 0.0
        for span in self.spans:
            if span.name != OP_SPAN or (wanted is not None and span.op not in by_op):
                continue
            total += span.seconds - covered_seconds(
                by_op.get(span.op, ()), span.start, span.end
            )
        return total

    def dump(self, path: str) -> None:
        """Write every span to ``path`` as JSON (names interned)."""
        names = sorted({span.name for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [s.sid, s.parent, s.op, index[s.name], s.thread, s.start, s.end, s.n, s.tag]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["sid", "parent", "op", "name", "thread", "start", "end", "n", "tag"],
                    "names": names,
                    "spans": rows,
                },
                handle,
            )


_PAYLOAD_COUNTERS = ("payload_ships", "payload_reuses")


def _payload_counters(backend: object) -> Dict[str, int]:
    return {key: getattr(backend, key, 0) for key in _PAYLOAD_COUNTERS}


def _buffer_bytes(value: object) -> int:
    """Bytes of every numpy buffer in a nested encoded reply."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_buffer_bytes(item) for item in value)
    return 0
