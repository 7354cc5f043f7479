"""Index maintenance: columnar update buffers and incremental merges.

GraphflowDB is read-optimized; updates are supported non-transactionally via
buffered insertions/deletions merged into the indexes when the buffers fill
(Section IV-C).  This module implements that design with columnar buffers:

* **Columnar delta store** — pending edge insertions are buffered as numpy
  arrays (src / dst / label code plus one raw-coded column per edge property,
  :class:`ColumnarEdgeDelta`), the same representation the batch read path
  consumes.  The bulk :meth:`IndexMaintainer.insert_edges` /
  :meth:`IndexMaintainer.delete_edges` APIs append whole batches; the scalar
  :meth:`insert_edge` / :meth:`delete_edge` methods are thin wrappers.
* **Batched per-index delta work** — for every secondary vertex-partitioned
  index the 1-hop view predicate is evaluated once per pending batch
  (``Predicate.evaluate_bulk`` with a column-override provider serving the
  buffered columns); for every secondary edge-partitioned index the delta
  probes run as vectorized range arithmetic over the primary CSRs instead of
  per-edge adjacency scans, and at merge time the candidate (bound edge,
  pending edge) pairs are read off the same lists in one batched gather.
* **Tombstones** — deletions set bits in one boolean mask applied to every
  edge array with a single fancy-index at merge time.
* **Incremental merge** — :meth:`flush` splices *by position*: the old
  indexes are immutable sorted partitions and only the changed edges are
  keyed.  Per index the pending entries are sorted on (deepest group, sort
  keys) by one packed-key sort (:func:`repro.storage.lex_order.lex_order`)
  and bisected, all in lock-step, into their own lists of the *old*
  CSR (``merge_sorted_runs`` → :func:`repro.storage.csr.search_segments`:
  ⌈log₂ longest list⌉ rounds, each reading the old entries' sort keys at one
  middle position per list; ties land after the old entry, as a stable sort
  of appended edges would put them).  Tombstones are positions as well — an
  edge's slot in the primary, a secondary entry's slot in its index — so an
  insertion point shifts down by the dead positions before it, every payload
  array is one masked copy of the survivors plus one scatter of the delta
  (:class:`~repro.storage.csr.Splice`), and the CSR offsets are the old ones
  moved by a step function of the inserted and dead entries' groups
  (:meth:`NestedCSR.spliced`, one pass over the groups).
* **Offsets are carried** — a secondary entry stores its offset into the
  primary list of its bound ID's shared vertex (Section III-B3), and that
  offset changes only when the flush inserts into or deletes from that
  list.  The primary merge records which lists it touched
  (``_MergedAdjacency.touched``); a secondary merge copies the old offsets
  and re-derives only the entries of touched lists (old list start plus
  offset, moved by ``Splice.new_positions``, minus the new list start),
  which are also the only entries that can lose their edge.  An
  edge-partitioned index finds those entries through the bound edges that
  share a touched vertex — that vertex's list on the bound side of the
  primary — and also drops the lists of deleted bound edges; its bound IDs
  are edge IDs, so it grows its bound domain by the pending edges and drops
  the tombstoned ones.  The merge reads an old entry's position only where
  it bisects, from the probing delta row's group.  No key, partition code or
  group ID is ever derived for a surviving entry, and
  ``MaintenanceStats.offsets_rederived`` counts the offsets re-derived.
  The resulting indexes are byte-identical (offsets, ID lists, offset
  lists, edge positions) to indexes rebuilt from scratch over the updated
  graph, and the statistics are carried the same way
  (:meth:`GraphStatistics.updated`).  ``MaintenanceStats.describe()`` says
  where a flush spent its time, phase by phase.
* **Plan epochs carried** — the install hands the store the number of edges
  the flush inserted plus deleted; the store keeps the current plan epoch,
  and with it every cached plan, until those changes exceed
  :data:`~repro.index.index_store.ANALYZE_SCALE_FACTOR` of the epoch's edge
  count (``MaintenanceStats.statistics_refreshes`` counts the flushes that
  started a new one).
* **Equivalence oracle** — ``flush(incremental=False)`` keeps the
  rebuild-from-scratch path: the same materialized graph, every index built
  anew by its from-scratch constructor.  The churn equivalence tests hold
  every incremental flush byte-identical to it.

Between flushes the buffered work is the per-insert cost that the paper's
maintenance micro-benchmark (Section V-F) measures beyond the primary's own
append: one secondary-view predicate evaluation per (edge, index) and the two
delta queries of each edge-partitioned index.

Concurrency: the snapshot/flush contract
----------------------------------------

Both merge strategies build the *entire* replacement state — graph, primary
index, statistics, and every secondary index — off to the side and install
it into the :class:`~repro.index.index_store.IndexStore` with one atomic
:meth:`~repro.index.index_store.IndexStore.install_state` swap.  Queries
capture a :meth:`~repro.index.index_store.IndexStore.snapshot` when they are
planned (``Database.run`` does this automatically), so a query racing a
flush sees either the complete pre-flush store or the complete post-flush
store — never a partially merged index, and never a graph of one generation
paired with indexes of another.  The maintainer itself is single-writer: do
not call ``insert_edges``/``flush`` from several threads concurrently.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import MaintenanceError
from ..graph.graph import PropertyGraph
from ..graph.property_store import (
    PropertyStore,
    encode_raw_column,
    raw_dtype_of,
    raw_null_of,
)
from ..graph.schema import GraphSchema
from ..graph.types import (
    Direction,
    NULL_INT,
    VERTEX_ID_DTYPE,
    PropertyType,
)
from ..storage.csr import Splice, fold_group_ids, merge_sorted_runs, range_positions
from ..storage.lex_order import lex_order
from ..storage.sort_keys import sort_values_matrix
from .config import IndexConfig
from .edge_partitioned import EdgePartitionedIndex, shared_vertices
from .index_store import IndexStore
from .primary import AdjacencyIndex, PrimaryIndex
from .vertex_partitioned import VertexPartitionedIndex
from .views import OneHopView


class ColumnarEdgeDelta:
    """Columnar buffer of pending edge insertions.

    Each :meth:`append` adds one batch chunk: src / dst / label-code arrays
    plus raw-coded property columns (missing properties materialize as
    all-null chunks on read).  Reading a full column concatenates the chunks
    — the merge path reads each column exactly once.
    """

    def __init__(self, schema: GraphSchema) -> None:
        self._schema = schema
        self._sizes: List[int] = []
        self._src: List[np.ndarray] = []
        self._dst: List[np.ndarray] = []
        self._labels: List[np.ndarray] = []
        self._props: List[Dict[str, object]] = []
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def append(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        label_codes: np.ndarray,
        prop_columns: Dict[str, object],
    ) -> None:
        self._sizes.append(len(src))
        self._src.append(np.asarray(src, dtype=np.int64))
        self._dst.append(np.asarray(dst, dtype=np.int64))
        self._labels.append(np.asarray(label_codes, dtype=np.int32))
        self._props.append(dict(prop_columns))
        self._total += len(src)

    def _concat(self, chunks: List[np.ndarray], dtype) -> np.ndarray:
        if not chunks:
            return np.empty(0, dtype=dtype)
        return np.concatenate(chunks)

    @property
    def src(self) -> np.ndarray:
        return self._concat(self._src, np.int64)

    @property
    def dst(self) -> np.ndarray:
        return self._concat(self._dst, np.int64)

    @property
    def label_codes(self) -> np.ndarray:
        return self._concat(self._labels, np.int32)

    def column(self, name: str):
        """Full raw-coded column for one edge property (chunks + null fill)."""
        prop = self._schema.edge_property(name)
        if prop.ptype is PropertyType.STRING:
            out: List[object] = []
            for size, chunk in zip(self._sizes, self._props):
                values = chunk.get(name)
                out.extend(values if values is not None else [None] * size)
            return out
        dtype = raw_dtype_of(prop)
        null = raw_null_of(prop)
        chunks = []
        for size, chunk in zip(self._sizes, self._props):
            values = chunk.get(name)
            if values is None:
                chunks.append(np.full(size, null, dtype=dtype))
            else:
                chunks.append(np.asarray(values, dtype=dtype))
        return self._concat(chunks, dtype)


@dataclass
class MaintenanceStats:
    """Counters accumulated while applying updates."""

    inserted_edges: int = 0
    deleted_edges: int = 0
    buffered_operations: int = 0
    secondary_predicate_evaluations: int = 0
    edge_partitioned_probes: int = 0
    merges: int = 0
    merge_seconds: float = 0.0
    #: Secondary entries whose offset a flush re-derived because the flush
    #: touched the primary list it points into; every other entry's offset
    #: is carried over unchanged.
    offsets_rederived: int = 0
    #: Flushes that started a new plan epoch, i.e. refreshed the planner
    #: statistics (see :data:`~repro.index.index_store.ANALYZE_SCALE_FACTOR`);
    #: every other flush carried its epoch over.
    statistics_refreshes: int = 0
    #: Seconds per flush phase (in execution order), summed over all flushes.
    phase_seconds: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(
            ("materialize", "primary", "vertex indexes", "edge indexes", "statistics", "install"),
            0.0,
        )
    )

    @contextmanager
    def phase(self, name: str):
        """Charge the enclosed block's wall time to one flush phase."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] += time.perf_counter() - started

    def describe(self) -> str:
        """Counters plus where the flush time went, phase by phase."""
        merges = max(self.merges, 1)
        phases = ", ".join(
            f"{name} {1000 * seconds / merges:.2f}"
            for name, seconds in self.phase_seconds.items()
        )
        return (
            f"MaintenanceStats(+{self.inserted_edges:,} -{self.deleted_edges:,} edges, "
            f"{self.merges} flushes in {self.merge_seconds:.3f} s "
            f"({1000 * self.merge_seconds / merges:.2f} ms each), "
            f"{self.offsets_rederived:,} secondary offsets re-derived, "
            f"{self.statistics_refreshes} planner-statistics refreshes; "
            f"ms per flush: {phases})"
        )


class _Compaction(NamedTuple):
    """How a flush renumbers the old edges: ``keep`` masks the survivors,
    ``dead`` lists the deleted IDs (ascending), ``new_id`` maps every old ID
    to its new one (``-1`` when deleted), and the ``num_kept`` survivors take
    IDs ``[0, num_kept)`` in their old order; pending edge ``j`` becomes
    ``num_kept + j``."""

    keep: np.ndarray
    dead: np.ndarray
    new_id: np.ndarray
    num_kept: int


class _MergedAdjacency(NamedTuple):
    """One merged primary direction, as the secondary merges consume it:
    the new index, how the old index's positions moved (``splice.survivors``,
    ``splice.new_positions``), every pending edge's insertion point among
    the old index's positions and its position in the new index, and which
    vertices' lists the merge inserted into or deleted from (``touched``, a
    mask over the vertex IDs).  An untouched list holds the same edges in
    the same order, so an offset into it is still valid."""

    index: AdjacencyIndex
    splice: Splice
    pending_insert_at: np.ndarray
    pending_positions: np.ndarray
    touched: np.ndarray


class IndexMaintainer:
    """Applies edge insertions/deletions to a graph and its A+ indexes.

    Args:
        store: the :class:`IndexStore` whose indexes are being maintained.
        merge_threshold: number of buffered operations that triggers a merge.
    """

    def __init__(self, store: IndexStore, merge_threshold: int = 4096) -> None:
        self.store = store
        self.merge_threshold = merge_threshold
        self.stats = MaintenanceStats()
        self._delta = ColumnarEdgeDelta(store.graph.schema)
        self._tombstone_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PropertyGraph:
        return self.store.graph

    def insert_edge(self, src: int, dst: int, label: str, **properties) -> None:
        """Buffer one edge insertion: a one-row :meth:`insert_edges`."""
        self.insert_edges(
            [src],
            [dst],
            label,
            properties={name: [value] for name, value in properties.items()},
        )

    def insert_edges(
        self,
        src,
        dst,
        labels,
        properties: Optional[Dict[str, Sequence]] = None,
    ) -> None:
        """Buffer a batch of edge insertions with one pass per index.

        Args:
            src / dst: endpoint vertex-ID arrays of equal length, of an
                integer dtype (float and bool arrays are refused, not cast).
            labels: one edge-label name for the whole batch, or a sequence of
                label names / codes aligned with ``src``.
            properties: mapping from edge-property name to an aligned value
                sequence (``None`` entries are nulls); names not declared in
                the schema are dropped.
        """
        graph = self.graph
        src = _id_array(src, "src")
        dst = _id_array(dst, "dst")
        if src.shape != dst.shape:
            raise MaintenanceError("src and dst must be 1-D arrays of equal length")
        count = len(src)
        if count == 0:
            return
        if (
            int(src.min()) < 0
            or int(src.max()) >= graph.num_vertices
            or int(dst.min()) < 0
            or int(dst.max()) >= graph.num_vertices
        ):
            raise MaintenanceError(
                f"edge endpoints out of range [0, {graph.num_vertices})"
            )
        label_codes = self._encode_labels(labels, count)
        prop_columns: Dict[str, object] = {}
        if properties:
            for name, values in properties.items():
                if not graph.schema.has_edge_property(name):
                    continue  # unknown properties are dropped
                prop = graph.schema.edge_property(name)
                prop_columns[name] = encode_raw_column(prop, values, count)
        self._delta.append(src, dst, label_codes, prop_columns)

        # (1) primary indexes: one buffered insertion in the lists of u and v.
        self.stats.buffered_operations += 2 * count

        # (2) secondary vertex-partitioned indexes: evaluate each view
        #     predicate once over the whole pending batch.
        provider = self._pending_column_provider(label_codes, prop_columns, count)
        for index in self.store.vertex_indexes:
            self.stats.secondary_predicate_evaluations += count
            mask = self._pending_view_mask(index.view, src, dst, label_codes, provider)
            self.stats.buffered_operations += int(np.count_nonzero(mask))

        # (3) secondary edge-partitioned indexes: batch-wide delta probes
        #     (range arithmetic on the primary CSRs; the candidate pairs are
        #     materialized through the segment kernel at merge time).
        for index in self.store.edge_indexes:
            self.stats.edge_partitioned_probes += self._bulk_edge_probes(
                src, dst, index
            )
            self.stats.buffered_operations += count

        self.stats.inserted_edges += count
        if self.stats.buffered_operations >= self.merge_threshold:
            self.flush()

    def delete_edge(self, edge_id: int) -> None:
        """Add a tombstone for an existing edge; removed at the next merge."""
        self.delete_edges([edge_id])

    def delete_edges(self, edge_ids) -> None:
        """Add tombstones for a batch of edges (one boolean-mask update).

        ``edge_ids`` are edge IDs of an integer dtype; a boolean mask or a
        float array is refused, not cast.
        """
        ids = _id_array(edge_ids, "edge_ids")
        if len(ids) == 0:
            return
        if int(ids.min()) < 0 or int(ids.max()) >= self.graph.num_edges:
            raise MaintenanceError(
                f"edge id out of range [0, {self.graph.num_edges})"
            )
        if self._tombstone_mask is None:
            self._tombstone_mask = np.zeros(self.graph.num_edges, dtype=bool)
        # Repeated and already-tombstoned IDs buffer nothing new.
        before = np.count_nonzero(self._tombstone_mask)
        self._tombstone_mask[ids] = True
        fresh = int(np.count_nonzero(self._tombstone_mask) - before)
        self.stats.deleted_edges += fresh
        self.stats.buffered_operations += fresh
        if self.stats.buffered_operations >= self.merge_threshold:
            self.flush()

    # ------------------------------------------------------------------
    # columnar buffering helpers
    # ------------------------------------------------------------------
    def _encode_labels(self, labels, count: int) -> np.ndarray:
        schema = self.graph.schema
        if isinstance(labels, str):
            if labels not in schema.edge_labels:
                raise MaintenanceError(f"unknown edge label {labels!r}")
            return np.full(count, schema.edge_label_code(labels), dtype=np.int32)
        arr = np.asarray(labels)
        if len(arr) != count:
            raise MaintenanceError(
                f"labels has {len(arr)} entries, expected {count}"
            )
        if arr.dtype.kind in "iu":
            if len(arr) and (
                int(arr.min()) < 0 or int(arr.max()) >= schema.num_edge_labels
            ):
                raise MaintenanceError("edge label code out of range")
            return arr.astype(np.int32)
        codes = np.empty(count, dtype=np.int32)
        cache: Dict[str, int] = {}
        for position, name in enumerate(arr.tolist()):
            code = cache.get(name)
            if code is None:
                if name not in schema.edge_labels:
                    raise MaintenanceError(f"unknown edge label {name!r}")
                code = cache[name] = schema.edge_label_code(name)
            codes[position] = code
        return codes

    def _pending_column_provider(
        self, label_codes: np.ndarray, prop_columns: Dict[str, object], count: int
    ):
        """Raw-column provider for the pending batch's ``eadj`` variable."""
        schema = self.graph.schema

        def provider(prop_name: str) -> Optional[np.ndarray]:
            if prop_name == "label":
                return label_codes.astype(np.int64)
            if schema.has_edge_property(prop_name):
                column = prop_columns.get(prop_name)
                if column is None:
                    prop = schema.edge_property(prop_name)
                    return encode_raw_column(prop, None, count)
                if isinstance(column, list):
                    return np.asarray(column, dtype=object)
                return column
            # Pending edges have no IDs (or unknown properties) yet: a null
            # column never satisfies a comparison.
            return np.full(count, NULL_INT, dtype=np.int64)

        return provider

    def _pending_view_mask(
        self,
        view: OneHopView,
        src: np.ndarray,
        dst: np.ndarray,
        label_codes: np.ndarray,
        provider,
    ) -> np.ndarray:
        """Which pending edges of one batch fall into a 1-hop view."""
        count = len(src)
        return view.membership_mask(
            self.graph,
            label_codes,
            np.arange(count, dtype=np.int64),
            src,
            dst,
            overrides={"eadj": provider},
        )

    def _bulk_edge_probes(
        self, src: np.ndarray, dst: np.ndarray, index: EdgePartitionedIndex
    ) -> int:
        """Batched probe accounting of an edge-partitioned index insertion.

        Counts the candidate adjacent edges of both delta queries for the
        whole pending batch with pure CSR range arithmetic (no per-edge
        adjacency scans).  The count is the dominant maintenance cost of
        edge-partitioned indexes (Section V-F); the candidates themselves are
        materialized and joined at merge time.
        """
        adjacency = index.adjacency
        primary = self.store.primary
        # Delta query 1: existing bound edges whose lists may gain a pending
        # edge — the adjacency of the pending edge's anchored endpoint.
        anchor = (
            src if adjacency.adjacency_direction is Direction.FORWARD else dst
        )
        bound_side = (
            primary.backward
            if adjacency.bound_endpoint_is_destination
            else primary.forward
        )
        probes = int(
            (bound_side.csr.bound_ends(anchor) - bound_side.csr.bound_starts(anchor)).sum()
        )
        # Delta query 2: each pending edge's own list — the adjacency of its
        # shared vertex.
        shared = dst if adjacency.bound_endpoint_is_destination else src
        adjacent = primary.for_direction(adjacency.adjacency_direction)
        probes += int(
            (adjacent.csr.bound_ends(shared) - adjacent.csr.bound_starts(shared)).sum()
        )
        return probes

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def flush(self, incremental: bool = True) -> None:
        """Merge all buffered updates into the graph and every index.

        Args:
            incremental: ``True`` (the default) splices the sorted delta into
                every index's existing entries; ``False`` rebuilds all
                indexes from scratch over the same materialized graph (the
                equivalence oracle).
        """
        has_tombstones = self._tombstone_mask is not None and bool(
            self._tombstone_mask.any()
        )
        if not len(self._delta) and not has_tombstones:
            self._reset_buffers()
            return
        started = time.perf_counter()
        with self.stats.phase("materialize"):
            new_graph, compaction = self._materialize_columnar()
        changed_edges = new_graph.num_edges + len(compaction.dead) - compaction.num_kept
        if incremental:
            new_epoch = self._merge_indexes(new_graph, compaction, changed_edges)
        else:
            new_epoch = self._rebuild_indexes(new_graph, changed_edges)
        self.stats.statistics_refreshes += new_epoch
        self._reset_buffers()
        self.stats.merges += 1
        self.stats.merge_seconds += time.perf_counter() - started

    def _reset_buffers(self) -> None:
        self._delta = ColumnarEdgeDelta(self.store.graph.schema)
        self._tombstone_mask = None
        self.stats.buffered_operations = 0

    def _keep_mask(self) -> np.ndarray:
        if self._tombstone_mask is None:
            return np.ones(self.graph.num_edges, dtype=bool)
        return ~self._tombstone_mask

    # -- columnar materialization ---------------------------------------
    def _materialize_columnar(self) -> Tuple[PropertyGraph, "_Compaction"]:
        """Vectorized graph rebuild: one mask + one concatenate per column.

        Returns ``(new_graph, compaction)``: the surviving old edges, in
        order, then the pending ones.
        """
        graph = self.graph
        schema = graph.schema
        delta = self._delta
        keep = self._keep_mask()
        num_kept = int(keep.sum())

        new_src = np.concatenate(
            [graph.edge_src[keep], delta.src.astype(VERTEX_ID_DTYPE)]
        )
        new_dst = np.concatenate(
            [graph.edge_dst[keep], delta.dst.astype(VERTEX_ID_DTYPE)]
        )
        new_labels = np.concatenate([graph.edge_labels[keep], delta.label_codes])

        edge_store = PropertyStore(schema, "edge")
        edge_store.set_count(len(new_src))
        kept_old = None
        for name in schema.edge_property_names:
            old_column = graph.edge_props.column(name)
            if isinstance(old_column, list):
                if kept_old is None:
                    kept_old = np.nonzero(keep)[0]
                values = [old_column[int(i)] for i in kept_old]
                values.extend(delta.column(name))
                edge_store.set_raw_column(name, values)
            else:
                edge_store.set_raw_column(
                    name, np.concatenate([old_column[keep], delta.column(name)])
                )

        new_graph = PropertyGraph(
            schema=schema,
            vertex_labels=graph.vertex_labels.copy(),
            edge_src=new_src,
            edge_dst=new_dst,
            edge_labels=new_labels,
            vertex_props=graph.vertex_props,
            edge_props=edge_store,
        )
        dead = np.flatnonzero(~keep)
        new_id = np.cumsum(keep) - 1
        new_id[dead] = -1
        return new_graph, _Compaction(keep, dead, new_id, num_kept)

    # -- incremental index merges ---------------------------------------
    def _merge_indexes(
        self, new_graph: PropertyGraph, compaction: "_Compaction", changed_edges: int
    ) -> bool:
        store = self.store
        old_graph = store.graph
        phase = self.stats.phase
        with phase("primary"):
            merged = {
                direction: self._merge_adjacency_index(
                    store.primary.for_direction(direction), new_graph, compaction
                )
                for direction in (Direction.FORWARD, Direction.BACKWARD)
            }
            new_primary = PrimaryIndex.from_directions(
                new_graph,
                merged[Direction.FORWARD].index,
                merged[Direction.BACKWARD].index,
            )
        with phase("vertex indexes"):
            new_vertex = {
                name: self._merge_vertex_index(
                    index, new_graph, compaction.num_kept, merged[index.direction]
                )
                for name, index in store._vertex_indexes.items()
            }
        with phase("edge indexes"):
            new_edge = {
                name: self._merge_edge_index(
                    index,
                    new_graph,
                    compaction,
                    new_primary,
                    merged[index.adjacency.adjacency_direction],
                )
                for name, index in store._edge_indexes.items()
            }
        with phase("statistics"):
            statistics = store.statistics.updated(
                new_graph,
                new_graph.edge_labels[compaction.num_kept :],
                old_graph.edge_labels[compaction.dead],
            )
        # One atomic swap: concurrent readers holding a store snapshot keep
        # the complete pre-merge generation; new snapshots see the complete
        # post-merge generation (see IndexStore's snapshot/flush contract).
        with phase("install"):
            return store.install_state(
                graph=new_graph,
                primary=new_primary,
                statistics=statistics,
                vertex_indexes=new_vertex,
                edge_indexes=new_edge,
                changed_edges=changed_edges,
            )

    @staticmethod
    def _delta_run(
        graph: PropertyGraph,
        config: IndexConfig,
        bound_ids: np.ndarray,
        edge_ids: np.ndarray,
        nbr_ids: np.ndarray,
        num_dead: int,
        closing: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Sort one index's pending entries into index order.

        Returns ``(order, groups, columns)``: the stable permutation on
        (deepest group of ``bound_ids``, sort keys, ``closing``) — one
        :func:`~repro.storage.lex_order.lex_order` — and the sorted group IDs
        and sort-key columns (major first) the merge bisects into the old
        lists.  An edge-ID sort key reads ``num_dead`` higher: the
        old entries it is compared with still carry pre-compaction IDs, under
        which the pending edges are numbered after every old edge.
        """
        level_domains = [key.effective_domain_size(graph) for key in config.partition_keys]
        level_codes = [
            key.effective_codes(graph, edge_ids, nbr_ids) for key in config.partition_keys
        ]
        groups = fold_group_ids(bound_ids, level_codes, level_domains)
        columns = sort_values_matrix(config.sort_keys, graph, edge_ids, nbr_ids)
        columns = [
            values + num_dead if key.is_edge_id else np.asarray(values)
            for key, values in zip(config.sort_keys, columns)
        ]
        minor = columns if closing is None else columns + [closing]
        order = lex_order([groups, *minor])
        return order, groups[order], [values[order] for values in columns]

    @staticmethod
    def _sort_keys_reader(config: IndexConfig, primary: AdjacencyIndex):
        """``positions -> sort-key columns`` of ``primary``'s entries under
        ``config``: what the merges read of the old lists, at the bisected
        positions only."""
        edge_ids, nbr_ids = primary.id_lists.edge_ids, primary.id_lists.nbr_ids
        return lambda at: sort_values_matrix(
            config.sort_keys, primary.graph, edge_ids[at], nbr_ids[at]
        )

    def _merge_adjacency_index(
        self, old_index: AdjacencyIndex, new_graph: PropertyGraph, compaction: "_Compaction"
    ) -> "_MergedAdjacency":
        """Splice the pending edges into one primary adjacency index.

        One gather of the compaction's new IDs over the old edge-ID list
        both finds the dead positions and renumbers the survivors; the
        pending edges' new positions come from the splice.
        """
        config = old_index.config
        num_kept = compaction.num_kept
        new_ids = compaction.new_id[old_index.id_lists.edge_ids]

        delta_edges = np.arange(num_kept, new_graph.num_edges, dtype=np.int64)
        delta_bounds = new_graph.edge_src[num_kept:].astype(np.int64)
        delta_nbrs = new_graph.edge_dst[num_kept:].astype(np.int64)
        if old_index.direction is Direction.BACKWARD:
            delta_bounds, delta_nbrs = delta_nbrs, delta_bounds
        order, groups, columns = self._delta_run(
            new_graph, config, delta_bounds, delta_edges, delta_nbrs,
            old_index.graph.num_edges - num_kept,
        )
        dead = np.flatnonzero(new_ids < 0)
        keys_at = self._sort_keys_reader(config, old_index)
        splice = merge_sorted_runs(
            old_index.csr.offsets, groups, columns, lambda rows, at: keys_at(at), dead
        )
        index = AdjacencyIndex.from_sorted(
            new_graph,
            old_index.direction,
            config,
            old_index.csr.spliced(groups, dead),
            splice.merge(new_ids[splice.survivors], delta_edges[order]),
            splice.merge(old_index.id_lists.nbr_ids[splice.survivors], delta_nbrs[order]),
            name=old_index.name,
        )
        pending_insert_at = np.empty(len(order), dtype=np.int64)
        pending_insert_at[order] = splice.insert_at
        pending_positions = np.empty(len(order), dtype=np.int64)
        pending_positions[order] = splice.delta_positions
        old_graph = old_index.graph
        owners = (
            old_graph.edge_src
            if old_index.direction is Direction.FORWARD
            else old_graph.edge_dst
        )
        touched = np.zeros(old_graph.num_vertices, dtype=bool)
        touched[delta_bounds] = True
        touched[owners[compaction.dead]] = True
        return _MergedAdjacency(index, splice, pending_insert_at, pending_positions, touched)

    def _pending_in_view(
        self, new_graph: PropertyGraph, view: OneHopView, num_kept: int
    ) -> np.ndarray:
        """Pending edges (post-materialization IDs) that fall into a view."""
        pending = np.arange(num_kept, new_graph.num_edges, dtype=np.int64)
        if len(pending) == 0:
            return pending
        mask = view.membership_mask(
            new_graph,
            new_graph.edge_labels[pending],
            pending,
            new_graph.edge_src[pending].astype(np.int64),
            new_graph.edge_dst[pending].astype(np.int64),
        )
        return pending[mask]

    @staticmethod
    def _old_positions(
        index, current: AdjacencyIndex, entries: np.ndarray, shared: np.ndarray
    ) -> np.ndarray:
        """Secondary ``index``'s ``entries``, whose bound IDs share vertices
        ``shared``, as positions of ``current``, the store's primary of the
        index's list space.  Offsets address the primary the index was built
        on (``index.primary``); after a ``RECONFIGURE PRIMARY`` that is an
        older ordering of the same edges, found again by edge ID."""
        built_on = index.primary
        positions = built_on.csr.bound_starts(shared) + index.offset_lists.offsets[entries]
        if built_on is not current:
            positions = current.positions_of_edges(built_on.id_lists.edge_ids[positions])
        return positions

    def _probed_positions(self, index, current: AdjacencyIndex, groups: np.ndarray):
        """``(rows, entries) -> positions``: the old entries that
        ``merge_sorted_runs`` probes for delta rows, as positions of
        ``current``.  A probed entry lies in its row's group (``groups``,
        the sorted delta's), which gives its bound ID and so its shared
        vertex: no entry is located by search."""

        def positions(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
            shared = index.shared_vertices(index.csr.group_bounds(groups[rows]))
            return self._old_positions(index, current, entries, shared)

        return positions

    def _carried_offsets(
        self,
        index,
        current: AdjacencyIndex,
        adjacency: "_MergedAdjacency",
        bounds: np.ndarray,
        shared: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, dead)``: ``index``'s offsets with the entries of
        ``bounds`` — the bound IDs whose shared vertices ``shared`` own a
        primary list the flush touched — re-derived against the merged
        primary, every other one carried over; and the entries among them
        whose edge the flush deleted.

        An entry's old position is its list's old start plus its offset; the
        primary's splice moves it (``Splice.new_positions``, ``-1`` when
        dead), and the new offset is that position minus the list's new
        start."""
        starts, ends = index.csr.prefix_ranges(bounds)
        counts = ends - starts
        entries = range_positions(starts, counts, int(counts.sum()))
        shared = np.repeat(shared, counts)
        new_positions = adjacency.splice.new_positions[
            self._old_positions(index, current, entries, shared)
        ]
        alive = new_positions >= 0
        offsets = index.offset_lists.offsets.copy()
        offsets[entries[alive]] = new_positions[alive] - adjacency.index.csr.bound_starts(
            shared[alive]
        )
        self.stats.offsets_rederived += len(entries)
        return offsets, entries[~alive]

    def _merge_vertex_index(
        self,
        old_index: VertexPartitionedIndex,
        new_graph: PropertyGraph,
        num_kept: int,
        adjacency: "_MergedAdjacency",
    ) -> VertexPartitionedIndex:
        """Splice the qualifying pending edges into one 1-hop view index."""
        config = old_index.config
        old_adj = self.store.primary.for_direction(old_index.direction)
        new_adj = adjacency.index

        # A vertex's entries point into its own primary list: only the lists
        # the flush touched (every list, if the primary was reconfigured
        # since the index was built) can move or lose an entry.
        if old_index.primary is old_adj:
            vertices = np.flatnonzero(adjacency.touched)
        else:
            vertices = np.arange(old_adj.graph.num_vertices, dtype=np.int64)
        carried, dead = self._carried_offsets(old_index, old_adj, adjacency, vertices, vertices)

        delta_edges = self._pending_in_view(new_graph, old_index.view, num_kept)
        delta_bounds = new_graph.edge_src[delta_edges].astype(np.int64)
        delta_nbrs = new_graph.edge_dst[delta_edges].astype(np.int64)
        if old_index.direction is Direction.BACKWARD:
            delta_bounds, delta_nbrs = delta_nbrs, delta_bounds
        order, groups, columns = self._delta_run(
            new_graph, config, delta_bounds, delta_edges, delta_nbrs,
            old_adj.graph.num_edges - num_kept,
        )

        keys_at = self._sort_keys_reader(config, old_adj)
        probed = self._probed_positions(old_index, old_adj, groups)
        splice = merge_sorted_runs(
            old_index.csr.offsets,
            groups,
            columns,
            lambda rows, at: keys_at(probed(rows, at)),
            dead,
        )
        return VertexPartitionedIndex.from_sorted(
            new_graph,
            old_index.view,
            old_index.direction,
            config,
            new_adj,
            old_index.csr.spliced(groups, dead),
            splice.merge(
                carried[splice.survivors],
                new_adj.list_offsets(adjacency.pending_positions[delta_edges[order] - num_kept]),
            ),
            name=old_index.name,
        )

    def _merge_edge_index(
        self,
        old_index: EdgePartitionedIndex,
        new_graph: PropertyGraph,
        compaction: "_Compaction",
        new_primary: PrimaryIndex,
        adjacency: "_MergedAdjacency",
    ) -> EdgePartitionedIndex:
        """Splice the delta 2-hop pairs into one edge-partitioned index.

        New pairs come from the two delta queries of Section IV-C, both run
        batch-wide: (1) pending edges joining the lists of *existing* bound
        edges — the candidate segments are grouped per (pending edge, bound
        edge), one per entry of the anchored endpoint's list; (2) the pending
        edges' own lists, read as positions of the merged primary (which
        already contains the other pending edges).

        The merge runs over the *old* bound domain grown by the pending
        edges (pending edge ``num_kept + j`` is bound ``old |E| + j``, an
        empty list), and the spliced CSR then drops the tombstoned bounds:
        compaction renumbers the rest monotonically, so list order is kept.

        The scratch builder breaks sort-key ties by the position in the
        shared vertex's primary list, so that position closes the key and
        the merge is unambiguous.  Among themselves the delta pairs order by
        their positions in the new primary; against the old pairs of its
        bound edge (which stand at old-primary positions) a query-1 pair
        stands at its pending edge's insertion point into the old primary —
        before the old entry at that position, hence ``side="left"``.
        Query-2 lists are new.
        """
        view = old_index.view
        config = old_index.config
        anchored_on_dst = old_index.adjacency.bound_endpoint_is_destination
        adjacent_fw = old_index.adjacency.adjacency_direction is Direction.FORWARD
        old_primary = self.store.primary
        old_adj = old_primary.for_direction(old_index.adjacency.adjacency_direction)
        old_graph = old_adj.graph
        new_adj = adjacency.index
        keep, num_kept = compaction.keep, compaction.num_kept
        num_dead = len(compaction.dead)
        old_bound_side = old_primary.backward if anchored_on_dst else old_primary.forward

        # Only the pairs in a primary list the flush touched can move or lose
        # their adjacent edge.  The bound edges sharing a touched vertex are
        # that vertex's list on the bound side (every bound edge, if the
        # primary was reconfigured since the index was built).  A deleted
        # bound edge takes its whole list.
        if old_index.primary is old_adj:
            vertices = np.flatnonzero(adjacency.touched)
            starts, ends = old_bound_side.csr.prefix_ranges(vertices)
            counts = ends - starts
            bounds = old_bound_side.id_lists.edge_ids[
                range_positions(starts, counts, int(counts.sum()))
            ]
            shared = np.repeat(vertices, counts)
        else:
            bounds = np.arange(old_graph.num_edges, dtype=np.int64)
            shared = old_index.shared_vertices(bounds)
        carried, dead = self._carried_offsets(old_index, old_adj, adjacency, bounds, shared)
        starts, ends = old_index.csr.prefix_ranges(compaction.dead)
        dead = np.union1d(
            dead, range_positions(starts, ends - starts, int((ends - starts).sum()))
        )

        # Delta pairs.
        pending = np.arange(num_kept, new_graph.num_edges, dtype=np.int64)
        # Query 1: pending edges as the adjacent edge of existing bound edges:
        # every surviving edge in the list of the pending edge's anchored
        # endpoint in the old graph.  An edge is in a vertex's list once, so
        # the (pending edge, bound edge) pairs are distinct as read.
        anchor = (
            new_graph.edge_src[pending] if adjacent_fw else new_graph.edge_dst[pending]
        ).astype(np.int64)
        cand_eb, _, cand_counts = old_bound_side.list_many(anchor)
        q1_keep = keep[cand_eb]
        old_bound1 = cand_eb[q1_keep].astype(np.int64)
        eadj1 = np.repeat(pending, cand_counts)[q1_keep]
        vnbr1 = (
            new_graph.edge_dst[eadj1] if adjacent_fw else new_graph.edge_src[eadj1]
        ).astype(np.int64)
        # Query 2: pending edges as the bound edge; their lists are the
        # adjacency of their shared vertex in the *merged* primary, which
        # already includes the other pending edges.
        positions2, counts2, _ = new_adj.positions_many(
            shared_vertices(old_index.adjacency, new_graph, pending).astype(np.int64)
        )
        bound2 = np.repeat(pending, counts2)

        cand_bound = np.concatenate([compaction.new_id[old_bound1], bound2])
        cand_old_bound = np.concatenate([old_bound1, bound2 + num_dead])
        cand_eadj = np.concatenate(
            [eadj1, new_adj.id_lists.edge_ids[positions2].astype(np.int64)]
        )
        cand_vnbr = np.concatenate(
            [vnbr1, new_adj.id_lists.nbr_ids[positions2].astype(np.int64)]
        )
        cand_positions = np.concatenate(
            [adjacency.pending_positions[eadj1 - num_kept], positions2]
        )
        cand_closing = np.concatenate(
            [adjacency.pending_insert_at[eadj1 - num_kept], np.zeros_like(bound2)]
        )
        if len(cand_bound):
            arrays = {
                "eb": ("edge", cand_bound),
                "eadj": ("edge", cand_eadj),
                "vnbr": ("vertex", cand_vnbr),
                "vs": ("vertex", new_graph.edge_src[cand_bound].astype(np.int64)),
                "vd": ("vertex", new_graph.edge_dst[cand_bound].astype(np.int64)),
            }
            mask = view.predicate.evaluate_bulk(new_graph, {}, arrays)
            # A bound edge never lists itself (a 2-path uses two distinct edges).
            mask &= cand_eadj != cand_bound
        else:
            mask = np.zeros(0, dtype=bool)
        delta_eadj = cand_eadj[mask]
        delta_positions = cand_positions[mask]
        order, groups, columns = self._delta_run(
            new_graph, config, cand_old_bound[mask], delta_eadj, cand_vnbr[mask],
            num_dead, closing=delta_positions,
        )

        keys_at = self._sort_keys_reader(config, old_adj)
        probed = self._probed_positions(old_index, old_adj, groups)

        def old_keys(rows: np.ndarray, at: np.ndarray) -> List[np.ndarray]:
            positions = probed(rows, at)
            return keys_at(positions) + [positions]

        grown = old_index.csr.grown(len(pending))
        splice = merge_sorted_runs(
            grown.offsets,
            groups,
            columns + [cand_closing[mask][order]],
            old_keys,
            dead,
            side="left",
        )
        return EdgePartitionedIndex.from_sorted(
            new_graph,
            view,
            config,
            new_primary,
            grown.spliced(
                groups, dead, np.concatenate([keep, np.ones(len(pending), dtype=bool)])
            ),
            splice.merge(
                carried[splice.survivors], new_adj.list_offsets(delta_positions[order])
            ),
            name=old_index.name,
        )

    # -- scratch rebuild (the equivalence oracle) ------------------------
    def _rebuild_indexes(self, new_graph: PropertyGraph, changed_edges: int) -> bool:
        store = self.store
        phase = self.stats.phase
        with phase("primary"):
            new_primary = PrimaryIndex(
                new_graph,
                forward_config=store.primary.forward.config,
                backward_config=store.primary.backward.config,
            )
        with phase("statistics"):
            new_store = IndexStore(new_graph, new_primary)
        with phase("vertex indexes"):
            for index in store.vertex_indexes:
                new_store.register_vertex_index(
                    VertexPartitionedIndex(
                        new_graph,
                        index.view,
                        index.direction,
                        index.config,
                        new_primary.for_direction(index.direction),
                        name=index.name,
                    )
                )
        with phase("edge indexes"):
            for index in store.edge_indexes:
                new_store.register_edge_index(
                    EdgePartitionedIndex(
                        new_graph, index.view, index.config, new_primary, name=index.name
                    )
                )

        # Swap the rebuilt state into the existing store object so callers
        # holding a reference observe the merged data — atomically, so a
        # concurrent reader's snapshot is always one complete generation.
        with phase("install"):
            return store.install_state(
                graph=new_graph,
                primary=new_primary,
                statistics=new_store.statistics,
                vertex_indexes=new_store._vertex_indexes,
                edge_indexes=new_store._edge_indexes,
                changed_edges=changed_edges,
            )



def _id_array(values, name: str) -> np.ndarray:
    """``values`` as a 1-D int64 array of vertex or edge IDs.

    Float and bool dtypes (or any other non-integer one) are refused rather
    than cast: ``0.7`` would truncate to vertex 0 and a boolean mask would
    read as IDs 0 and 1.  An empty input is accepted whatever its dtype
    (``np.asarray([])`` is float64).
    """
    ids = np.asarray(values)
    if ids.ndim != 1:
        raise MaintenanceError(f"{name} must be a 1-D array")
    if len(ids) and ids.dtype.kind not in "iu":
        raise MaintenanceError(
            f"{name} must hold integer IDs, got dtype {ids.dtype}"
        )
    return ids.astype(np.int64, copy=False)
