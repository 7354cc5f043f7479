"""INDEX STORE: the catalog of A+ indexes and the access-path matcher.

"INDEX STORE maintains the metadata of each A+ index in the system such as
their type, partitioning structure, and sorting criterion, as well as
additional predicates for secondary indexes" (Section IV-A).  The DP optimizer
queries it when considering an extension of a partial match: the store returns
every index whose lists (i) can produce the candidate edges of the extension
and (ii) whose materialized predicate is subsumed by the extension's
predicate, together with the partition-key values to address the most
granular usable sub-list, the predicate guaranteed by that sub-list, and the
residual predicate the plan must still evaluate.

Extension predicates handed to the store use canonical variable names:

* ``bound`` — the already-matched vertex being extended from,
* ``nbr`` — the new vertex the extension produces,
* ``edge`` — the new query edge being matched,
* ``bound_edge`` — for edge-partitioned lookups, the already-matched edge,
* ``bound_src`` / ``bound_dst`` — the endpoints of ``bound_edge``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.statistics import GraphStatistics, PlannerStatistics
from ..graph.types import Direction, EdgeAdjacencyType
from ..predicates import (
    Comparison,
    Constant,
    Predicate,
    PropertyRef,
    cmp,
    predicate_subsumes,
    residual_conjuncts,
)
from ..storage.sort_keys import SortKey
from .config import IndexConfig
from .edge_partitioned import EdgePartitionedIndex
from .primary import AdjacencyIndex, PrimaryIndex
from .vertex_partitioned import VertexPartitionedIndex

#: A flush starts a new plan epoch once the edges inserted plus deleted since
#: the epoch began exceed this share of the epoch's edge count (PostgreSQL's
#: default ``autovacuum_analyze_scale_factor``); below it the flush carries
#: the epoch's planner statistics over unchanged (see :class:`StoreState`).
ANALYZE_SCALE_FACTOR = 0.1

#: Variable renamings from 1-hop view variables to extension variables.
_VIEW_RENAME_FW = {"vs": "bound", "vd": "nbr", "eadj": "edge"}
_VIEW_RENAME_BW = {"vd": "bound", "vs": "nbr", "eadj": "edge"}
#: Variable renaming from 2-hop view variables to extension variables.
_TWO_HOP_RENAME = {
    "eb": "bound_edge",
    "eadj": "edge",
    "vnbr": "nbr",
    "vs": "bound_src",
    "vd": "bound_dst",
}


@dataclass(frozen=True)
class IndexRef:
    """An index named rather than held: what an access path of a cached plan
    template points at (:meth:`AccessPath.named`), resolved against a store
    state by :meth:`StoreState.index`."""

    kind: str
    name: str
    direction: Direction


@dataclass
class AccessPath:
    """One way of reading the candidate edges of an extension from an index.

    Attributes:
        index: the index object (`AdjacencyIndex`, `VertexPartitionedIndex`,
            or `EdgePartitionedIndex`); all expose the read surface of
            :class:`~repro.index.lists.AdjacencyLists` (``list_many``,
            ``count_many``, ``segments_sorted_by``, ...).  An
            :class:`IndexRef` in a plan template.
        kind: ``"primary"``, ``"vertex_secondary"`` or ``"edge_secondary"``.
        direction: direction of the adjacency relative to the bound vertex.
        key_values: partition-key values addressing the most granular usable
            sub-list (a prefix of the index's partitioning levels).
        sort_keys: sort order of the addressed sub-list.
        guaranteed: predicate (in extension variables) that every edge in the
            addressed sub-list is known to satisfy.
        residual: extension-predicate conjuncts not guaranteed by the sub-list
            and therefore still to be evaluated by the plan.
        estimated_list_size: expected number of edges in one addressed list,
            used by the i-cost model.
        uses_bound_edge: True for edge-partitioned paths (bound is an edge).
    """

    index: object
    kind: str
    direction: Direction
    key_values: Tuple = ()
    sort_keys: Tuple[SortKey, ...] = (SortKey.neighbour_id(),)
    guaranteed: Predicate = field(default_factory=Predicate.true)
    residual: Tuple[Comparison, ...] = ()
    estimated_list_size: float = 0.0
    uses_bound_edge: bool = False

    @property
    def name(self) -> str:
        return getattr(self.index, "name", type(self.index).__name__)

    @property
    def sorted_by_neighbour_id(self) -> bool:
        return self.sorted_by(SortKey.neighbour_id())

    def sorted_by(self, key: SortKey) -> bool:
        """True if the addressed sub-list is sorted by ``key`` (major key).

        Delegated to the index's ``segments_sorted_by`` flag (the batched
        index contract: the same guarantee covers every segment returned by
        ``list_many``, which is what lets the segment intersection kernel
        skip re-sorting).
        """
        return bool(self.index.segments_sorted_by(key, self.key_values))

    def tuned_for(self, key: SortKey) -> bool:
        """True if the index keeps its most granular lists sorted by ``key``.

        Unlike :meth:`sorted_by` this ignores whether the addressed prefix
        covers every partitioning level: a coarser list is then a union of a
        few ``key``-sorted runs (one per deeper partition), which MULTI-EXTEND
        merges at access time.
        """
        return bool(self.sort_keys) and self.sort_keys[0] == key

    def named(self) -> "AccessPath":
        """This path with its index named by an :class:`IndexRef`."""
        return dataclasses.replace(
            self, index=IndexRef(self.kind, self.name, self.direction)
        )

    def bound_to(self, state: "StoreState") -> "AccessPath":
        """This :meth:`named` path reading ``state``'s index of its name."""
        return dataclasses.replace(self, index=state.index(self.index))

    def describe(self) -> str:
        keys = ",".join(str(v) for v in self.key_values) or "-"
        return (
            f"{self.name}[{self.direction.value}] keys=({keys}) "
            f"sort={self.sort_keys[0].describe() if self.sort_keys else '-'}"
        )


@dataclass(frozen=True)
class StoreState:
    """One immutable, internally consistent generation of a store's contents.

    The graph, the primary index, the statistics, and the secondary-index
    catalogs of one generation always describe the *same* edge set.  The
    store swaps generations with a single attribute assignment (atomic under
    CPython), so a reader that captures ``state`` (via
    :meth:`IndexStore.snapshot`) can never observe a graph from one flush
    paired with indexes from another.

    ``generation`` numbers the states a store has installed (0 for the
    construction state, +1 per :meth:`IndexStore._replace`/\
    :meth:`IndexStore.install_state`).  Plans pin the generation they were
    planned against (``QueryPlan.pinned_generation``), and the
    process-backend morsel dispatcher stamps it into every task spec so a
    worker rehydrated from one generation loudly rejects tasks belonging to
    another (see :mod:`repro.query.backends`).

    ``epoch`` numbers the plan epochs: runs of generations that share one
    ``planner_statistics`` — the label counts, |V|, |E| and secondary-index
    entry counts of the epoch's first state, numbers only.  The optimizer
    reads nothing else that a flush changes, so every state of an epoch
    plans a query alike, and a plan cache keyed on the epoch rebinds a plan
    to a newer generation instead of re-planning it.  Index DDL, DROP and a
    primary reconfiguration start a new epoch; a flush carries the epoch
    over while ``epoch_changes`` — the edges inserted plus deleted since the
    epoch began — stays within :data:`ANALYZE_SCALE_FACTOR` of the epoch's
    edge count, and starts a new one past it.

    States are **picklable as one self-contained unit**: graphs and index
    objects are immutable after construction and hold no locks or open
    resources, so ``pickle.dumps(state)`` is the worker-rehydration payload
    — shared references (indexes onto their graph) are preserved inside the
    one pickle, and the worker's copy stays internally consistent.
    """

    graph: PropertyGraph
    primary: PrimaryIndex
    statistics: GraphStatistics
    vertex_indexes: Dict[str, VertexPartitionedIndex]
    edge_indexes: Dict[str, EdgePartitionedIndex]
    generation: int = 0
    epoch: int = 0
    epoch_changes: int = 0
    planner_statistics: Optional[PlannerStatistics] = None

    def index(self, ref: IndexRef):
        """The index of this state that ``ref`` names."""
        if ref.kind == "primary":
            return self.primary.for_direction(ref.direction)
        catalog = self.edge_indexes if ref.kind == "edge_secondary" else self.vertex_indexes
        return catalog[ref.name]

    def begin_epoch(self, epoch: int) -> "StoreState":
        """This state as the first of plan epoch ``epoch``: its planner
        statistics read off it."""
        entries = {
            name: index.num_indexed_edges
            for catalog in (self.vertex_indexes, self.edge_indexes)
            for name, index in catalog.items()
        }
        return dataclasses.replace(
            self,
            epoch=epoch,
            epoch_changes=0,
            planner_statistics=PlannerStatistics(self.statistics, entries),
        )


class IndexStore:
    """Catalog of the primary index and all secondary A+ indexes.

    Snapshot / flush contract
    -------------------------

    All mutable content lives in one immutable :class:`StoreState` held in
    ``self._state``.  Writers (index registration, DDL, and most importantly
    :meth:`~repro.index.maintenance.IndexMaintainer.flush`) build a complete
    replacement state off to the side and install it with
    :meth:`install_state` — a single reference assignment.  Readers that need
    a coherent multi-attribute view (plan + execute a query while another
    thread may flush) call :meth:`snapshot`, which returns a read-only
    ``IndexStore`` view pinned to the captured state.  Consequences:

    * a query planned and executed against one snapshot sees either the
      entirely pre-flush or the entirely post-flush store, never a partially
      merged index or a graph/index generation mix;
    * index objects and graphs are immutable after construction, so pinned
      snapshots stay valid (and correct) for as long as a caller holds them.
      (``Database.reconfigure_primary`` honours this by installing a *new*
      ``PrimaryIndex`` through :meth:`install_state`; calling the in-place
      ``PrimaryIndex.reconfigure`` directly on a shared store forfeits the
      pinned-snapshot guarantee for that primary.)

    The guarantee is **readers versus one writer**.  Writers — index
    registration/drop, ``Database.reconfigure_primary``, and maintenance
    flushes — each perform an unsynchronized read-modify-write of the state,
    so two *concurrent* writers can lose one of the two updates (e.g. an
    index registered during a flush vanishes when the flush installs its
    replacement state).  Serialize all DDL and maintenance on one thread;
    queries may run concurrently with that single writer without restriction.
    """

    #: Called with the new plan epoch and generation right after every
    #: state swap (flush, reconfiguration, index DDL) — how a ``Database``
    #: retires the plan-cache entries of superseded epochs and generations.
    #: Snapshot views never install states and leave it unset.
    on_install: Optional[Callable[[int, int], None]] = None

    def __init__(self, graph: PropertyGraph, primary: PrimaryIndex) -> None:
        self._state = StoreState(
            graph=graph,
            primary=primary,
            statistics=GraphStatistics(graph),
            vertex_indexes={},
            edge_indexes={},
        ).begin_epoch(0)

    # ------------------------------------------------------------------
    # state access and atomic replacement
    # ------------------------------------------------------------------
    @property
    def state(self) -> StoreState:
        """The current generation (one coherent read)."""
        return self._state

    @property
    def generation(self) -> int:
        """Generation number of the current state (0 = construction state)."""
        return self._state.generation

    @property
    def graph(self) -> PropertyGraph:
        return self._state.graph

    @property
    def primary(self) -> PrimaryIndex:
        return self._state.primary

    @property
    def statistics(self) -> GraphStatistics:
        return self._state.statistics

    @property
    def epoch(self) -> int:
        """Plan epoch of the current state (see :class:`StoreState`)."""
        return self._state.epoch

    @property
    def planner_statistics(self) -> PlannerStatistics:
        """What the optimizer reads: the current epoch's frozen statistics."""
        return self._state.planner_statistics

    @property
    def _vertex_indexes(self) -> Dict[str, VertexPartitionedIndex]:
        return self._state.vertex_indexes

    @property
    def _edge_indexes(self) -> Dict[str, EdgePartitionedIndex]:
        return self._state.edge_indexes

    def install_state(
        self,
        graph: PropertyGraph,
        primary: PrimaryIndex,
        statistics: GraphStatistics,
        vertex_indexes: Dict[str, VertexPartitionedIndex],
        edge_indexes: Dict[str, EdgePartitionedIndex],
        changed_edges: Optional[int] = None,
    ) -> bool:
        """Atomically replace the whole store state (the flush swap).

        ``changed_edges`` is what a flush inserted plus deleted: the new
        state stays in the current plan epoch unless that takes the epoch's
        changes past :data:`ANALYZE_SCALE_FACTOR` of its edge count.
        ``None`` (a primary reconfiguration) always starts a new epoch.
        Returns True when a new epoch began.
        """
        return self._replace(
            changed_edges,
            graph=graph,
            primary=primary,
            statistics=statistics,
            vertex_indexes=vertex_indexes,
            edge_indexes=edge_indexes,
        )

    def snapshot(self) -> "IndexStore":
        """A read view of the store pinned to the current generation.

        The view exposes the full read API (access-path matching, memory
        reporting, ...) but never follows later :meth:`install_state` swaps.
        """
        view = IndexStore.__new__(IndexStore)
        view._state = self._state
        return view

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _replace(self, changed_edges: Optional[int] = None, **changes) -> bool:
        """Install a state derived from the current one (one atomic swap).

        Every installed state gets the next generation number, so any two
        states a store has ever held are distinguishable — the pinning
        handle for plans and process-pool worker payloads.  It keeps the
        plan epoch only for a flush of ``changed_edges`` within the drift
        bound (see :meth:`install_state`); returns True when a new epoch
        began.
        """
        for catalog in ("vertex_indexes", "edge_indexes"):
            if catalog in changes:
                changes[catalog] = dict(changes[catalog])
        changes["generation"] = self._state.generation + 1
        state = dataclasses.replace(self._state, **changes)
        drift = None if changed_edges is None else state.epoch_changes + changed_edges
        new_epoch = (
            drift is None
            or drift > ANALYZE_SCALE_FACTOR * state.planner_statistics.num_edges
        )
        if new_epoch:
            state = state.begin_epoch(state.epoch + 1)
        else:
            state = dataclasses.replace(state, epoch_changes=drift)
        self._state = state
        if self.on_install is not None:
            self.on_install(state.epoch, state.generation)
        return new_epoch

    def register_vertex_index(self, index: VertexPartitionedIndex) -> None:
        if index.name in self._vertex_indexes:
            raise IndexConfigError(f"duplicate vertex-partitioned index {index.name!r}")
        self._replace(vertex_indexes={**self._vertex_indexes, index.name: index})

    def register_edge_index(self, index: EdgePartitionedIndex) -> None:
        if index.name in self._edge_indexes:
            raise IndexConfigError(f"duplicate edge-partitioned index {index.name!r}")
        self._replace(edge_indexes={**self._edge_indexes, index.name: index})

    def drop_index(self, name: str) -> None:
        if name in self._vertex_indexes:
            catalog = dict(self._vertex_indexes)
            del catalog[name]
            self._replace(vertex_indexes=catalog)
            return
        if name in self._edge_indexes:
            catalog = dict(self._edge_indexes)
            del catalog[name]
            self._replace(edge_indexes=catalog)
            return
        raise IndexConfigError(f"no secondary index named {name!r}")

    @property
    def vertex_indexes(self) -> List[VertexPartitionedIndex]:
        return list(self._vertex_indexes.values())

    @property
    def edge_indexes(self) -> List[EdgePartitionedIndex]:
        return list(self._edge_indexes.values())

    def secondary_index_names(self) -> List[str]:
        return list(self._vertex_indexes) + list(self._edge_indexes)

    # ------------------------------------------------------------------
    # access-path matching: vertex-bound extensions
    # ------------------------------------------------------------------
    def _partition_values_from_predicate(
        self,
        config: IndexConfig,
        predicate: Predicate,
    ) -> Tuple[List, List[Comparison]]:
        """Match equality conjuncts to the index's partition keys, in order.

        Returns the usable prefix of partition-key values and the list of
        conjuncts those values guarantee.
        """
        conjuncts = [c.normalized() for c in predicate.conjuncts()]
        values: List = []
        covered: List[Comparison] = []
        for key in config.partition_keys:
            target_var = "edge" if key.target == "edge" else "nbr"
            found = None
            for conjunct in conjuncts:
                if conjunct in covered:
                    continue
                if (
                    conjunct.op.value == "="
                    and isinstance(conjunct.left, PropertyRef)
                    and isinstance(conjunct.right, Constant)
                    and conjunct.left.var == target_var
                    and conjunct.left.prop == key.prop
                ):
                    found = conjunct
                    break
            if found is None:
                break
            values.append(found.right.value)
            covered.append(found)
        return values, covered

    def _estimate_vertex_list_size(
        self,
        index: Union[AdjacencyIndex, VertexPartitionedIndex],
        direction: Direction,
        key_values: Sequence,
        guaranteed: Predicate,
    ) -> float:
        """Rough expected size of one addressed list (for i-cost)."""
        statistics = self.planner_statistics
        num_vertices = max(statistics.num_vertices, 1)
        if isinstance(index, AdjacencyIndex):
            total_entries = statistics.num_edges
        else:
            total_entries = statistics.index_entries(index.name)
        base = total_entries / num_vertices
        # Discount for each addressed partition level beyond the view itself.
        config = index.config
        fraction = 1.0
        for key, value in zip(config.partition_keys, key_values):
            if key.target == "edge" and key.prop == "label":
                code = self.graph.schema.edge_label_code(value) if isinstance(value, str) else value
                fraction *= max(statistics.edge_label_selectivity(code), 1e-9)
            elif key.target == "nbr" and key.prop == "label":
                code = (
                    self.graph.schema.vertex_label_code(value)
                    if isinstance(value, str)
                    else value
                )
                fraction *= max(statistics.vertex_label_selectivity(code), 1e-9)
            else:
                fraction *= 1.0 / max(key.effective_domain_size(self.graph), 1)
        return base * fraction

    def find_vertex_access_paths(
        self,
        direction: Direction,
        extension_predicate: Predicate,
    ) -> List[AccessPath]:
        """Access paths for extending a matched vertex to a new neighbour.

        Args:
            direction: FORWARD to follow out-edges of the bound vertex,
                BACKWARD to follow in-edges.
            extension_predicate: conjunction over the canonical variables
                ``bound``, ``edge`` and ``nbr`` that the matched edge/neighbour
                must satisfy (label equalities included as conjuncts).

        Returns:
            all usable access paths, primary index included.
        """
        rename = _VIEW_RENAME_FW if direction is Direction.FORWARD else _VIEW_RENAME_BW
        paths: List[AccessPath] = []

        candidates: List[Tuple[Union[AdjacencyIndex, VertexPartitionedIndex], Predicate, str]] = []
        primary_adj = self.primary.for_direction(direction)
        candidates.append((primary_adj, Predicate.true(), "primary"))
        for index in self._vertex_indexes.values():
            if index.direction is not direction:
                continue
            view_pred = index.view.predicate.renamed(rename)
            if index.view.edge_label is not None:
                view_pred = view_pred.and_also(
                    Predicate.of(cmp(PropertyRef("edge", "label"), "=", index.view.edge_label))
                )
            candidates.append((index, view_pred, "vertex_secondary"))

        for index, view_pred, kind in candidates:
            if not predicate_subsumes(view_pred, extension_predicate):
                continue
            key_values, covered = self._partition_values_from_predicate(
                index.config, extension_predicate
            )
            guaranteed = view_pred.and_also(Predicate(covered))
            residual = tuple(residual_conjuncts(guaranteed, extension_predicate))
            estimated = self._estimate_vertex_list_size(
                index, direction, key_values, guaranteed
            )
            paths.append(
                AccessPath(
                    index=index,
                    kind=kind,
                    direction=direction,
                    key_values=tuple(key_values),
                    sort_keys=tuple(index.config.sort_keys),
                    guaranteed=guaranteed,
                    residual=residual,
                    estimated_list_size=estimated,
                )
            )
        return paths

    # ------------------------------------------------------------------
    # access-path matching: edge-bound extensions
    # ------------------------------------------------------------------
    def find_edge_access_paths(
        self,
        adjacency: EdgeAdjacencyType,
        extension_predicate: Predicate,
    ) -> List[AccessPath]:
        """Access paths for extending a matched *edge* to an adjacent edge.

        Args:
            adjacency: the 2-path shape relating the bound edge and the new
                edge (which endpoint is shared, and the new edge's direction).
            extension_predicate: conjunction over ``bound_edge``, ``edge``,
                ``nbr`` (and optionally ``bound_src``/``bound_dst``).
        """
        paths: List[AccessPath] = []
        statistics = self.planner_statistics
        for index in self._edge_indexes.values():
            if index.adjacency is not adjacency:
                continue
            view_pred = index.view.predicate.renamed(_TWO_HOP_RENAME)
            if not predicate_subsumes(view_pred, extension_predicate):
                continue
            key_values, covered = self._partition_values_from_predicate(
                index.config, extension_predicate
            )
            guaranteed = view_pred.and_also(Predicate(covered))
            residual = tuple(residual_conjuncts(guaranteed, extension_predicate))
            # Entries per bound edge.
            estimated = statistics.index_entries(index.name) / max(statistics.num_edges, 1)
            for key, value in zip(index.config.partition_keys, key_values):
                estimated /= max(key.effective_domain_size(self.graph), 1)
            paths.append(
                AccessPath(
                    index=index,
                    kind="edge_secondary",
                    direction=adjacency.adjacency_direction,
                    key_values=tuple(key_values),
                    sort_keys=tuple(index.config.sort_keys),
                    guaranteed=guaranteed,
                    residual=residual,
                    estimated_list_size=estimated,
                    uses_bound_edge=True,
                )
            )
        return paths

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def memory_breakdowns(self):
        breakdowns = self.primary.memory_breakdowns()
        for index in self._vertex_indexes.values():
            breakdowns.append(index.memory_breakdown())
        for index in self._edge_indexes.values():
            breakdowns.append(index.memory_breakdown())
        return breakdowns

    def nbytes(self) -> int:
        return sum(b.total for b in self.memory_breakdowns())

    def describe(self) -> str:
        lines = ["IndexStore:"]
        lines.append(f"  {self.primary.describe()}")
        for index in self._vertex_indexes.values():
            lines.append(f"  {index.describe()}")
        for index in self._edge_indexes.values():
            lines.append(f"  {index.describe()}")
        return "\n".join(lines)
