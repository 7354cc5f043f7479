"""Secondary edge-partitioned A+ indexes (2-hop views).

An edge-partitioned index extends the notion of adjacency from vertices to
edges: for every *bound* edge ``eb`` it stores the adjacent edges ``eadj``
(one of the four 2-path shapes of Section III-B2) that satisfy the view's
predicate, partitioned by ``eb``'s edge ID and then by the index's nested
partitioning levels, sorted by its sort keys.

Every list bound to ``eb = (vs, vd)`` is a subset of the primary ID list of
the vertex shared between ``eb`` and its adjacent edges, so entries are stored
as offsets into that primary list, exactly like vertex-partitioned indexes
(Section III-B3).  Unlike vertex-partitioned indexes, an edge may appear in
many lists (once per bound edge whose predicate it satisfies), which is why
2-hop views must carry predicates relating both edges.

Construction does not test every 2-path.  A conjunct of the form
``eadj.p op eb.q + c`` (``op`` one of ``< <= > >= =``) accepts one slice of
the shared vertex's list once that list is ordered by ``p``, so each bound
edge's candidates are first narrowed by bisecting that order
(:func:`~repro.storage.csr.search_range`); the whole view predicate then
decides every remaining candidate.  :attr:`EdgePartitionedIndex.candidates_examined`
counts the pairs it was evaluated on.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import PropertyGraph
from ..graph.types import Direction, EDGE_ID_DTYPE, EdgeAdjacencyType
from ..predicates import CompareOp, Comparison, Predicate, PropertyRef, raw_column
from ..storage.csr import NestedCSR, range_positions, search_range
from ..storage.lex_order import lex_order
from .config import IndexConfig
from .lists import SecondaryLists
from .primary import AdjacencyIndex, PrimaryIndex
from .views import TwoHopView

#: Candidate pairs the view predicate is evaluated on at once during
#: construction; with the kept entries, it bounds the build's transient
#: memory whatever the number of 2-paths.
_BUILD_CHUNK_ENTRIES = 1 << 16


def _range_conjuncts(predicate: Predicate) -> Dict[str, List[Comparison]]:
    """The conjuncts that normalize to ``eadj.p op eb.q + c`` with ``op`` not
    ``<>``, grouped by ``p`` (normalization puts ``eadj`` on the left)."""
    bounds: Dict[str, List[Comparison]] = {}
    for comparison in predicate.conjuncts():
        comp = comparison.normalized()
        if (
            isinstance(comp.left, PropertyRef)
            and isinstance(comp.right, PropertyRef)
            and comp.left.var == "eadj"
            and comp.right.var == "eb"
            and comp.op is not CompareOp.NE
        ):
            bounds.setdefault(comp.left.prop, []).append(comp)
    return bounds


def shared_vertices(
    adjacency: EdgeAdjacencyType, graph: PropertyGraph, bound_edges: np.ndarray
) -> np.ndarray:
    """The vertex each bound edge shares with its adjacent edges: the owner of
    the primary list its offsets point into."""
    if adjacency.bound_endpoint_is_destination:
        return graph.edge_dst[bound_edges]
    return graph.edge_src[bound_edges]


def _build_entries(
    graph: PropertyGraph, view: TwoHopView, adj: AdjacencyIndex
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Enumerate all qualifying (bound edge, adjacent edge) pairs of ``view``,
    whose adjacent edges are read from the primary ``adj``.

    The enumeration is equivalent to running the 2-hop view as a join of
    the edge table with itself on the shared vertex, but a bound edge's
    candidates are only the slice of its shared vertex's primary list
    that :func:`_candidate_runs` leaves, a superset of the pairs the
    predicate accepts.  The whole predicate (plus "a bound edge never
    lists itself") decides them, ``_BUILD_CHUNK_ENTRIES`` at a time.

    Returns ``(bound_ids, positions, eadj_ids, vnbr_ids, examined)``: the
    kept pairs in (bound edge, primary position) order — the order the
    CSR's stable sort starts from — with each adjacent edge's position in
    ``adj``, and the number of pairs evaluated.
    """
    bound = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)
    shared = shared_vertices(view.adjacency, graph, bound)
    starts = adj.csr.bound_starts(shared).astype(np.int64)
    ends = adj.csr.bound_ends(shared).astype(np.int64)
    by_key, lo, hi = _candidate_runs(graph, view, adj, bound, starts, ends)

    counts = np.maximum(hi - lo, 0)
    run_ends = np.cumsum(counts)
    run_starts = run_ends - counts
    examined = int(run_ends[-1]) if len(run_ends) else 0
    num_positions = len(adj.id_lists)
    kept = []
    for first in range(0, examined, _BUILD_CHUNK_ENTRIES):
        last = min(first + _BUILD_CHUNK_ENTRIES, examined)
        # Candidates [first, last) of the concatenated runs: whole runs
        # in between, the two end runs clipped.
        rows = slice(
            int(np.searchsorted(run_ends, first, side="right")),
            int(np.searchsorted(run_ends, last, side="left")) + 1,
        )
        take_from = np.maximum(run_starts[rows], first)
        take = np.minimum(run_ends[rows], last) - take_from
        slots = range_positions(
            lo[rows] + take_from - run_starts[rows], take, last - first
        )
        chunk_bound = np.repeat(bound[rows], take)
        positions = by_key[slots]
        eadj_ids = adj.id_lists.edge_ids[positions]
        arrays = {
            "eb": ("edge", chunk_bound),
            "eadj": ("edge", eadj_ids),
            "vnbr": ("vertex", adj.id_lists.nbr_ids[positions].astype(np.int64)),
            "vs": ("vertex", graph.edge_src[chunk_bound]),
            "vd": ("vertex", graph.edge_dst[chunk_bound]),
        }
        mask = view.predicate.evaluate_bulk(graph, {}, arrays)
        # A bound edge never lists itself (a 2-path uses two distinct edges).
        mask &= eadj_ids != chunk_bound
        kept.append(chunk_bound[mask] * num_positions + positions[mask])

    pairs = np.sort(np.concatenate(kept)) if kept else np.empty(0, dtype=np.int64)
    bound_ids, positions = np.divmod(pairs, max(num_positions, 1))
    return (
        bound_ids.astype(EDGE_ID_DTYPE, copy=False),
        positions,
        adj.id_lists.edge_ids[positions],
        adj.id_lists.nbr_ids[positions].astype(np.int64),
        examined,
    )


def _candidate_runs(
    graph: PropertyGraph,
    view: TwoHopView,
    adj: AdjacencyIndex,
    bound: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bound edge's candidates, as a slice of one ordering of the
    primary positions.

    Returns ``(by_key, lo, hi)``: ``by_key`` holds the primary positions
    with every vertex's list (``[starts, ends)`` for a bound edge's shared
    vertex) reordered, and bound edge ``b``'s candidates are
    ``by_key[lo[b]:hi[b]]``.  For each property ``p`` of the view's
    :func:`_range_conjuncts` over a numeric column, the lists are
    stably sorted on ``p`` and each conjunct's probe ``eb.q + c`` —
    computed by :meth:`Comparison.shifted`, in the dtype the predicate
    compares in — is bisected into them; nulls sit where numpy sorts them
    (``NULL_INT`` first, NaN last), and a bisection compares exactly as
    the predicate does, so every accepted pair stays inside its slice.
    The ``p`` whose slices hold the fewest candidates in total wins.  With
    no such ``p`` the lists keep their order and the slices are whole.
    """
    edge_ids = adj.id_lists.edge_ids
    best = (np.arange(len(edge_ids), dtype=np.int64), starts, ends)
    fewest = int((ends - starts).sum())
    owners = graph.edge_src if adj.direction is Direction.FORWARD else graph.edge_dst
    for name, comparisons in _range_conjuncts(view.predicate).items():
        values = raw_column(graph, "edge", edge_ids, name)
        if values.dtype.kind not in "iuf":
            continue  # string columns stay unsearched
        by_key = lex_order([owners[edge_ids], values])
        keys = values[by_key]

        def keys_at(rows: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray]:
            return (keys[positions],)

        lo, hi = starts, ends
        for comp in comparisons:
            probe = comp.shifted(raw_column(graph, "edge", bound, comp.right.prop))
            found_lo, found_hi = search_range(starts, ends, comp.op, probe, keys_at)
            lo = np.maximum(lo, found_lo)
            hi = np.minimum(hi, found_hi)
        total = int(np.maximum(hi - lo, 0).sum())
        if total < fewest:
            best, fewest = (by_key, lo, hi), total
    return best


class EdgePartitionedIndex(SecondaryLists):
    """A secondary edge-partitioned A+ index over a 2-hop view.

    A list bound to edge ``eb`` holds offsets into the primary list of
    :func:`shared_vertices` ``(eb)``.

    Args:
        graph: the property graph.
        view: the 2-hop view; its adjacency type fixes which endpoint of the
            bound edge is shared and the direction of the adjacent edges.
        config: nested partitioning and sorting configuration applied to the
            adjacent edges.
        primary: the system's primary index pair; the adjacency lists of the
            shared vertices are read from it during construction and the
            offset lists point into it.
        name: optional index name.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        view: TwoHopView,
        config: IndexConfig,
        primary: PrimaryIndex,
        name: Optional[str] = None,
    ) -> None:
        config.validate(graph)
        started = time.perf_counter()
        adj = primary.for_direction(view.adjacency_direction)
        bound_ids, positions, eadj_ids, vnbr_ids, examined = _build_entries(
            graph, view, adj
        )
        csr, order = self._build_csr(
            graph, config, graph.num_edges, bound_ids, eadj_ids, vnbr_ids
        )
        offsets = adj.list_offsets(positions[order])
        self._install(graph, view, config, primary, csr, offsets, name)
        #: Pairs whose view predicate construction evaluated (None when the
        #: index was merged rather than built).
        self.candidates_examined: Optional[int] = examined
        self.creation_seconds = time.perf_counter() - started

    @classmethod
    def from_sorted(
        cls,
        graph: PropertyGraph,
        view: TwoHopView,
        config: IndexConfig,
        primary: PrimaryIndex,
        csr: NestedCSR,
        offsets: np.ndarray,
        name: Optional[str] = None,
    ) -> "EdgePartitionedIndex":
        """Build an index from pre-merged state, skipping the 2-hop join.

        ``offsets`` are the adjacent edges' offsets into the lists of the
        bound edges' shared vertices in ``primary``'s list space, already in
        index position order (surviving pairs spliced with the sorted delta
        pairs), and ``csr`` is built over the matching group IDs.  Used by
        incremental maintenance merges.
        """
        self = cls.__new__(cls)
        self._install(graph, view, config, primary, csr, offsets, name)
        self.candidates_examined = None
        self.creation_seconds = 0.0
        return self

    def _install(self, graph, view, config, primary, csr, offsets, name) -> None:
        self.graph = graph
        self.view = view
        self.config = config
        self.adjacency = view.adjacency
        self.name = name or view.name
        #: The primary of the adjacent edges' direction: the list space.
        self.primary: AdjacencyIndex = primary.for_direction(view.adjacency_direction)
        self._install_entries(csr, offsets)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def list_many(
        self,
        bound_edge_ids: np.ndarray,
        key_values: Sequence = (),
        sorted_filter=None,
        probe_ids=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`list`: adjacency lists of many bound edges at once,
        resolved through the primary (see :meth:`AdjacencyLists._read`)."""
        # Each index class keeps its own list_many: the benchmark tracer
        # wraps it per class to tell primary from secondary reads.
        return self._read(bound_edge_ids, key_values, sorted_filter, probe_ids)

    def shared_vertices(self, bound_edge_ids: np.ndarray) -> np.ndarray:
        """A bound edge's offsets point into its anchored endpoint's list."""
        return shared_vertices(self.adjacency, self.graph, bound_edge_ids)

    def describe(self) -> str:
        entries = f"{self.num_indexed_edges:,} entries"
        if self.candidates_examined is not None:
            entries += f" of {self.candidates_examined:,} pairs examined"
        return (
            f"EdgePartitionedIndex({self.name}, {self.adjacency.value}, "
            f"{self.config.describe()}, {entries})"
        )
