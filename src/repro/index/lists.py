"""A+ lists: the read surface shared by primary and secondary A+ indexes.

Section III describes one structure under every A+ index: a nested-
partitioned CSR whose most granular lists are sorted.  A primary list holds
``(edge ID, neighbour ID)`` pairs; a secondary list holds offsets into the
primary list of the vertex it shares with its entries (Section III-B3).
:class:`AdjacencyLists` owns the CSR build and every read of such lists —
key codes, ranges, batched reads, counts and the search of a sorted-range
filter — so that an index class keeps only how its entries are selected and
built, and what one CSR position holds.

Every read goes through :meth:`AdjacencyLists._read`: the addressed CSR
ranges (cut to the admitted runs under a sorted-range filter, one
``searchsorted`` per bounded side on the index's
:class:`~repro.storage.csr.SearchKey`), expanded into one flat position
array, then resolved by the payload.  A payload supplies two hooks:

* ``_list_starts(bound_ids)`` — per row, what the row's positions are
  relative to (``None`` when positions address the payload directly);
* ``_resolve_many(positions, counts, list_starts)`` — ``(edge_ids,
  nbr_ids)`` at the flat positions of rows of ``counts`` entries.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import IndexLookupError
from ..graph.graph import PropertyGraph
from ..storage.csr import NestedCSR, SearchKey, range_positions
from ..storage.memory import MemoryBreakdown
from ..storage.offset_lists import OffsetLists
from ..storage.sort_keys import SortKey, sort_values_matrix
from .config import IndexConfig


class AdjacencyLists:
    """A nested CSR of sorted lists plus the one read over it.

    Subclasses set ``graph``, ``config``, ``csr`` and ``name`` and supply
    the payload hooks of the module docstring.
    """

    graph: PropertyGraph
    config: IndexConfig
    csr: NestedCSR
    name: str

    @staticmethod
    def _build_csr(
        graph: PropertyGraph,
        config: IndexConfig,
        num_bound: int,
        bound_ids: np.ndarray,
        edge_ids: np.ndarray,
        nbr_ids: np.ndarray,
    ) -> Tuple[NestedCSR, np.ndarray]:
        """``(csr, order)``: the CSR that partitions entries ``(bound, edge,
        neighbour)`` by bound ID and ``config``'s levels and sorts them by its
        sort keys, and the permutation that puts the entries in its order."""
        return NestedCSR.build(
            num_bound=num_bound,
            bound_ids=bound_ids,
            level_codes=[
                key.effective_codes(graph, edge_ids, nbr_ids)
                for key in config.partition_keys
            ],
            level_domains=[
                key.effective_domain_size(graph) for key in config.partition_keys
            ],
            sort_values=sort_values_matrix(config.sort_keys, graph, edge_ids, nbr_ids),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_codes(self, key_values: Sequence) -> List[int]:
        """Map query-level partition key values to effective codes.

        ``key_values`` is a prefix of values aligned with the configured
        partition keys; each value may be a label/category name, an integer
        code, or ``None`` (the null partition).
        """
        if len(key_values) > len(self.config.partition_keys):
            raise IndexLookupError(
                f"{len(key_values)} partition values supplied but index has "
                f"{len(self.config.partition_keys)} levels"
            )
        return [
            key.code_for_value(self.graph, value)
            for key, value in zip(self.config.partition_keys, key_values)
        ]

    def list_range(self, bound_id: int, key_values: Sequence = ()) -> Tuple[int, int]:
        """The ``[start, end)`` position range of one (sub-)list."""
        return self.csr.group_range(bound_id, self.key_codes(key_values))

    def list(self, bound_id: int, key_values: Sequence = ()) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge_ids, nbr_ids)`` of one (sub-)list: the batched read of one
        bound ID."""
        edge_ids, nbr_ids, _ = self._read(np.array([bound_id]), key_values)
        return edge_ids, nbr_ids

    def sorted_runs(
        self, bound_id: int, key_values: Sequence = ()
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(edge_ids, nbr_ids)`` of every most granular list under one
        (partial) prefix, in position order: what :meth:`list` returns for
        a coarse prefix, one list per run sorted on the sort keys."""
        open_levels = self.csr.level_domains[len(key_values):]
        return [
            self.list(bound_id, list(key_values) + list(codes))
            for codes in itertools.product(*(range(domain) for domain in open_levels))
        ]

    def positions_many(
        self,
        bound_ids: np.ndarray,
        key_values: Sequence = (),
        sorted_filter=None,
        probe_ids=None,
    ) -> Tuple[np.ndarray, np.ndarray, object]:
        """``(positions, counts, list_starts)`` of many lists: the flat CSR
        positions of every addressed list (in ``bound_ids`` order) and each
        list's length.

        With no filter the positions come from one
        :meth:`~repro.storage.csr.NestedCSR.gather`.  Under a
        :class:`~repro.query.operators.SortedRangeFilter` they cover the
        admitted run of each list only (:meth:`_search`); ``probe_ids`` are
        the rows' IDs of the filter's probe variable when it has one.
        """
        bound_ids = np.asarray(bound_ids, dtype=np.int64)
        codes = self.key_codes(key_values)
        if sorted_filter is None:
            positions, counts = self.csr.gather(bound_ids, codes)
            return positions, counts, self._list_starts(bound_ids)
        lo, hi = self._search(bound_ids, codes, sorted_filter, probe_ids)
        runs = hi - lo
        counts = runs.sum(axis=1)
        positions = range_positions(lo.ravel(), runs.ravel(), int(counts.sum()))
        return positions, counts, self._list_starts(bound_ids)

    def _search(
        self, bound_ids: np.ndarray, codes: Sequence[int], sorted_filter, probe_ids
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, one row per bound ID and one column per most granular
        group under ``codes``: the run of each group that ``sorted_filter``
        admits.

        A coarse prefix (fewer codes than levels) unions several granular
        groups, each sorted on its own, so each is searched once and their
        runs are read in group order.  The search itself is
        :meth:`~repro.storage.csr.SearchKey.runs` over this index's
        :meth:`search_key`.
        """
        groups = self.csr.granular_groups(bound_ids, codes)
        if probe_ids is not None:
            probe_ids = np.repeat(
                np.asarray(probe_ids, dtype=np.int64), groups.shape[1]
            )
        lo, hi = sorted_filter.search(
            self.graph, self.search_key(sorted_filter.sort_key), groups.ravel(), probe_ids
        )
        return lo.reshape(groups.shape), hi.reshape(groups.shape)

    def search_key(self, sort_key: SortKey) -> SearchKey:
        """The :class:`~repro.storage.csr.SearchKey` of this index's lists,
        built on the first sorted read and kept with the index object (a
        flush builds new index objects, so the key never outlives its
        entries).  ``memory_report()`` does not charge it: it is a read
        accelerator derived from the lists, not part of the paper's layout
        (Section IV-B)."""
        if not self.config.sort_keys or sort_key != self.config.sort_keys[0]:
            raise IndexLookupError(
                f"{self.name} lists are not sorted on {sort_key.describe()}"
            )
        key = getattr(self, "_search_key", None)
        if key is None:
            edge_ids, nbr_ids, _ = self._read(
                np.arange(self.csr.num_bound, dtype=np.int64)
            )
            key = SearchKey(self.csr.offsets, sort_key.values(self.graph, edge_ids, nbr_ids))
            self._search_key = key
        return key

    def _read(
        self,
        bound_ids: np.ndarray,
        key_values: Sequence = (),
        sorted_filter=None,
        probe_ids=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edge_ids, nbr_ids, counts)``: the concatenation of the addressed
        lists (each cut to what ``sorted_filter`` admits) and their lengths,
        equal to looping :meth:`list` without the per-list round trip."""
        positions, counts, list_starts = self.positions_many(
            bound_ids, key_values, sorted_filter, probe_ids
        )
        edge_ids, nbr_ids = self._resolve_many(positions, counts, list_starts)
        return edge_ids, nbr_ids, counts

    def count_many(
        self,
        bound_ids: np.ndarray,
        key_values: Sequence = (),
        sorted_filter=None,
        probe_ids=None,
    ) -> np.ndarray:
        """Lengths of the lists ``list_many`` would return.

        Read off the CSR offsets, plus the search of a filter: no gather
        index and no ID arrays, which is all an aggregate sink needs of an
        extension with no residual.
        """
        bound_ids = np.asarray(bound_ids, dtype=np.int64)
        codes = self.key_codes(key_values)
        if sorted_filter is None:
            starts, ends = self.csr.prefix_ranges(bound_ids, codes)
            return ends - starts
        lo, hi = self._search(bound_ids, codes, sorted_filter, probe_ids)
        return (hi - lo).sum(axis=1)

    def segments_sorted_by(self, key: SortKey, key_values: Sequence = ()) -> bool:
        """True when every list returned under this key-value prefix is
        internally sorted on ``key`` (batched index contract; lets the
        segment intersection kernel skip re-sorting ``list_many`` output).
        """
        return self.config.granular_segments_sorted_by(key, key_values)

    def degree(self, bound_id: int, key_values: Sequence = ()) -> int:
        start, end = self.list_range(bound_id, key_values)
        return end - start

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return self.memory_breakdown().total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class SecondaryLists(AdjacencyLists):
    """Lists stored as offsets into the lists of a primary index.

    The list bound to ``b`` is a subset of the primary list of the vertex
    ``shared_vertices(b)`` (the list space), so each entry is an
    offset into that list (Section III-B3).  Subclasses set ``primary``,
    define ``shared_vertices(bound_ids)`` and install their entries with
    :meth:`_install_entries`.
    """

    #: True when the index reuses the primary's partitioning levels and is
    #: charged for its offsets only.
    shares_partition_levels = False

    def _list_starts(self, bound_ids: np.ndarray) -> np.ndarray:
        return self.primary.csr.bound_starts(self.shared_vertices(bound_ids))

    def _resolve_many(
        self, positions: np.ndarray, counts: np.ndarray, list_starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        ids = self.primary.id_lists
        return self.offset_lists.resolve_many(
            positions, list_starts, counts, ids.edge_ids, ids.nbr_ids
        )

    def _install_entries(self, csr: NestedCSR, positions: np.ndarray) -> None:
        """Install ``csr`` and its entries, given as positions in the primary's
        ID lists in index order: each is stored as its offset into the
        primary list that holds it (its bound ID's shared vertex's list)."""
        self.csr = csr
        self.offset_lists = OffsetLists(self.primary.list_offsets(positions))

    def primary_positions(self) -> np.ndarray:
        """Every entry's position in the primary's ID lists, in index order."""
        return self._list_starts(self.csr.bound_ids()) + self.offset_lists.offsets

    @property
    def num_indexed_edges(self) -> int:
        """Number of entries stored (an edge counts once per list it is in)."""
        return len(self.offset_lists)

    def memory_breakdown(self) -> MemoryBreakdown:
        level_bytes = 0 if self.shares_partition_levels else self.csr.nbytes_levels()
        return MemoryBreakdown(
            name=self.name,
            offset_list_bytes=self.offset_lists.nbytes(self.csr),
            partition_level_bytes=level_bytes,
        )
