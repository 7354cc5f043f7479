"""Nested CSR: the constant-depth container behind every A+ index.

A nested CSR partitions a set of indexed entries (edges) first by a *bound*
element ID (a vertex ID for primary and vertex-partitioned indexes, an edge ID
for edge-partitioned indexes) and then by zero or more nested categorical
partitioning levels.  The most granular groups are contiguous ranges over flat
payload arrays, sorted by the configured sort keys.  Every lookup is a
constant number of array accesses — one offset computation per level — which
is the property that distinguishes adjacency-list indexes from tree indexes
(Section II of the paper).

The class is payload-agnostic: it computes the permutation that sorts the
entries and the group-boundary offsets; callers apply the permutation to their
own payload arrays (edge IDs, neighbour IDs, or offsets into a primary list).

Two access granularities are exposed:

* **tuple-at-a-time** — :meth:`group_range` returns the ``[start, end)`` range
  of one (partial) key prefix, a constant number of array accesses;
* **batch-at-a-time** — :meth:`gather` computes the ranges of a whole array of
  bound IDs (sharing one partition-code prefix) with pure array indexing and
  materializes a single flat gather-index covering every addressed list, so
  the operator stack can fetch thousands of adjacency lists without entering
  the Python interpreter per list.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexLookupError
from ..graph.types import CSR_OFFSET_BYTES, OFFSET_DTYPE
from ..predicates import CompareOp


def fold_group_ids(
    bound_ids: np.ndarray,
    level_codes: Sequence[np.ndarray],
    level_domains: Sequence[int],
) -> np.ndarray:
    """Fold bound IDs and nested partition codes into flat deepest-level
    group IDs, exactly as :class:`NestedCSR` numbers its most granular
    groups (``((bound * d1 + c1) * d2 + c2) ...``)."""
    group_ids = np.asarray(bound_ids, dtype=np.int64).copy()
    for codes, domain in zip(level_codes, level_domains):
        group_ids *= int(domain)
        group_ids += np.asarray(codes, dtype=np.int64)
    return group_ids


def search_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    probes: Sequence[np.ndarray],
    keys_at: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    side: str = "right",
) -> np.ndarray:
    """Bisect many sorted segments in lock-step, one probe per segment.

    Row ``i`` searches ``[starts[i], ends[i])`` — a range of positions whose
    keys are lex-sorted on the key columns — for the tuple
    ``(probes[0][i], probes[1][i], ...)``, the batched counterpart of
    ``bisect.bisect_left`` / ``bisect_right`` on tuple keys.  Keys are never
    materialized per segment: every round asks ``keys_at(rows, positions)``
    for the key columns (major first, aligned with ``probes``) at one middle
    position per still-open row, compares them lexicographically with the
    rows' probes and halves every open range at once, so the whole batch
    costs ``ceil(log2(longest segment + 1))`` rounds of vectorized compares
    and reads one key per segment per round.  Rows may repeat a segment and
    segments may be empty; with no key columns every probe ties with every
    entry.

    Returns the int64 insertion position of every row: with ``side="right"``
    after the entries that compare equal to the probe, with ``"left"``
    before them.
    """
    lo = np.array(starts, dtype=np.int64)
    hi = np.array(ends, dtype=np.int64)
    rows = np.flatnonzero(lo < hi)
    while len(rows):
        mid = (lo[rows] + hi[rows]) >> 1
        # Entry before probe?  Lexicographic, minor column first; a full tie
        # goes before the probe only under side="right".
        before = np.full(len(rows), side == "right")
        columns = list(zip(keys_at(rows, mid), probes))
        for entry, probe in reversed(columns):
            probe = probe[rows]
            before = (entry < probe) | ((entry == probe) & before)
        lo[rows[before]] = mid[before] + 1
        hi[rows[~before]] = mid[~before]
        rows = rows[lo[rows] < hi[rows]]
    return lo


#: Search side of the first entry (``lo``) and of the end (``hi``) of the run
#: whose keys satisfy ``key op probe`` in a segment sorted on ``key``.
LOWER_SIDE = {CompareOp.GT: "right", CompareOp.GE: "left", CompareOp.EQ: "left"}
UPPER_SIDE = {CompareOp.LT: "left", CompareOp.LE: "right", CompareOp.EQ: "right"}


def search_range(
    starts: np.ndarray,
    ends: np.ndarray,
    op: CompareOp,
    probe,
    keys_at: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``[lo, hi)`` run of every sorted segment whose keys satisfy
    ``key op probe``.

    ``op`` is one of ``< <= > >= =``; ``probe`` is one value per segment or
    one for all.  A side ``op`` leaves open stays at the segment's own end
    (``lo = starts`` under ``<``); a side it bounds is one
    :func:`search_segments` call, ``keys_at`` reading the one key column at
    the probed positions only.  Under ``=`` the upper search starts at
    ``lo``.  Keys compare as the predicate does, so the null sentinels the
    sort keys map nulls to (``int64.max`` / ``+inf``) sort last.
    """
    if op not in LOWER_SIDE and op not in UPPER_SIDE:
        raise ValueError(f"no sorted range satisfies key {op.value} probe")
    lo = np.asarray(starts, dtype=np.int64)
    hi = np.asarray(ends, dtype=np.int64)
    probes = (np.broadcast_to(np.asarray(probe), lo.shape),)
    if op in LOWER_SIDE:
        lo = search_segments(lo, hi, probes, keys_at, LOWER_SIDE[op])
    if op in UPPER_SIDE:
        hi = search_segments(lo, hi, probes, keys_at, UPPER_SIDE[op])
    return lo, hi


class Splice:
    """Where a sorted delta and the survivors of a sorted base run land.

    ``survivors`` masks the base positions that are kept, ``insert_at`` is
    every delta entry's insertion point among *all* base positions (dead ones
    included) and ``delta_positions`` its position in the merged run.
    """

    def __init__(
        self, num_base: int, dead_positions: np.ndarray, insert_at: np.ndarray
    ) -> None:
        self.insert_at = insert_at
        self.survivors = np.ones(num_base, dtype=bool)
        self.survivors[dead_positions] = False
        self.delta_positions = (
            insert_at
            - np.searchsorted(dead_positions, insert_at)
            + np.arange(len(insert_at), dtype=np.int64)
        )
        self.num_entries = num_base - len(dead_positions) + len(insert_at)
        self._from_base = np.ones(self.num_entries, dtype=bool)
        self._from_base[self.delta_positions] = False

    def merge(self, kept: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """One payload array: a masked copy of the survivors' values
        (``kept``, in base order) plus a scatter of the delta's."""
        out = np.empty(self.num_entries, dtype=kept.dtype)
        out[self._from_base] = kept
        out[self.delta_positions] = delta
        return out

    @cached_property
    def new_positions(self) -> np.ndarray:
        """Merged position of every base position (``-1`` for dead ones)."""
        moved = np.full(len(self.survivors), -1, dtype=np.int64)
        moved[self.survivors] = np.flatnonzero(self._from_base)
        return moved


def merge_sorted_runs(
    offsets: np.ndarray,
    delta_groups: np.ndarray,
    delta_keys: Sequence[np.ndarray],
    keys_at: Callable[[np.ndarray, np.ndarray], Sequence[np.ndarray]],
    dead_positions: np.ndarray,
    side: str = "right",
) -> Splice:
    """Search-and-place step of the incremental index merge.

    The base run is an index's existing entries, in index order under the
    CSR ``offsets`` (deepest groups, each lex-sorted on the sort keys); the
    delta run is the pending entries, already lex-sorted on ``(delta_groups,
    *delta_keys)``.  Nothing is derived for the base entries: every delta
    entry is bisected into its own group ``[offsets[g], offsets[g + 1])`` of
    the *old* CSR by :func:`search_segments` (``keys_at`` reads the old
    entries' sort keys at the probed positions only), ties landing after the
    base entry under ``side="right"`` — the stable-sort convention for
    appended entries with larger IDs.  Tombstones are positions too
    (``dead_positions``, ascending): an insertion point shifts down by the
    dead entries before it and up by the delta entries before it.

    Returns the :class:`Splice` that places each payload array with one
    masked copy and one scatter; :meth:`NestedCSR.spliced` gives the matching
    offsets.  The result is the order a stable lexsort of the surviving and
    pending entries together would produce.
    """
    delta_groups = np.asarray(delta_groups, dtype=np.int64)
    insert_at = search_segments(
        offsets[delta_groups], offsets[delta_groups + 1], delta_keys, keys_at, side
    )
    return Splice(int(offsets[-1]), dead_positions, insert_at)


def range_positions(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])`` over ``i``.

    ``positions[k] = starts[row(k)] + (k - out_start[row(k)])`` where
    ``out_start`` is the output-side prefix sum of the counts (``total`` is
    their sum) — one ``repeat`` and one ``arange``, no loop over rows.
    """
    out_starts = np.cumsum(counts) - counts
    return np.repeat(starts - out_starts, counts) + np.arange(total, dtype=np.int64)


def segment_mask_counts(counts: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-segment True counts of a mask over concatenated segments.

    ``counts`` partitions ``mask`` into consecutive segments (as produced by
    :meth:`NestedCSR.gather`); the result is the number of surviving entries
    per segment, so that ``array[mask]`` can be re-segmented without a Python
    loop.
    """
    kept = np.empty(len(mask) + 1, dtype=np.int64)
    kept[0] = 0
    np.cumsum(mask, out=kept[1:])
    ends = np.cumsum(counts)
    return kept[ends] - kept[ends - counts]


class NestedCSR:
    """Partition/sort skeleton of one A+ index.

    Args:
        num_bound: size of the bound-ID domain (number of vertices or edges).
        bound_ids: int array (length = number of indexed entries) giving the
            bound element of each entry.
        level_codes: one int array per nested partitioning level giving the
            *effective* partition code of each entry (nulls already mapped to
            the trailing partition).
        level_domains: effective domain size of each level (including the
            null partition).
        sort_values: sort-key value arrays, major key first; entries inside
            the most granular group are ordered by these values (ties broken
            by input order, i.e. the sort is stable).
    """

    def __init__(
        self,
        num_bound: int,
        bound_ids: np.ndarray,
        level_codes: Sequence[np.ndarray],
        level_domains: Sequence[int],
        sort_values: Sequence[np.ndarray],
    ) -> None:
        if len(level_codes) != len(level_domains):
            raise IndexLookupError("level_codes and level_domains length mismatch")
        self.num_bound = int(num_bound)
        self.level_domains = [int(d) for d in level_domains]
        self.num_levels = len(self.level_domains)
        num_entries = len(bound_ids)
        self.num_entries = num_entries

        bound_ids = np.asarray(bound_ids, dtype=np.int64)
        codes = [np.asarray(c, dtype=np.int64) for c in level_codes]

        # Total number of most-granular groups, and the number of most
        # granular groups under each bound ID (cached: the product is needed
        # by every vectorized lookup).
        per_bound = 1
        for domain in self.level_domains:
            per_bound *= domain
        self._per_bound = per_bound
        total_groups = self.num_bound * per_bound
        self._total_groups = total_groups

        # Flattened group ID of each entry at the deepest level.
        group_ids = fold_group_ids(bound_ids, codes, self.level_domains)

        # Sort order: bound ID, then partition codes (already folded into the
        # group ID), then the sort keys (major first).  ``np.lexsort`` treats
        # its *last* key as the primary key, so keys are passed minor-first.
        lexsort_keys: List[np.ndarray] = []
        for values in reversed(list(sort_values)):
            lexsort_keys.append(np.asarray(values))
        lexsort_keys.append(group_ids)
        if num_entries:
            self.order = np.lexsort(tuple(lexsort_keys)).astype(np.int64)
        else:
            self.order = np.empty(0, dtype=np.int64)

        counts = np.bincount(group_ids, minlength=total_groups)
        # Cumsum directly into a preallocated offsets array; building it via
        # ``concatenate([[0], cumsum]).astype(...)`` would allocate the array
        # twice.
        self.offsets = np.empty(total_groups + 1, dtype=OFFSET_DTYPE)
        self.offsets[0] = 0
        np.cumsum(counts, out=self.offsets[1:])

    def grown(self, extra_bounds: int) -> "NestedCSR":
        """This CSR over a bound domain extended by ``extra_bounds`` IDs
        with empty lists (same entries, same positions)."""
        grown = copy.copy(self)
        grown.num_bound += extra_bounds
        grown._total_groups += extra_bounds * self._per_bound
        grown.offsets = np.concatenate(
            [self.offsets, np.full(extra_bounds * self._per_bound, self.offsets[-1])]
        )
        return grown

    def spliced(
        self,
        delta_groups: np.ndarray,
        dead_positions: np.ndarray,
        keep_bounds: Optional[np.ndarray] = None,
    ) -> "NestedCSR":
        """The CSR after a :class:`Splice`: the old offsets moved by the
        running sum of the delta's groups minus the dead positions' groups —
        per group, never per entry.

        ``keep_bounds`` (a mask over the bound IDs) drops whole bound IDs
        whose lists the splice emptied, renumbering the rest in order: an
        edge-partitioned index's bound domain is the edge IDs, which a flush
        compacts over the tombstones.  The result has no ``order``: spliced
        payloads are already in index order.
        """
        dead_groups = np.searchsorted(self.offsets, dead_positions, side="right") - 1
        change = np.bincount(delta_groups, minlength=self._total_groups)
        change -= np.bincount(dead_groups, minlength=self._total_groups)
        ends = np.cumsum(change)
        ends += self.offsets[1:]
        if keep_bounds is not None:
            ends = ends.reshape(-1, self._per_bound)[keep_bounds].ravel()
        merged = copy.copy(self)
        merged.order = None
        merged.num_bound = len(ends) // self._per_bound
        merged._total_groups = len(ends)
        merged.num_entries = int(ends[-1]) if len(ends) else 0
        merged.offsets = np.concatenate([[0], ends]).astype(OFFSET_DTYPE, copy=False)
        return merged

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def group_range(
        self, bound_id: int, codes: Sequence[int] = ()
    ) -> Tuple[int, int]:
        """Return the ``[start, end)`` entry range for a (partial) key prefix.

        Args:
            bound_id: the bound vertex or edge ID.
            codes: effective partition codes for a *prefix* of the nested
                levels.  Fewer codes than levels selects the coarser list that
                unions all deeper partitions (e.g. "all edges of v with label
                Wire" when the index also partitions by currency).
        """
        if bound_id < 0 or bound_id >= self.num_bound:
            raise IndexLookupError(
                f"bound id {bound_id} out of range [0, {self.num_bound})"
            )
        if len(codes) > self.num_levels:
            raise IndexLookupError(
                f"{len(codes)} partition codes supplied but index has "
                f"{self.num_levels} levels"
            )
        group = int(bound_id)
        for position, code in enumerate(codes):
            domain = self.level_domains[position]
            code = int(code)
            if code < 0 or code >= domain:
                raise IndexLookupError(
                    f"partition code {code} out of range [0, {domain}) at level "
                    f"{position + 1}"
                )
            group = group * domain + code
        remaining = 1
        for domain in self.level_domains[len(codes):]:
            remaining *= domain
        start_group = group * remaining
        end_group = (group + 1) * remaining
        return int(self.offsets[start_group]), int(self.offsets[end_group])

    def bound_range(self, bound_id: int) -> Tuple[int, int]:
        """Entry range of all entries bound to ``bound_id`` (level-0 list)."""
        return self.group_range(bound_id, ())

    def _prefix_groups(
        self, bound_ids: np.ndarray, codes: Sequence[int] = ()
    ) -> Tuple[np.ndarray, int]:
        """Vectorized form of the group computation in :meth:`group_range`.

        Returns the (partial) group ID of every bound ID under the shared
        partition-code prefix, and the number of most-granular groups each
        partial group spans.
        """
        bound_ids = np.asarray(bound_ids, dtype=np.int64)
        if len(codes) > self.num_levels:
            raise IndexLookupError(
                f"{len(codes)} partition codes supplied but index has "
                f"{self.num_levels} levels"
            )
        if len(bound_ids) and (
            int(bound_ids.min()) < 0 or int(bound_ids.max()) >= self.num_bound
        ):
            raise IndexLookupError(
                f"bound ids out of range [0, {self.num_bound})"
            )
        group = bound_ids
        for position, code in enumerate(codes):
            domain = self.level_domains[position]
            code = int(code)
            if code < 0 or code >= domain:
                raise IndexLookupError(
                    f"partition code {code} out of range [0, {domain}) at level "
                    f"{position + 1}"
                )
            group = group * domain + code
        remaining = 1
        for domain in self.level_domains[len(codes):]:
            remaining *= domain
        return group, remaining

    def prefix_ranges(
        self, bound_ids: np.ndarray, codes: Sequence[int] = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``[start, end)`` positions for many bound IDs.

        Generalizes :meth:`bound_starts`/:meth:`bound_ends` to an arbitrary
        partition-code prefix shared by all rows; the batched counterpart of
        :meth:`group_range`.
        """
        group, remaining = self._prefix_groups(bound_ids, codes)
        start_groups = group * remaining
        return (
            self.offsets[start_groups].astype(np.int64),
            self.offsets[start_groups + remaining].astype(np.int64),
        )

    def prefix_starts(
        self, bound_ids: np.ndarray, codes: Sequence[int] = ()
    ) -> np.ndarray:
        """Vectorized start positions for many bound IDs under a code prefix."""
        return self.prefix_ranges(bound_ids, codes)[0]

    def prefix_ends(
        self, bound_ids: np.ndarray, codes: Sequence[int] = ()
    ) -> np.ndarray:
        """Vectorized end positions for many bound IDs under a code prefix."""
        return self.prefix_ranges(bound_ids, codes)[1]

    def bound_starts(self, bound_ids: np.ndarray) -> np.ndarray:
        """Vectorized start positions of the level-0 lists of many bound IDs."""
        return self.offsets[np.asarray(bound_ids, dtype=np.int64) * self._per_bound]

    def bound_ends(self, bound_ids: np.ndarray) -> np.ndarray:
        """Vectorized end positions of the level-0 lists of many bound IDs."""
        return self.offsets[
            (np.asarray(bound_ids, dtype=np.int64) + 1) * self._per_bound
        ]

    def gather(
        self, bound_ids: np.ndarray, codes: Sequence[int] = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`group_range`: one flat gather-index for many lists.

        Computes the ``[start, end)`` range of every bound ID's list under the
        shared partition-code prefix with pure array indexing, then expands the
        ranges into a single flat array of entry positions using
        ``np.repeat``-style segment arithmetic — no Python loop over rows.

        Args:
            bound_ids: int array of bound vertex/edge IDs (may repeat).
            codes: effective partition codes for a prefix of the nested
                levels, shared by all rows.

        Returns:
            ``(positions, counts)``: ``positions`` is the int64 concatenation
            of ``arange(start_i, end_i)`` over the rows, suitable for fancy
            indexing into the payload arrays; ``counts`` is the int64 per-row
            list length, so ``positions`` splits back into rows at
            ``cumsum(counts)``.
        """
        starts, ends = self.prefix_ranges(bound_ids, codes)
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        return range_positions(starts, counts, total), counts

    def list_length(self, bound_id: int, codes: Sequence[int] = ()) -> int:
        start, end = self.group_range(bound_id, codes)
        return end - start

    def nonempty_bounds(self) -> np.ndarray:
        """Return the bound IDs that have at least one entry."""
        start_indices = np.arange(self.num_bound, dtype=np.int64) * self._per_bound
        starts = self.offsets[start_indices]
        ends = self.offsets[start_indices + self._per_bound]
        return np.nonzero(ends > starts)[0]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def level_group_counts(self) -> List[int]:
        """Number of groups at each level (level 0 = bound IDs)."""
        counts = [self.num_bound]
        for domain in self.level_domains:
            counts.append(counts[-1] * domain)
        return counts

    def nbytes_levels(self) -> int:
        """Bytes charged for the partitioning levels of this CSR.

        Every level stores one CSR offset (4 bytes, Section IV-B) per group at
        that level; this mirrors the paper's accounting where adding a
        partitioning level adds a new offset layer.
        """
        return sum(count * CSR_OFFSET_BYTES for count in self.level_group_counts())

    def describe(self) -> str:
        return (
            f"NestedCSR(bound={self.num_bound}, entries={self.num_entries}, "
            f"levels={self.num_levels}, domains={self.level_domains})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
