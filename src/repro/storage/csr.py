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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexLookupError
from ..graph.types import CSR_OFFSET_BYTES, OFFSET_DTYPE

#: Largest packed lexicographic-key domain folded into a single int64.
_PACK_LIMIT = 1 << 62


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


def _rank_encode(base: np.ndarray, delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Order-preserving integer ranks of two arrays over their joint values."""
    uniq = np.unique(np.concatenate([base, delta]))
    return (
        np.searchsorted(uniq, base).astype(np.int64),
        np.searchsorted(uniq, delta).astype(np.int64),
        len(uniq),
    )


def _packed_composites(
    base_keys: Sequence[np.ndarray], delta_keys: Sequence[np.ndarray]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Fold aligned lexicographic key columns into one int64 per entry.

    Integer columns are shifted to a zero base; float columns and integer
    columns whose raw range is excessive (e.g. null markers near the int64
    extremes) are rank-encoded over the joint values, which preserves order
    and exact equality.  Returns ``None`` when even the rank-encoded domains
    cannot be packed into an int64 without overflow.
    """
    levels: List[Tuple[np.ndarray, np.ndarray, int]] = []
    for base, delta in zip(base_keys, delta_keys):
        if base.dtype.kind in "iu" and delta.dtype.kind in "iu":
            lo = min(int(base.min()), int(delta.min()))
            hi = max(int(base.max()), int(delta.max()))
            domain = hi - lo + 1
            if domain <= _PACK_LIMIT:
                levels.append(
                    (
                        base.astype(np.int64) - lo,
                        delta.astype(np.int64) - lo,
                        domain,
                    )
                )
                continue
        levels.append(_rank_encode(base, delta))
    total = 1
    for _, _, domain in levels:
        total *= domain  # Python ints: no silent overflow.
    if total > _PACK_LIMIT:
        return None
    base_comp = np.zeros(len(base_keys[0]), dtype=np.int64)
    delta_comp = np.zeros(len(delta_keys[0]), dtype=np.int64)
    for base, delta, domain in levels:
        base_comp *= domain
        base_comp += base
        delta_comp *= domain
        delta_comp += delta
    return base_comp, delta_comp


def merge_sorted_runs(
    base_keys: Sequence[np.ndarray],
    delta_keys: Sequence[np.ndarray],
    base_first_on_ties: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two individually lex-sorted runs into one globally sorted order.

    This is the vectorized splice behind incremental index maintenance: the
    surviving entries of an index (already in index order) form the base run
    and the sorted pending insertions form the delta run.  Keys are aligned
    column sequences, **major key first** (typically the flat group ID
    followed by the sort-key values).

    The fast path folds the key columns into one int64 composite per entry
    (see :func:`_packed_composites`) and finds every delta entry's insertion
    point with a single ``searchsorted`` into the base run; output positions
    follow from pure index arithmetic.  When the composite domain cannot fit
    in an int64 the merge falls back to one stable ``np.lexsort`` over the
    concatenated columns — still loop-free, with identical results.

    Args:
        base_keys / delta_keys: aligned key columns, major first; each run
            must already be lex-sorted on its own keys (ties in input order).
        base_first_on_ties: when True, base entries precede delta entries
            that compare equal on every key (the stable-sort convention for
            appended entries with larger IDs).

    Returns:
        ``(base_positions, delta_positions)``: the output position of every
        base / delta entry in the merged order.  Both runs keep their
        internal relative order.
    """
    if len(base_keys) != len(delta_keys) or not base_keys:
        raise IndexLookupError("merge_sorted_runs requires aligned, non-empty key lists")
    base_keys = [np.asarray(keys) for keys in base_keys]
    delta_keys = [np.asarray(keys) for keys in delta_keys]
    num_base = len(base_keys[0])
    num_delta = len(delta_keys[0])
    if num_delta == 0:
        return np.arange(num_base, dtype=np.int64), np.empty(0, dtype=np.int64)
    if num_base == 0:
        return np.empty(0, dtype=np.int64), np.arange(num_delta, dtype=np.int64)

    packed = _packed_composites(base_keys, delta_keys)
    if packed is not None:
        base_comp, delta_comp = packed
        side = "right" if base_first_on_ties else "left"
        insert_at = np.searchsorted(base_comp, delta_comp, side=side).astype(np.int64)
        delta_positions = insert_at + np.arange(num_delta, dtype=np.int64)
        # A delta entry precedes base entry i exactly when its insertion
        # point is <= i (both tie conventions reduce to the same test).
        base_positions = np.arange(num_base, dtype=np.int64) + np.searchsorted(
            insert_at, np.arange(num_base, dtype=np.int64), side="right"
        )
        return base_positions, delta_positions

    # Fallback: one stable lexsort of the concatenated columns with a
    # run-indicator as the most minor key to realize the tie convention.
    indicator = np.concatenate(
        [
            np.zeros(num_base, dtype=np.int8),
            np.ones(num_delta, dtype=np.int8),
        ]
    )
    if not base_first_on_ties:
        indicator = 1 - indicator
    lexsort_keys: List[np.ndarray] = [indicator]
    for base, delta in zip(reversed(base_keys), reversed(delta_keys)):
        lexsort_keys.append(np.concatenate([base, delta]))
    order = np.lexsort(tuple(lexsort_keys))
    inverse = np.empty(num_base + num_delta, dtype=np.int64)
    inverse[order] = np.arange(num_base + num_delta, dtype=np.int64)
    return inverse[:num_base], inverse[num_base:]


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

    @classmethod
    def from_sorted_groups(
        cls,
        num_bound: int,
        level_domains: Sequence[int],
        group_ids: np.ndarray,
    ) -> "NestedCSR":
        """Build a nested CSR whose entries are already in index order.

        The incremental-maintenance path merges an index's surviving entries
        with its sorted delta outside the CSR (see
        :func:`merge_sorted_runs`); this constructor then installs the
        offsets over the pre-sorted deepest-level ``group_ids`` without
        re-running the O(n log n) lexsort.  ``order`` is the identity
        permutation because the caller's payload arrays are already sorted.
        """
        self = object.__new__(cls)
        self.num_bound = int(num_bound)
        self.level_domains = [int(d) for d in level_domains]
        self.num_levels = len(self.level_domains)
        group_ids = np.asarray(group_ids, dtype=np.int64)
        num_entries = len(group_ids)
        self.num_entries = num_entries
        per_bound = 1
        for domain in self.level_domains:
            per_bound *= domain
        self._per_bound = per_bound
        total_groups = self.num_bound * per_bound
        self._total_groups = total_groups
        if num_entries and np.any(group_ids[1:] < group_ids[:-1]):
            raise IndexLookupError("from_sorted_groups requires sorted group IDs")
        self.order = np.arange(num_entries, dtype=np.int64)
        counts = np.bincount(group_ids, minlength=total_groups)
        self.offsets = np.empty(total_groups + 1, dtype=OFFSET_DTYPE)
        self.offsets[0] = 0
        np.cumsum(counts, out=self.offsets[1:])
        return self

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
