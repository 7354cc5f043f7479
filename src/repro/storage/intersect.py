"""Batch-wide segment intersection kernel for multi-leg extensions.

The extension operators fetch, per leg, the concatenation of a whole batch's
adjacency lists (``list_many``: flat ID arrays plus per-row counts).  This
module intersects those concatenated segments across all legs *for the entire
batch at once* — the list-based-processing idea of Kùzu (Gupta et al.)
applied to the WCOJ building block of A+ index plans: no Python loop over
partial matches remains on the hot path.

Composite keys
--------------

Row-locality is encoded into the join key itself.  Entry ``j`` of a leg whose
segments partition into batch rows by ``counts`` gets the composite key
``row(j) * domain + key(j)``.  Because segments are emitted in batch-row
order and each segment is (or is made) internally sorted on the join key, the
composite array is *globally* sorted — so one ``searchsorted`` per leg
replaces one binary search per (row, candidate) pair.  Integer keys that fit
are packed directly; anything else (floats, null markers near ``int64`` max)
is rank-encoded through one shared ``np.unique`` pass, which preserves order
and exact-equality semantics.

Adaptive membership strategies
------------------------------

Candidate (row, key) groups start as the first leg's distinct composite keys
and are filtered through every other leg.  Per leg, the chooser picks among
three membership tests on the sorted composite array (``m`` candidates, ``n``
leg entries, ``span`` the leg's composite value range):

* **gallop** — two binary searches per candidate, ``O(m log n)``.  Chosen
  when ``n >= GALLOP_RATIO * m`` (default 16): with few candidates against a
  long leg, per-candidate search beats touching all ``n`` entries.
* **hash** — a boolean table over the leg's value span probed directly,
  ``O(m + n + span)``.  Chosen when the span is dense,
  ``span <= HASH_TABLE_DENSITY * (m + n)`` (default 16) and below
  ``HASH_SPAN_CAP``, so the table allocation stays proportional to the data.
* **merge** — one linear merge of the two sorted arrays: the concatenation
  is stably sorted (timsort detects the two pre-sorted runs, so this is
  ``O(m + n)``, not a full sort) and members are the candidates with an equal
  neighbour.  The fallback when the sides are comparable and the key space is
  sparse.

All three produce identical surviving candidate sets; the final per-leg
``[left, right)`` run boundaries for the survivors then drive the vectorized
cross-product expansion (:func:`combo_positions`), through which edge-column
alignment survives the intersection: per-combination positions index back
into each leg's *original* concatenated arrays, so edge IDs fetched alongside
the neighbour IDs stay bound to the right output row.

Shared lists
------------

:func:`intersect_segments` takes one segment per (leg, batch row), so a batch
whose rows keep reading the same few lists hands it the same entries over and
over.  :func:`count_shared_intersections` is the count-only entry point for
that case: each leg passes every *distinct* list once and rows name their
lists by index.  Legs that read the same lists — one index under one
partition-key prefix, unfiltered, as MR2's two backward ``Follows`` legs and
the triangle's closing legs do — pass them once, as one list space that
every leg's rows index, so a list is read once per call however many legs
name it, and the space is not doubled.  Every row expands its own shortest
list — the E/I rule of the source paper, applied per row and not per batch —
and each expanded entry is *weighed*, per further leg, by its run in that
leg's list (the number of entries holding its key, 0 for a miss); a row's
count is the sum of its entries' weight products, read at the row
boundaries the expansion computed.  The runs come from one structure over
the list space's sorted distinct ``list * domain + key`` cells, built once
per call:

* a **run table** over all ``lists * domain`` cells, in the narrowest
  unsigned dtype the longest run fits, when :func:`choose_strategy` returns
  ``hash`` for that span (``HASH_TABLE_DENSITY``, so the table is sized by
  the data): one gather weighs every probe;
* else a **bitmap** of one bit per cell, or per bucket of ``2**k`` cells
  where one bit per cell would outgrow 8 bytes per probe (what a binary
  search's int64 result takes): one gather tests every probe, and one
  binary search of the distinct cells confirms the hits and reads their
  runs — skipped when the bits are per cell and no run is longer than 1.

Nothing per probe is wider than the cells: the cells, keys and probes are
``int32`` whenever the span fits.  One kernel (``_weigh_entries``) serves two
entry points.  :func:`count_shared_intersections` returns what an aggregate
needs, the per-row sums of the weights.  :func:`intersect_shared_lists` is
the flat E/I's: it emits every expanded entry's key repeated by its weight,
so a row's output is its intersection in the order of the list it expanded,
and parallel entries keep their multiplicity; it sorts once each distinct
list of a space that is not sorted on the key.  Neither returns
entry positions: a leg that binds its edge stays on
:func:`intersect_segments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


#: Leg-to-candidate size ratio above which per-candidate binary search wins.
#: Confirmed by benchmarks/bench_intersect_ablation.py: gallop is the fastest
#: strategy from entry/candidate ratios of ~16 upward across key densities.
GALLOP_RATIO = 16
#: Maximum table-span-to-data ratio for the boolean-table probe.  Tuned from
#: the first-principles value of 4 by the same ablation: the O(span) table
#: stays fastest up to span ratios of ~16 (the zero-fill and probe are single
#: vectorized passes, so sparsity hurts less than the asymptotics suggest).
#: The count-only kernel's run table is bounded by it too.  The ablation's
#: density sweep (``count_density_sweep`` in ``BENCH_intersect_ablation.json``,
#: 2 cores, span over probes + entries) has that table ahead of the kernel's
#: bitmap through 32 (1.08 vs 1.30 ms), level at 64 (1.39 vs 1.37) and
#: behind from 128 (3.38 vs 2.18).  64 had cost ``server_zipf``'s one-hop
#: p50 (the triangle's per-row kernel beside it ran faster and wanted the
#: GIL back more often), so the constant stays 16.
HASH_TABLE_DENSITY = 16
#: Hard cap on the boolean table size (entries), whatever the density says.
HASH_SPAN_CAP = 1 << 26
#: Largest composite key domain packed directly into int64.
_PACK_LIMIT = 1 << 62

_STRATEGIES = ("merge", "gallop", "hash")


def dedup_sorted(values: np.ndarray) -> np.ndarray:
    """Distinct values of an already-sorted array, without re-sorting.

    ``np.unique`` unconditionally sorts its input; for the sorted ID lists
    coming out of the indexes a linear neighbour comparison suffices.
    """
    if len(values) < 2:
        return values
    return values[_run_starts(values)]


def combo_positions(
    lefts: Sequence[np.ndarray],
    sizes_per_leg: Sequence[np.ndarray],
    multiplicity: np.ndarray,
) -> Tuple[List[np.ndarray], int]:
    """Vectorized cross-product expansion over many groups at once.

    For group ``g`` (e.g. one common neighbour or one common key value), leg
    ``l`` contributes a slice of ``sizes_per_leg[l][g]`` entries starting at
    ``lefts[l][g]``; the group produces ``multiplicity[g]`` combinations (the
    product of the per-leg sizes).  Returns, per leg, the int64 positions into
    that leg's entry arrays selecting its member of every combination, groups
    concatenated in order.  Combination order inside a group iterates the last
    leg fastest, matching the historical tuple-at-a-time enumeration.
    """
    total = int(multiplicity.sum())
    if total == 0:
        return [np.empty(0, dtype=np.int64) for _ in lefts], 0
    out_starts = np.cumsum(multiplicity) - multiplicity
    within = np.arange(total, dtype=np.int64) - np.repeat(out_starts, multiplicity)
    # suffix[l][g] = product of later legs' sizes: the stride of leg l's
    # choice inside group g's combination enumeration.
    suffixes: List[np.ndarray] = []
    acc = np.ones(len(multiplicity), dtype=np.int64)
    for sizes in reversed(list(sizes_per_leg)):
        suffixes.append(acc)
        acc = acc * sizes
    suffixes.reverse()
    positions = []
    for left, sizes, suffix in zip(lefts, sizes_per_leg, suffixes):
        choice = (within // np.repeat(suffix, multiplicity)) % np.repeat(
            sizes, multiplicity
        )
        positions.append(np.repeat(left, multiplicity) + choice)
    return positions, total


@dataclass
class BatchIntersection:
    """Result of intersecting all legs of one batch in one kernel call.

    Groups are the surviving (row, key) pairs, ordered by row then key —
    exactly the concatenation order the per-row oracle produces.

    Attributes:
        num_rows: number of batch rows the counts are aligned with.
        group_rows: batch row of each surviving group (non-decreasing).
        group_keys: join-key value of each group, in the original key space.
        multiplicity: combinations produced per group (product of per-leg
            parallel-entry run lengths).
        counts_out: combinations produced per *batch row* (length
            ``num_rows``); feeds ``MatchBatch.repeat`` directly.
        total: total number of combinations (``multiplicity.sum()``).
        positions: per leg, the int64 position of the leg's chosen entry for
            every combination, indexing the leg's original concatenated
            arrays (``None`` when ``need_positions=False``).
    """

    num_rows: int
    group_rows: np.ndarray
    group_keys: np.ndarray
    multiplicity: np.ndarray
    counts_out: np.ndarray
    total: int
    positions: Optional[List[np.ndarray]]

    def combo_rows(self) -> np.ndarray:
        """Batch row of every combination."""
        return np.repeat(self.group_rows, self.multiplicity)

    def expanded_keys(self) -> np.ndarray:
        """Join-key value of every combination (the new neighbour column)."""
        return np.repeat(self.group_keys, self.multiplicity)


def _empty_intersection(
    num_rows: int, num_legs: int, need_positions: bool
) -> BatchIntersection:
    empty = np.empty(0, dtype=np.int64)
    return BatchIntersection(
        num_rows=num_rows,
        group_rows=empty,
        group_keys=empty.copy(),
        multiplicity=empty.copy(),
        counts_out=np.zeros(num_rows, dtype=np.int64),
        total=0,
        positions=(
            [np.empty(0, dtype=np.int64) for _ in range(num_legs)]
            if need_positions
            else None
        ),
    )


def _encode_composites(
    leg_keys: Sequence[np.ndarray],
    leg_counts: Sequence[np.ndarray],
    num_rows: int,
) -> Tuple[List[np.ndarray], int, Callable[[np.ndarray], np.ndarray]]:
    """Composite (row, key) int64 arrays per leg, plus a key decoder.

    Non-negative integer keys whose domain fits are packed as
    ``row * domain + key``; otherwise all legs' keys are rank-encoded through
    one shared ``np.unique`` (order-preserving, exact equality), so float
    join keys and ``int64``-max null markers work unchanged.  Float NaNs are
    re-expanded to one code per occurrence — NaN never equals NaN, matching
    the elementwise-comparison semantics of the per-row oracle.
    """
    packable = all(keys.dtype.kind in "iu" for keys in leg_keys)
    if packable:
        lo = min(int(keys.min()) for keys in leg_keys)
        hi = max(int(keys.max()) for keys in leg_keys)
        # Python ints: hi + 1 may not be representable in int64.
        packable = lo >= 0 and num_rows * (hi + 1) < _PACK_LIMIT
    if packable:
        domain = hi + 1
        composites = [
            np.repeat(
                np.arange(num_rows, dtype=np.int64) * domain, counts
            )
            + keys.astype(np.int64, copy=False)
            for keys, counts in zip(leg_keys, leg_counts)
        ]
        return composites, domain, lambda codes: codes
    all_keys = np.concatenate(leg_keys)
    uniq, inverse = np.unique(all_keys, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    lookup = uniq
    domain = len(uniq)
    if all_keys.dtype.kind == "f":
        # ``np.unique`` collapses NaNs to one value, but NaN never equals
        # NaN: give every NaN occurrence its own code so it joins nothing
        # (each still decodes back to NaN).
        nan_entries = np.nonzero(np.isnan(all_keys))[0]
        if len(nan_entries):
            inverse = inverse.copy()
            inverse[nan_entries] = domain + np.arange(
                len(nan_entries), dtype=np.int64
            )
            lookup = np.concatenate([uniq, all_keys[nan_entries]])
            domain += len(nan_entries)
    composites = []
    offset = 0
    for keys, counts in zip(leg_keys, leg_counts):
        codes = inverse[offset : offset + len(keys)]
        offset += len(keys)
        composites.append(
            np.repeat(np.arange(num_rows, dtype=np.int64) * domain, counts) + codes
        )
    return composites, domain, lambda codes: lookup[codes]


def choose_strategy(num_candidates: int, num_entries: int, span: int) -> str:
    """Pick the membership strategy for one leg (see module docstring)."""
    if num_entries >= GALLOP_RATIO * num_candidates:
        return "gallop"
    if span <= HASH_TABLE_DENSITY * (num_candidates + num_entries) and (
        span <= HASH_SPAN_CAP
    ):
        return "hash"
    return "merge"


def _membership(
    candidates: np.ndarray,
    leg_sorted: np.ndarray,
    strategy: Optional[str],
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Boolean mask of ``candidates`` present in the sorted ``leg_sorted``.

    The gallop strategy computes the per-candidate ``[left, right)`` run
    bounds as a by-product; they are returned so the final expansion pass can
    reuse them instead of repeating the binary searches (the second element
    is ``None`` for the other strategies).
    """
    num_candidates = len(candidates)
    num_entries = len(leg_sorted)
    base = int(leg_sorted[0])
    span = int(leg_sorted[-1]) - base + 1
    if strategy is None:
        strategy = choose_strategy(num_candidates, num_entries, span)
    elif strategy == "hash" and span > HASH_SPAN_CAP:
        # A forced hash probe must still respect the table-size cap: the
        # table spans the raw composite-key range, which can be astronomically
        # larger than the data.  Degrade to the merge (results are identical).
        strategy = "merge"
    if strategy == "gallop":
        left = np.searchsorted(leg_sorted, candidates, side="left").astype(np.int64)
        right = np.searchsorted(leg_sorted, candidates, side="right").astype(
            np.int64
        )
        return right > left, (left, right)
    if strategy == "hash":
        table = np.zeros(span, dtype=bool)
        table[leg_sorted - base] = True
        offsets = candidates - base
        inside = (offsets >= 0) & (offsets < span)
        mask = np.zeros(num_candidates, dtype=bool)
        mask[inside] = table[offsets[inside]]
        return mask, None
    if strategy == "merge":
        # Both sides are sorted and (after dedup) unique, so the stable sort
        # of their concatenation is a linear two-run merge under timsort and
        # every value appears at most twice; a candidate is a member exactly
        # when its successor in merge order equals it.
        merged = np.concatenate([candidates, dedup_sorted(leg_sorted)])
        order = np.argsort(merged, kind="stable")
        merged_sorted = merged[order]
        has_equal_next = np.zeros(len(merged), dtype=bool)
        np.equal(merged_sorted[1:], merged_sorted[:-1], out=has_equal_next[:-1])
        members = order[has_equal_next & (order < num_candidates)]
        mask = np.zeros(num_candidates, dtype=bool)
        mask[members] = True
        return mask, None
    raise ValueError(f"unknown intersection strategy {strategy!r}")


def intersect_segments(
    leg_keys: Sequence[np.ndarray],
    leg_counts: Sequence[np.ndarray],
    num_rows: int,
    presorted: Sequence[bool],
    need_positions: bool = True,
    strategy: Optional[str] = None,
) -> BatchIntersection:
    """Intersect all legs' concatenated segments for a whole batch at once.

    Args:
        leg_keys: per leg, the join-key value of every entry — the
            concatenation of the batch rows' segments (e.g. the neighbour IDs
            from ``list_many``, or equality-key property values).
        leg_counts: per leg, the per-row segment lengths (each sums to that
            leg's entry count; all legs cover the same ``num_rows`` rows).
        num_rows: number of batch rows.
        presorted: per leg, True when every segment is already internally
            sorted on the join key (index sort order); unsorted legs are
            stably sorted segment-wise inside the kernel, and the returned
            positions are mapped back to the original entry order.
        need_positions: compute per-combination entry positions (required to
            bind edge columns; skip for untracked intersections).
        strategy: force one membership strategy (``"merge"``, ``"gallop"``,
            ``"hash"``) instead of the adaptive chooser — used by tests and
            ablations.  A forced ``"hash"`` still falls back to ``"merge"``
            when the composite span exceeds ``HASH_SPAN_CAP`` (the table
            would not fit in memory); results are identical either way.

    Returns:
        a :class:`BatchIntersection`; equivalent to running the per-row
        sorted intersection over every batch row and concatenating.  A
        single leg degenerates to grouping that leg's entries by (row, key)
        — the single-leg MULTI-EXTEND shape.
    """
    if len(leg_keys) < 1:
        raise ValueError("intersect_segments requires at least one leg")
    if strategy is not None and strategy not in _STRATEGIES:
        raise ValueError(f"unknown intersection strategy {strategy!r}")
    leg_keys = [np.asarray(keys) for keys in leg_keys]
    leg_counts = [np.asarray(counts, dtype=np.int64) for counts in leg_counts]
    if any(len(keys) == 0 for keys in leg_keys):
        return _empty_intersection(num_rows, len(leg_keys), need_positions)

    composites, domain, decode = _encode_composites(leg_keys, leg_counts, num_rows)
    sorted_comps: List[np.ndarray] = []
    orders: List[Optional[np.ndarray]] = []
    for comp, pre in zip(composites, presorted):
        if pre:
            # Segments arrive in row order and are internally key-sorted, so
            # the composite array is already globally sorted.
            sorted_comps.append(comp)
            orders.append(None)
        else:
            order = np.argsort(comp, kind="stable")
            sorted_comps.append(comp[order])
            orders.append(order)

    # Candidate groups start as leg 0's distinct composite keys; their run
    # starts double as leg 0's run bounds, and gallop legs
    # return their bounds as a membership by-product, so only merge/hash legs
    # need the final searchsorted pass.  ``bounds`` stays aligned with
    # ``candidates`` by filtering both with every membership mask.
    first_comp = sorted_comps[0]
    first_left = _run_starts(first_comp)
    candidates = first_comp[first_left]
    first_right = np.empty_like(first_left)
    first_right[:-1] = first_left[1:]
    first_right[-1] = len(first_comp)
    bounds: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
        (first_left, first_right)
    ] + [None] * (len(sorted_comps) - 1)

    for index, comp in enumerate(sorted_comps[1:], start=1):
        if len(candidates) == 0:
            break
        member, leg_bounds = _membership(candidates, comp, strategy)
        bounds[index] = leg_bounds
        candidates = candidates[member]
        for position, known in enumerate(bounds):
            if known is not None:
                bounds[position] = (known[0][member], known[1][member])
    if len(candidates) == 0:
        return _empty_intersection(num_rows, len(leg_keys), need_positions)

    lefts: List[np.ndarray] = []
    sizes_per_leg: List[np.ndarray] = []
    multiplicity = np.ones(len(candidates), dtype=np.int64)
    for comp, known in zip(sorted_comps, bounds):
        if known is None:
            left = np.searchsorted(comp, candidates, side="left").astype(np.int64)
            right = np.searchsorted(comp, candidates, side="right").astype(np.int64)
        else:
            left, right = known
        lefts.append(left)
        sizes_per_leg.append(right - left)
        multiplicity *= sizes_per_leg[-1]

    group_rows = candidates // domain
    group_keys = decode(candidates - group_rows * domain)
    total = int(multiplicity.sum())

    counts_out = _row_sums(
        multiplicity,
        np.searchsorted(group_rows, np.arange(num_rows + 1, dtype=np.int64)),
    )

    positions: Optional[List[np.ndarray]] = None
    if need_positions:
        sorted_positions, _ = combo_positions(lefts, sizes_per_leg, multiplicity)
        positions = [
            pos if order is None else order[pos]
            for pos, order in zip(sorted_positions, orders)
        ]

    return BatchIntersection(
        num_rows=num_rows,
        group_rows=group_rows,
        group_keys=group_keys,
        multiplicity=multiplicity,
        counts_out=counts_out,
        total=total,
        positions=positions,
    )


def _cell_runs(
    keys: np.ndarray,
    counts: np.ndarray,
    presorted: bool,
    domain: int,
    num_probes: int,
    strategy: Optional[str],
) -> Callable[[np.ndarray], np.ndarray]:
    """Multiplicity lookup over the ``list * domain + key`` cells of a list
    space; ``keys`` are in the cells' dtype.

    The returned function takes probe cells and returns, per probe, the
    number of entries of its list that hold its key (0 for a miss), in an
    unsigned dtype no wider than the longest run needs.
    """
    span = len(counts) * domain
    if strategy is None:
        strategy = choose_strategy(num_probes, len(keys), span)
    distinct, runs = _distinct_cells(keys, counts, presorted, domain)
    if strategy == "hash" and span <= HASH_SPAN_CAP:
        table = np.zeros(span, dtype=runs.dtype)
        table[distinct] = runs
        return table.__getitem__
    # At ``shift`` 0 a set bit is the answer unless some run is longer than
    # 1; otherwise the set bits are confirmed, and their runs read, by one
    # search of the distinct cells.
    shift = _bitmap_shift(span, num_probes)
    bits = _bitmap(distinct, shift, (span - 1) >> shift)
    confirm = shift > 0 or len(distinct) < len(keys)

    def lookup(probes: np.ndarray) -> np.ndarray:
        index = probes >> (shift + 3)
        weights = bits[index]
        np.right_shift(probes, shift, out=index)
        index &= 7
        weights >>= index.astype(np.uint8)
        weights &= 1
        if not confirm:
            return weights
        weights = weights.astype(runs.dtype, copy=False)
        hits = np.flatnonzero(weights)
        probed = probes[hits]
        index = np.searchsorted(distinct, probed)
        np.minimum(index, len(distinct) - 1, out=index)
        found = runs[index]
        found[distinct[index] != probed] = 0
        weights[hits] = found
        return weights

    return lookup


def _bitmap_shift(span: int, num_probes: int) -> int:
    """Log2 of the cells per bit of a bitmap over ``span`` cells: as few as
    keep it within the bytes a binary search of the probes allocates for
    its int64 result — 8 per probe.

    A bigger bitmap outgrows every other array of the call, and the process
    keeps the freed memory of its largest allocations: sized by the table's
    budget (``HASH_TABLE_DENSITY`` bytes per probe and entry, 856 KB for 41 k
    probes) it took ``server_zipf``'s ``peak_rss_mb`` from 53.3 to 55.0 on
    10 of 10 pairs.  Buckets cost the ablation's density sweep no time: one
    bit per cell is level with them through span ratio 128 (2.24 vs 2.18 ms,
    for 2.9 MB traced against 1.9) and behind from 256 (2.39 vs 2.19 ms;
    4.69 vs 2.20 at 1024).
    """
    return (-(-span // (64 * num_probes)) - 1).bit_length()


def _distinct_cells(
    keys: np.ndarray, counts: np.ndarray, presorted: bool, domain: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``list * domain + key`` cells of a non-empty list
    space, and the entries in each (narrowest unsigned dtype)."""
    cells = np.repeat(np.arange(len(counts), dtype=keys.dtype) * domain, counts)
    cells += keys
    if not presorted:
        cells.sort()
    starts = _run_starts(cells)
    runs = np.diff(starts, append=len(cells))
    return cells[starts], runs.astype(np.min_scalar_type(int(runs.max())))


def _bitmap(cells: np.ndarray, shift: int, last: int) -> np.ndarray:
    """Bits ``0 .. last``, set at the buckets ``cells >> shift`` of the
    sorted ``cells``."""
    low = cells >> shift
    low &= 7
    bit = np.left_shift(1, low.astype(np.uint8), dtype=np.uint8)
    byte = np.right_shift(cells, shift + 3, out=low)
    first = _run_starts(byte)
    bits = np.zeros(last // 8 + 1, dtype=np.uint8)
    bits[byte[first]] = np.bitwise_or.reduceat(bit, first)
    return bits


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values starts in non-empty ``values``."""
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _weigh_entries(
    keys: np.ndarray,
    counts: np.ndarray,
    lists: np.ndarray,
    presorted: bool,
    domain: int,
    strategy: Optional[str],
    keep_keys: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Every row's shortest list, expanded and weighed by its other lists.

    The one kernel of both shared-list entry points.  Returns ``(weights,
    offsets, entry_keys)``: per expanded entry, the product of its runs in
    the row's other lists, the row boundaries into ``weights`` and, with
    ``keep_keys``, each entry's key (else ``None``).  An entry keeps the
    position it has in its row's list, so the keys of a row whose list is
    sorted come out sorted.  The lookup structure and the probes go with
    the call, before the row sums widen the weights to int64.
    """
    num_legs, num_rows = lists.shape
    shortest = counts[lists].argmin(axis=0)
    row_ids = np.arange(num_rows, dtype=np.int64)
    expanded = lists[shortest, row_ids]
    sizes = counts[expanded]
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=np.uint8), offsets, keys[:0] if keep_keys else None
    # One ``np.repeat`` (which holds the GIL) gives every entry its row;
    # gathers through it (which release the GIL) do the rest.
    entry_rows = np.repeat(row_ids, sizes)
    within = (np.cumsum(counts) - counts)[expanded] - offsets[:-1]
    entry_keys = keys[within[entry_rows] + np.arange(total, dtype=np.int64)]
    runs = _cell_runs(keys, counts, presorted, domain, total * (num_legs - 1), strategy)
    weights = None
    for step in range(1, num_legs):
        last = step + 1 == num_legs
        probed = lists[(shortest + step) % num_legs, row_ids] * domain
        probed = probed.astype(keys.dtype, copy=False)
        # The last step probes in place unless the keys are returned.
        probes = entry_keys if last and not keep_keys else entry_keys.copy()
        probes += probed[entry_rows]
        step_weights = runs(probes)
        weights = (
            step_weights
            if weights is None
            else np.multiply(weights, step_weights, dtype=np.int64)
        )
        if not last:
            # Only the entries still weighing something meet the next list.
            kept = weights != 0
            np.cumsum(_row_sums(kept, offsets), out=offsets[1:])
            entry_keys = entry_keys[kept]
            weights = weights[kept]
            entry_rows = entry_rows[kept]
    return weights, offsets, entry_keys if keep_keys else None


def _row_sums(weights: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact int64 sum of ``weights`` between consecutive ``offsets``."""
    sums = np.zeros(len(offsets) - 1, dtype=np.int64)
    filled = offsets[:-1] < offsets[1:]
    # Widened before the reduction: one that casts as it goes holds the GIL
    # throughout (and runs 1.5x slower).
    widened = weights.astype(np.int64, copy=False)
    sums[filled] = np.add.reduceat(widened, offsets[:-1][filled])
    return sums


def count_shared_intersections(
    list_keys: Sequence[np.ndarray],
    list_counts: Sequence[np.ndarray],
    row_lists: Sequence[np.ndarray],
    presorted: Sequence[bool],
    domain: int,
    strategy: Optional[str] = None,
) -> np.ndarray:
    """Per-row intersection sizes when many rows read the same lists.

    The count-only sibling of :func:`intersect_segments` for batches whose
    rows repeat their bound keys: every leg hands over each *distinct* list
    once, and a row names the list it reads on every leg by its index.  A
    row's result is the number of combinations :func:`intersect_segments`
    would report for it (``counts_out``): parallel entries multiply.

    All legs' lists form one list space (legs that read the same lists pass
    it once).  Every row expands its own shortest list, and each expanded
    entry is weighed by its run in each of the row's other lists, one round
    per further leg; rounds before the last keep only the entries still
    weighing something.  The runs come from one structure over the space's
    ``list * domain + key`` cells (see "Shared lists" in the module
    docstring): a run table when :func:`choose_strategy` says ``hash`` for
    the span ``lists * domain`` — never sized by the batch's rows — else a
    bitmap of at most 8 bytes per probe whose hits one binary search of the
    distinct cells confirms.  A row's count is the sum of its entries'
    weights.  :func:`intersect_shared_lists` runs the same kernel for the
    flat E/I and emits the entries instead of summing them.

    Args:
        list_keys: per leg, the integer join keys (in ``[0, domain)``) of
            its distinct lists, concatenated in list order — or one such
            array that every leg's ``row_lists`` index, when all legs read
            the same lists.
        list_counts: the length of each distinct list, aligned with
            ``list_keys``.
        row_lists: per leg (two or more), the list each row reads (all of
            one length).
        presorted: per leg, True when every list it reads is sorted on the
            join key; the cells are sorted first unless every leg's are.
        domain: exclusive upper bound of the join keys.
        strategy: force the table (``"hash"``, span cap permitting) or the
            bitmap (``"merge"``, ``"gallop"``) — tests and ablations, as in
            :func:`intersect_segments`.
    """
    keys, counts, lists, domain = _list_space(
        list_keys, list_counts, row_lists, domain, strategy
    )
    weights, offsets, _ = _weigh_entries(
        keys, counts, lists, all(presorted), domain, strategy
    )
    return _row_sums(weights, offsets)


def intersect_shared_lists(
    list_keys: Sequence[np.ndarray],
    list_counts: Sequence[np.ndarray],
    row_lists: Sequence[np.ndarray],
    presorted: Sequence[bool],
    domain: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row intersections, materialized, when many rows read the same lists.

    The flat sibling of :func:`count_shared_intersections`: the same
    arguments and the same kernel, but a row's kept entries are emitted
    rather than summed.  Returns ``(neighbours, counts_out)``: per row, in
    row order, the keys of its intersection in ascending order, each
    repeated by its number of combinations (parallel entries multiply), and
    per row that number of output entries, in exact int64.  Both equal
    ``intersect_segments(...).expanded_keys()`` and ``counts_out`` on the
    batch expanded to one segment per (leg, row), and the keys are int64
    like theirs.

    A row's output follows the list it expands, so a list space that is
    not sorted on the key has each of its distinct lists sorted once here
    — a list read by many rows is sorted once, not once per row.
    """
    list_keys = [
        keys if sort else _sort_lists(keys, counts, int(domain))
        for keys, counts, sort in zip(list_keys, list_counts, presorted)
    ]
    keys, counts, lists, domain = _list_space(
        list_keys, list_counts, row_lists, domain, None
    )
    weights, offsets, entry_keys = _weigh_entries(
        keys, counts, lists, True, domain, None, keep_keys=True
    )
    neighbours = np.repeat(entry_keys, weights).astype(np.int64, copy=False)
    return neighbours, _row_sums(weights, offsets)


def _sort_lists(keys: np.ndarray, counts: np.ndarray, domain: int) -> np.ndarray:
    """``keys`` with every list of ``counts`` sorted on its own."""
    bases = np.repeat(np.arange(len(counts), dtype=np.int64) * domain, counts)
    cells = bases + keys
    # A list's cells stay inside its own ``[list * domain, (list + 1) *
    # domain)``, so one sort of the cells sorts every list in place.
    cells.sort()
    cells -= bases
    return cells.astype(keys.dtype, copy=False)


def _list_space(
    list_keys: Sequence[np.ndarray],
    list_counts: Sequence[np.ndarray],
    row_lists: Sequence[np.ndarray],
    domain: int,
    strategy: Optional[str],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The legs' list spaces as one: its keys (in the cells' dtype), list
    lengths, every leg's list of every row in it, and the domain."""
    num_legs = len(row_lists)
    if num_legs < 2:
        raise ValueError("a shared-list intersection requires at least two legs")
    if len(list_keys) not in (1, num_legs):
        raise ValueError("pass one list space per leg, or one for every leg")
    if strategy is not None and strategy not in _STRATEGIES:
        raise ValueError(f"unknown intersection strategy {strategy!r}")
    # Leg ``l``'s list ``i`` is list ``bases[l] + i`` of the one list space;
    # a space shared by every leg is already that.
    if len(list_keys) == 1:
        keys, counts = list_keys[0], list_counts[0]
        bases = np.zeros(num_legs, dtype=np.int64)
    else:
        keys, counts = np.concatenate(list_keys), np.concatenate(list_counts)
        bases = np.cumsum([0] + [len(leg_counts) for leg_counts in list_counts[:-1]])
    lists = np.stack([chosen + base for chosen, base in zip(row_lists, bases)])
    # Cells, probes and keys in the narrowest signed type the span fits.
    domain = int(domain)
    cell_type = np.int32 if len(counts) * domain <= np.iinfo(np.int32).max else np.int64
    return keys.astype(cell_type, copy=False), counts, lists, domain
