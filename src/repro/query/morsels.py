"""Morsel generation: splitting a scan domain into per-worker vertex ranges.

The morsel dispatcher (:class:`~repro.query.executor.MorselExecutor`)
partitions the leading scan's vertex-ID domain into contiguous ``[start,
stop)`` ranges and runs the full operator pipeline once per range.  How the
domain is cut decides load balance, and nothing else: every splitter here
produces a *partition* of the domain in ascending order — ranges cover the
domain exactly, without overlap or gap — so concatenating per-range outputs
in list order reproduces the serial scan order no matter which splitter
produced the ranges.  Splitting is a pure function of the domain and the
weights; it never changes which rows a plan produces.

The dispatcher cuts with :func:`degree_weighted_ranges`, or with
:func:`ranges_of_size` when a fixed morsel size is asked for:

* :func:`even_ranges` — equal *vertex-count* ranges, the fallback of the
  weighted splitter when the domain carries no work signal.  On skewed
  graphs a range that happens to contain the heavy hubs carries a
  disproportionate share of the adjacency work and becomes the straggler.
* :func:`degree_weighted_ranges` — equal *work* ranges.  Each vertex gets a
  weight (its adjacency-list length read off the primary CSR offsets, plus a
  constant for the scan itself); the prefix sum of the weights is cut at
  ``k/target`` of the total for ``k = 1..target-1`` (one ``searchsorted``
  over the cumulative array), so every morsel carries roughly the same
  amount of adjacency work.  A super-hub vertex whose weight exceeds the
  per-morsel budget absorbs several cut targets; deduplication then merges
  those cuts, isolating the hub in its own single-vertex morsel — the
  closest achievable balance, since a vertex range cannot split below one
  vertex.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Range = Tuple[int, int]


def _empty_domain(lo: int, hi: int) -> bool:
    return hi <= lo


def ranges_of_size(lo: int, hi: int, size: int) -> List[Range]:
    """Consecutive ranges of ``size`` vertices covering ``[lo, hi)``."""
    if _empty_domain(lo, hi):
        return []
    size = max(int(size), 1)
    return [(start, min(start + size, hi)) for start in range(lo, hi, size)]


def even_ranges(lo: int, hi: int, target_morsels: int) -> List[Range]:
    """Split ``[lo, hi)`` into ~``target_morsels`` equal vertex-count ranges."""
    if _empty_domain(lo, hi):
        return []
    domain = hi - lo
    target = max(int(target_morsels), 1)
    return ranges_of_size(lo, hi, max(-(-domain // target), 1))


def degree_weighted_ranges(
    lo: int,
    hi: int,
    target_morsels: int,
    weights: Sequence[float],
) -> List[Range]:
    """Split ``[lo, hi)`` into ~``target_morsels`` equal-*work* ranges.

    Args:
        lo, hi: the half-open vertex-ID domain to partition.
        target_morsels: desired number of ranges — a granularity target,
            not an exact count.  Fewer are produced when heavy vertices
            absorb several cut targets (a range never holds less than one
            vertex) or when the domain has fewer vertices; a few *more* when
            isolating over-budget vertices adds boundaries around them
            (at most two extra per such vertex).
        weights: per-vertex work estimate for exactly the vertices
            ``lo .. hi-1`` (length ``hi - lo``).  Non-negative; typically the
            adjacency-list lengths from the primary index's CSR offsets plus
            a constant per-vertex scan cost.

    Returns:
        Ranges in ascending order forming an exact partition of ``[lo, hi)``:
        each vertex appears in exactly one range, every range is non-empty,
        and the per-range weight sums are as close to ``total/target`` as the
        per-vertex granularity allows.
    """
    if _empty_domain(lo, hi):
        return []
    domain = hi - lo
    target = max(int(target_morsels), 1)
    work = np.asarray(weights, dtype=np.float64)
    if work.shape != (domain,):
        raise ValueError(
            f"weights must have one entry per domain vertex "
            f"({domain}), got shape {work.shape}"
        )
    cumulative = np.cumsum(work)
    total = float(cumulative[-1])
    if target <= 1 or total <= 0.0:
        # No work signal (or a single morsel requested): fall back to the
        # even split so zero-degree domains still parallelize by count.
        return even_ranges(lo, hi, target)
    # Cut *after* the vertex whose cumulative work first reaches k/target of
    # the total.  searchsorted returns the first index with cumulative >=
    # goal, so +1 places the boundary behind that vertex; boundaries land in
    # [1, domain] and np.unique drops the duplicates a super-hub vertex
    # creates when it swallows several goals at once.  Vertices whose own
    # weight meets the per-morsel budget additionally get boundaries on
    # *both* sides, so a super-hub is isolated in a single-vertex morsel
    # instead of dragging its light prefix into the heaviest range.
    goals = total * np.arange(1, target, dtype=np.float64) / target
    cuts = np.searchsorted(cumulative, goals, side="left") + 1
    heavy = np.nonzero(work >= total / target)[0]
    bounds = np.unique(np.concatenate(([0], cuts, heavy, heavy + 1, [domain])))
    return [
        (lo + int(start), lo + int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
