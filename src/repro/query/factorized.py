"""Factorized intermediate results: unexpanded terminal extensions.

A flat pipeline expands every extension into the full combination
cross-product even when the consumer is ``count()`` — on star-shaped
patterns that materializes the *product* of the leg fan-outs per prefix
row, all of it pure waste for an aggregate.  Following the list-based
processing of Gupta et al. (Columnar Storage and List-based Processing for
GDBMSs), the factorized representation keeps the terminal extensions as
per-row cardinality segments instead:

* a :class:`FactorizedBatch` is a flat *prefix* (a normal
  :class:`~repro.query.binding.MatchBatch` of bound columns) plus one
  :class:`FactorizedSegment` per suffix operator;
* segment ``j`` records, per prefix row ``i``, how many combinations that
  operator would have contributed (``cardinalities[i]``) and nothing else:
  only a sink that needs no rows is given this stream, so the suffix runs
  count-only and does its work once per distinct bound key of the batch
  (:class:`SharedKeys`);
* because the plan analysis (:meth:`~repro.query.plan.QueryPlan
  .factorized_suffix_start`) only admits *mutually independent* suffix
  operators, the match count of the batch is the sum over prefix rows of
  the prefix row's weight times the product of the per-segment
  cardinalities — one vectorized multiply/sum pass, zero combo expansion.

The flat stages before the suffix are list-based too when nothing reads
their rows: at each of the plan's merge points
(:meth:`~repro.query.plan.QueryPlan.merge_points`) a count-only pipeline
projects a stage's output onto the variables later operators read and
merges equal rows into one row whose weight is their number
(:func:`~repro.query.operators.merge_rows`), so a later stage reads one
list per distinct key and a prefix row carries a weight.  Every counter
charges a row by its weight.

The flat path remains the kept oracle: the differential suites
(``tests/test_factorized_count.py``, ``tests/test_merged_prefix.py``) pin
``count()`` equality between the representations across every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..storage.lex_order import lex_order
from .binding import MatchBatch


#: A flag table over the key domain counts distinct keys with no sort, in
#: O(rows + domain): 2-4 us for 1024 rows on domains of 2.5k-35k, against
#: 30-75 us for ``np.unique``; the lookup table that finishes the grouping
#: costs 10-19 us against ``np.unique(return_inverse=True)``'s 27-37 us.
#: Past this many table cells per row the table is mostly zero-fill and
#: ``np.unique`` is used instead.
FLAG_TABLE_DENSITY = 16
#: Largest packed key-tuple domain folded into a single int64.
_PACK_LIMIT = 1 << 62


class SharedKeys:
    """The distinct values of a tuple of bound columns over one batch.

    On a graph smaller than the intermediate result, the rows of a batch
    repeat the vertices (or edges) they are about to extend from; a
    count-only suffix operator then does its work once per *distinct* key
    and broadcasts the result (Gupta et al.'s list-based processing: one
    list read per key, the result kept factorized).  Construction costs one
    distinct count — the number the callers gate on; :meth:`inverse` and
    :meth:`columns` finish the grouping only for a caller that decides to
    share.

    Args:
        columns: the key columns, one int64 array per bound variable (or
            per leg, for a tuple of list indices), all of one length.
        domains: exclusive upper bound of each column's values.
    """

    def __init__(self, columns: Sequence[np.ndarray], domains: Sequence[int]) -> None:
        self._domains = [int(domain) for domain in domains]
        self._flags: Optional[np.ndarray] = None
        self._groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._columns: Optional[List[np.ndarray]] = None
        total = 1
        for domain in self._domains:
            total *= max(domain, 1)  # Python ints: no silent overflow.
        if total > _PACK_LIMIT:
            # Too wide to pack into one key: group the rows as tuples, by one
            # stable multi-column sort and a scan for the first row of
            # every run of equal tuples.
            order = lex_order(columns)
            ordered = [np.asarray(column)[order] for column in columns]
            starts = np.ones(len(order), dtype=bool)
            starts[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in ordered])
            inverse = np.empty(len(order), dtype=np.int64)
            inverse[order] = np.cumsum(starts) - 1
            self._columns = [column[starts] for column in ordered]
            self._groups = (np.stack(self._columns, axis=1), inverse)
            self.distinct = len(self._groups[0])
            return
        packed = columns[0]
        for column, domain in zip(columns[1:], self._domains[1:]):
            packed = packed * domain + column
        self._packed = packed
        if total <= FLAG_TABLE_DENSITY * len(packed):
            self._flags = np.zeros(total, dtype=bool)
            self._flags[packed] = True
            self.distinct = int(np.count_nonzero(self._flags))
        else:
            self._groups = tuple(np.unique(packed, return_inverse=True))
            self.distinct = len(self._groups[0])

    def _grouped(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._groups is None:
            keys = np.flatnonzero(self._flags)
            # Only the cells of keys that occur are ever written or read.
            position = np.empty(len(self._flags), dtype=np.int64)
            position[keys] = np.arange(len(keys), dtype=np.int64)
            self._groups = (keys, position[self._packed])
        return self._groups

    def inverse(self) -> np.ndarray:
        """Index of every row's key among the distinct keys."""
        return self._grouped()[1]

    def weights(self, row_weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Partial matches carrying each distinct key: its rows, or the sum
        of their ``row_weights`` (exact in int64, unlike a weighted
        ``bincount``)."""
        if row_weights is None:
            return np.bincount(self.inverse(), minlength=self.distinct)
        summed = np.zeros(self.distinct, dtype=np.int64)
        np.add.at(summed, self.inverse(), row_weights)
        return summed

    def columns(self) -> List[np.ndarray]:
        """The distinct keys, unpacked into one array per key column."""
        if self._columns is None:
            packed = self._grouped()[0]
            unpacked = []
            for domain in reversed(self._domains[1:]):
                packed, column = np.divmod(packed, domain)
                unpacked.append(column)
            unpacked.append(packed)
            self._columns = unpacked[::-1]
        return self._columns


@dataclass(frozen=True)
class FactorizedSegment:
    """One unexpanded extension of a suffix operator over a prefix batch.

    ``cardinalities[i]`` is the number of combinations the emitting operator
    contributes for prefix row ``i`` — exactly the factor by which the flat
    path would have multiplied that row.

    Attributes:
        target_vars: the query vertices the emitting operator binds.
        cardinalities: int64 combinations per prefix row.
    """

    target_vars: Tuple[str, ...]
    cardinalities: np.ndarray


@dataclass(frozen=True)
class FactorizedBatch:
    """A flat prefix of bound columns plus unexpanded extension segments.

    Represents ``prefix × segment_1 × segment_2 × ...``: the segments are
    mutually independent given the prefix (guaranteed by the plan's suffix
    analysis), so prefix row ``i`` stands for ``weights[i] * prod_j
    cardinalities_j[i]`` flat matches that are never materialized
    (``weights`` being the prefix's, one per row when it has none).
    """

    prefix: MatchBatch
    segments: Tuple[FactorizedSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ExecutionError("a factorized batch needs at least one segment")
        for segment in self.segments:
            if len(segment.cardinalities) != len(self.prefix):
                raise ExecutionError(
                    f"segment cardinalities cover {len(segment.cardinalities)} "
                    f"rows but the prefix has {len(self.prefix)}"
                )

    # ------------------------------------------------------------------
    # cardinality arithmetic (the CountSink hot path)
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Flat matches represented by each prefix row: its weight times
        the segment product."""
        weights = self.prefix.weights
        counts = (
            np.ones(len(self.prefix), dtype=np.int64)
            if weights is None
            else weights.copy()
        )
        for segment in self.segments:
            counts *= segment.cardinalities
        return counts

    def match_count(self) -> int:
        """Total flat matches represented — without expanding any of them."""
        return int(self.row_counts().sum())

    def flat_rows_avoided(self) -> int:
        """Rows the flat pipeline would have materialized for the suffix.

        The flat path expands the first suffix operator's combinations,
        re-expands those rows by the second operator's, and so on — a
        running product over the segment cascade, for each of the
        ``weights[i]`` partial matches a prefix row stands for,
        ``sum_j sum_i weights[i] prod_{k<=j} cardinalities_k[i]`` rows in
        total, none of which the factorized path ever allocates.
        """
        accumulated: Optional[np.ndarray] = self.prefix.weights
        total = 0
        for segment in self.segments:
            accumulated = (
                segment.cardinalities
                if accumulated is None
                else accumulated * segment.cardinalities
            )
            total += int(accumulated.sum())
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FactorizedBatch(prefix_rows={len(self.prefix)}, "
            f"segments={len(self.segments)}, matches={self.match_count()})"
        )
