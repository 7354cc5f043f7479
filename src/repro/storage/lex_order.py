"""Stable multi-key ordering by one sort of packed int64 keys.

Every index build is a partition-and-sort of entries on (deepest group,
sort keys): the nested-CSR order.  :func:`lex_order` computes that stable
permutation without ``np.lexsort``, whose per-column indirect merge sort is
an order of magnitude slower than numpy's SIMD sort of plain int64 values:

* each column becomes a non-negative int64 *code* — its offset from its
  minimum, or, for a float column and an int column whose span does not fit
  the key (the ``int64.max`` / ``+inf`` null sentinels), its rank among the
  column's distinct values;
* the codes of as many columns as fit are shifted into one key, major
  column in the high bits, with the row index in the low bits, so every key
  is unique and an unstable ``np.sort`` orders the rows stably;
* the permutation is read back from the low bits.

Columns whose codes do not fit one 63-bit key together are sorted in
least-significant-digit passes: each pass keys the rows on its columns and
on their position after the previous (more minor) pass.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Bits of a packed key: an int64 that stays non-negative.
KEY_BITS = 63


def lex_order(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The stable permutation that sorts the rows on ``columns``, major
    column first: exactly ``np.lexsort(columns[::-1])``, as int64.

    Columns are 1-D arrays of one length, of bool, integer or float dtype.
    Floats compare as numpy sorts them: ``-0.0`` ties with ``0.0`` and NaN
    sorts last, every NaN tied with every other.
    """
    columns = [np.asarray(column) for column in columns]
    if not columns:
        raise ValueError("lex_order needs at least one column")
    num_rows = len(columns[0])
    if any(column.ndim != 1 or len(column) != num_rows for column in columns):
        raise ValueError("lex_order columns must be 1-D and of one length")
    if num_rows <= 1:
        return np.arange(num_rows, dtype=np.int64)
    row_bits = (num_rows - 1).bit_length()
    budget = KEY_BITS - row_bits
    codes = [_code(column, budget) for column in columns]
    codes = [(values, bits) for values, bits in codes if bits]  # constants tie
    rows = np.arange(num_rows, dtype=np.int64)
    order = None
    end = len(codes)
    while end:
        # The most minor columns still unsorted that fit one key beside the
        # row bits; every code fits alone (a rank needs at most row_bits).
        start, used = end, 0
        while start and used + codes[start - 1][1] <= budget:
            start -= 1
            used += codes[start][1]
        # Every code is a fresh array read by this one pass: the major one
        # becomes the keys in place.
        keys = codes[start][0] if order is None else codes[start][0][order]
        for values, bits in codes[start + 1 : end]:
            keys <<= bits
            keys |= values if order is None else values[order]
        keys <<= row_bits
        keys |= rows
        keys.sort()
        keys &= (1 << row_bits) - 1
        order = keys if order is None else order[keys]
        end = start
    return rows if order is None else order


def _code(column: np.ndarray, budget: int) -> Tuple[np.ndarray, int]:
    """``(codes, bits)``: non-negative int64 codes that order like the
    column, and how many bits the largest needs (0 for a constant column).

    An integer column whose span fits ``budget`` bits is offset from its
    minimum; a wider one, and every float column, is rank-encoded.
    """
    kind = column.dtype.kind
    if kind == "b":
        column = column.view(np.uint8)
        kind = "u"
    if kind in "iu":
        low, high = int(column.min()), int(column.max())
        bits = (high - low).bit_length()
        if bits <= budget:
            if column.dtype == np.uint64:
                return (column - np.uint64(low)).astype(np.int64), bits
            values = column.astype(np.int64)
            values -= low
            return values, bits
    elif kind != "f":
        raise TypeError(f"lex_order cannot order a {column.dtype} column")
    return _ranks(column)


def _ranks(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense rank of every value among the column's distinct values."""
    by_value = np.argsort(column)
    ordered = column[by_value]
    steps = np.empty(len(column), dtype=np.int64)
    steps[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        # NaN sorts last and never equals itself: one rank for all of them.
        steps[int(np.argmax(np.isnan(ordered))) + 1 :] = 0
    np.cumsum(steps, out=steps)
    ranks = np.empty(len(column), dtype=np.int64)
    ranks[by_value] = steps
    return ranks, int(steps[-1]).bit_length()
