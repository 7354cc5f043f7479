"""``lex_order`` against ``np.lexsort``, on generated columns.

:func:`repro.storage.lex_order.lex_order` must return exactly
``np.lexsort(columns[::-1])``: the same permutation, ties kept in input
order.  Columns are drawn over every dtype the index builds sort (bool,
signed and unsigned ints of every width, float64), with the values that
break a naive packing: negatives, the int64 extremes, the null sentinels
(``int64.max`` / ``+inf`` of the sort keys, ``NULL_INT`` of raw columns),
NaN, ``-0.0`` beside ``0.0``, and narrow ranges that tie.  Wide columns —
spans that fit a key alone but not beside each other — make the packed
widths exceed 63 bits, so several passes run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graph.types import NULL_INT  # noqa: E402
from repro.storage.lex_order import KEY_BITS, _code, lex_order  # noqa: E402

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)

INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]
INT64_MAX = int(np.iinfo(np.int64).max)


def _int_elements(dtype) -> st.SearchStrategy:
    info = np.iinfo(dtype)
    special = [int(info.min), int(info.max), 0]
    if info.min < 0:
        special.append(-1)
    return st.one_of(
        st.integers(0, 3),  # ties
        st.integers(int(info.min), int(info.max)),
        st.sampled_from(special),
    )


FLOAT_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def columns_of(draw, num_rows: int) -> np.ndarray:
    kind = draw(st.sampled_from(["int", "sentinel", "wide", "bool", "float"]))
    if kind == "int":
        dtype = draw(st.sampled_from(INT_DTYPES))
        values = draw(st.lists(_int_elements(dtype), min_size=num_rows, max_size=num_rows))
        return np.array(values, dtype=dtype)
    if kind == "sentinel":
        # A sort key's int column, nulls under int64.max, or a raw column
        # with NULL_INT: a narrow span plus one value far outside it.
        values = draw(
            st.lists(
                st.one_of(st.integers(-5, 5), st.sampled_from([INT64_MAX, NULL_INT])),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        return np.array(values, dtype=np.int64)
    if kind == "wide":
        # A span that fits one key alone but not beside a second like it.
        bits = draw(st.integers(24, KEY_BITS - 8))
        values = draw(
            st.lists(st.integers(0, 2**bits - 1), min_size=num_rows, max_size=num_rows)
        )
        return np.array(values, dtype=np.int64)
    if kind == "bool":
        values = draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows))
        return np.array(values, dtype=bool)
    values = draw(st.lists(FLOAT_ELEMENTS, min_size=num_rows, max_size=num_rows))
    return np.array(values, dtype=np.float64)


@st.composite
def column_sets(draw):
    num_rows = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 60)))
    num_columns = draw(st.integers(1, 5))
    return [draw(columns_of(num_rows)) for _ in range(num_columns)]


def _check(columns) -> None:
    got = lex_order(columns)
    expected = np.lexsort(columns[::-1])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=400, deadline=None)
@given(column_sets())
def test_lex_order_is_lexsort(columns):
    _check(columns)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=2000, deadline=None)
@given(column_sets())
def test_lex_order_is_lexsort_fuzz(columns):
    _check(columns)


def _packed_bits(columns) -> int:
    budget = KEY_BITS - (len(columns[0]) - 1).bit_length()
    return sum(_code(column, budget)[1] for column in columns)


@pytest.mark.parametrize("num_columns", [2, 5])
def test_columns_wider_than_one_key_sort_in_passes(num_columns):
    rng = np.random.default_rng(num_columns)
    num_rows = 5000
    # Few distinct values per column, each spread over 2**40: every column
    # is packed by offset, ties at every level, and the codes overflow one
    # key, so more than one pass runs.
    columns = [
        rng.integers(0, 4, num_rows) << 40 | rng.integers(0, 2, num_rows)
        for _ in range(num_columns)
    ]
    assert _packed_bits(columns) > KEY_BITS - (num_rows - 1).bit_length()
    _check(columns)


def test_null_sentinels_and_floats_are_ranked():
    rng = np.random.default_rng(3)
    num_rows = 3000
    groups = rng.integers(0, 50, num_rows)
    ints = rng.integers(-3, 3, num_rows)
    ints[rng.random(num_rows) < 0.1] = INT64_MAX
    ints[rng.random(num_rows) < 0.1] = NULL_INT
    floats = rng.integers(-3, 3, num_rows).astype(np.float64)
    floats[rng.random(num_rows) < 0.1] = np.inf
    floats[rng.random(num_rows) < 0.1] = np.nan
    floats[rng.random(num_rows) < 0.1] = -0.0
    _check([groups, ints, floats])
    _check([floats, groups])


def test_empty_and_one_row():
    for num_rows in (0, 1):
        _check([np.arange(num_rows), np.zeros(num_rows)])
    with pytest.raises(ValueError):
        lex_order([])
    with pytest.raises(ValueError):
        lex_order([np.arange(3), np.arange(4)])
