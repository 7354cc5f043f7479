"""Generated inputs for the lock-step segment bisection.

:func:`repro.storage.csr.search_segments` is checked against a per-segment
``bisect`` on tuple keys: empty segments, all-equal keys, one hub segment
beside singletons, several key columns mixing int64 and float64 with the
null sentinels (``int64.max`` / ``+inf``) the sort keys map nulls to, and
both sides.
"""

from __future__ import annotations

import bisect
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.storage.csr import search_segments  # noqa: E402

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)

INT_NULL = int(np.iinfo(np.int64).max)
INT_VALUES = st.sampled_from([-3, 0, 1, 2, 7, 1 << 40, INT_NULL])
FLOAT_VALUES = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.5, float("inf")])


@st.composite
def segment_batches(draw):
    """``(segments, probes, kinds)``: per-segment sorted tuple lists, one
    ``(segment, key tuple)`` per probe, and the column dtypes."""
    kinds = draw(st.lists(st.sampled_from("if"), min_size=0, max_size=3))
    if draw(st.booleans()):
        # All-equal keys: one value per column, everywhere.
        fixed = [draw(INT_VALUES if kind == "i" else FLOAT_VALUES) for kind in kinds]
        key = st.just(tuple(fixed))
    else:
        key = st.tuples(*[INT_VALUES if kind == "i" else FLOAT_VALUES for kind in kinds])
    sizes = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 5]), min_size=1, max_size=8))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(20, 70))  # a hub
    segments = [
        sorted(draw(st.lists(key, min_size=size, max_size=size))) for size in sizes
    ]
    probes = draw(
        st.lists(st.tuples(st.integers(0, len(segments) - 1), key), max_size=12)
    )
    return segments, probes, kinds


def _columns(tuples, kinds):
    dtypes = [np.int64 if kind == "i" else np.float64 for kind in kinds]
    return [
        np.asarray([entry[column] for entry in tuples], dtype=dtype)
        for column, dtype in enumerate(dtypes)
    ]


def check(batch, side):
    segments, probes, kinds = batch
    sizes = np.asarray([len(segment) for segment in segments], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    flat = _columns([entry for segment in segments for entry in segment], kinds)
    which = np.asarray([segment for segment, _ in probes], dtype=np.int64)
    probe_columns = _columns([key for _, key in probes], kinds)
    reads = []

    def keys_at(rows, positions):
        assert len(rows) == len(positions)
        assert np.all((starts[which[rows]] <= positions) & (positions < ends[which[rows]]))
        reads.append(len(positions))
        return [column[positions] for column in flat]

    got = search_segments(starts[which], ends[which], probe_columns, keys_at, side=side)
    search = bisect.bisect_right if side == "right" else bisect.bisect_left
    want = [int(starts[segment]) + search(segments[segment], key) for segment, key in probes]
    assert got.dtype == np.int64
    assert got.tolist() == want
    # One key read per open segment per round, ceil(log2(longest + 1)) rounds.
    longest = max((len(segments[segment]) for segment, _ in probes), default=0)
    assert len(reads) <= int(longest).bit_length()


@settings(max_examples=120, deadline=None)
@given(segment_batches(), st.sampled_from(["left", "right"]))
def test_kernel_agrees_with_per_segment_bisect(batch, side):
    check(batch, side)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(segment_batches(), st.sampled_from(["left", "right"]))
def test_fuzz_kernel_agrees_with_per_segment_bisect(batch, side):
    check(batch, side)
