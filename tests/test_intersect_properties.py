"""Generated inputs for the count-only shared-list kernel.

:func:`repro.storage.intersect.count_shared_intersections` is checked, on
inputs drawn over legs x lists x rows x domain, against two independent
answers: the per-row reference loop of ``tests/test_keyed_suffix.py`` and
``intersect_segments(...).counts_out`` on the same batch expanded to one
segment per (leg, row).  Every forced route has to agree with both.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.storage.intersect import (  # noqa: E402
    count_shared_intersections,
    intersect_segments,
)
from test_keyed_suffix import _reference_shared_counts  # noqa: E402


@st.composite
def shared_list_batches(draw):
    """``(list_keys, list_counts, row_lists, presorted, domain)``."""
    num_legs = draw(st.integers(2, 4))
    num_rows = draw(st.integers(0, 12))
    # Small domains make keys collide (parallel entries, real matches); the
    # wide one sends the adaptive route to the binary search.
    domain = draw(st.sampled_from([1, 3, 8, 1 << 40]))
    key = st.integers(0, min(domain, 6) - 1).map(
        lambda value: value * (domain // min(domain, 6))
    )
    list_keys, list_counts, row_lists, presorted = [], [], [], []
    for _leg in range(num_legs):
        lists = draw(st.lists(st.lists(key, max_size=7), min_size=1, max_size=5))
        sort = draw(st.booleans())
        if sort:
            lists = [sorted(entries) for entries in lists]
        presorted.append(sort)
        list_keys.append(
            np.asarray([k for entries in lists for k in entries], dtype=np.int64)
        )
        list_counts.append(np.asarray([len(entries) for entries in lists], dtype=np.int64))
        row_lists.append(
            np.asarray(
                draw(
                    st.lists(
                        st.integers(0, len(lists) - 1),
                        min_size=num_rows,
                        max_size=num_rows,
                    )
                ),
                dtype=np.int64,
            )
        )
    return list_keys, list_counts, row_lists, presorted, domain


def _per_row_segments(list_keys, list_counts, row_lists):
    """The batch as ``intersect_segments`` takes it: one segment per row."""
    leg_keys, leg_counts = [], []
    for keys, counts, chosen in zip(list_keys, list_counts, row_lists):
        starts = np.cumsum(counts) - counts
        segments = [keys[starts[which] : starts[which] + counts[which]] for which in chosen]
        leg_keys.append(
            np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
        )
        leg_counts.append(counts[chosen])
    return leg_keys, leg_counts


@settings(max_examples=150, deadline=None)
@given(shared_list_batches())
def test_kernel_agrees_with_the_loop_and_the_segment_kernel(batch):
    list_keys, list_counts, row_lists, presorted, domain = batch
    want = _reference_shared_counts(list_keys, list_counts, row_lists).tolist()
    leg_keys, leg_counts = _per_row_segments(list_keys, list_counts, row_lists)
    segment_counts = intersect_segments(
        leg_keys, leg_counts, len(row_lists[0]), presorted, need_positions=False
    ).counts_out
    assert segment_counts.tolist() == want
    for strategy in (None, "hash", "merge"):
        got = count_shared_intersections(
            list_keys, list_counts, row_lists, presorted, domain, strategy=strategy
        )
        assert got.tolist() == want, strategy
