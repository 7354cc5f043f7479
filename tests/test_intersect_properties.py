"""Generated inputs for the count-only shared-list kernel.

:func:`repro.storage.intersect.count_shared_intersections` is checked, on
inputs drawn over legs x lists x rows x domain, against two independent
answers: the per-row reference loop of ``tests/test_keyed_suffix.py`` and
``intersect_segments(...).counts_out`` on the same batch expanded to one
segment per (leg, row).  Every forced route has to agree with both.

The domain is drawn relative to the drawn data so that every route of the
kernel is reached: a dense domain (the run table when ``hash`` is forced or
chosen), one whose ``lists * domain`` cells fit a bitmap of one bit per cell
within its budget of 8 bytes per probe (``merge``/``gallop`` forced), and
one no budget covers (the bitmap over buckets of cells, its hits confirmed
by the search), with keys spread over the domain or packed at its bottom.
Lists are drawn with and without parallel entries, for 2-4 legs reading one
list space or one each.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.storage.intersect import (  # noqa: E402
    count_shared_intersections,
    intersect_segments,
)
from test_keyed_suffix import _reference_shared_counts  # noqa: E402

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)

#: Distinct key ranks per list; ranks are spread over the drawn domain.
_RANKS = 6


def _probes(list_counts, row_lists):
    """Probes the kernel makes: each row's shortest list, once per other leg."""
    if len(list_counts) == 1:
        list_counts = list_counts * len(row_lists)
    lengths = np.stack([counts[rows] for counts, rows in zip(list_counts, row_lists)])
    return int(lengths.min(axis=0).sum()) * (len(row_lists) - 1)


@st.composite
def shared_list_batches(draw):
    """``(list_keys, list_counts, row_lists, presorted, domain)``."""
    num_legs = draw(st.integers(2, 4))
    num_rows = draw(st.integers(0, 12))
    one_space = draw(st.booleans())
    parallel = draw(st.booleans())
    rank = st.integers(0, _RANKS - 1)
    spaces = []
    for _space in range(1 if one_space else num_legs):
        lists = draw(st.lists(st.lists(rank, max_size=7), min_size=1, max_size=5))
        # Distinct ranks stay distinct keys on every domain of six or more.
        spaces.append(lists if parallel else [sorted(set(ranks)) for ranks in lists])
    row_lists = [
        np.asarray(
            draw(
                st.lists(
                    st.integers(0, len(spaces[0 if one_space else leg]) - 1),
                    min_size=num_rows,
                    max_size=num_rows,
                )
            ),
            dtype=np.int64,
        )
        for leg in range(num_legs)
    ]
    num_lists = sum(len(lists) for lists in spaces)
    route = draw(st.sampled_from(["table", "bitmap", "search"]))
    if route == "table":
        # Small domains make keys collide (real matches, parallel entries).
        domain = draw(st.sampled_from([1, 3, 8]))
    elif route == "bitmap":
        # One bit per cell fits the bitmap's budget of 8 bytes per probe.
        counts = [np.asarray([len(ranks) for ranks in lists]) for lists in spaces]
        domain = max(_RANKS, 64 * _probes(counts, row_lists) // num_lists)
    else:
        domain = 1 << 40
    # Keys spread over the domain, or packed at its bottom (where the
    # buckets of a bitmap too coarse for one bit per cell hold many keys).
    stride = domain // min(domain, _RANKS) if draw(st.booleans()) else 1
    list_keys, list_counts, presorted = [], [], []
    for lists in spaces:
        lists = [[(k % domain) * stride for k in ranks] for ranks in lists]
        if not parallel:
            lists = [list(dict.fromkeys(entries)) for entries in lists]
        sort = draw(st.booleans())
        if sort:
            lists = [sorted(entries) for entries in lists]
        presorted.append(sort)
        list_keys.append(
            np.asarray([k for entries in lists for k in entries], dtype=np.int64)
        )
        list_counts.append(np.asarray([len(entries) for entries in lists], dtype=np.int64))
    if one_space:
        presorted = presorted * num_legs
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


def check(batch):
    list_keys, list_counts, row_lists, presorted, domain = batch
    per_leg_keys = list_keys * len(row_lists) if len(list_keys) == 1 else list_keys
    per_leg_counts = (
        list_counts * len(row_lists) if len(list_counts) == 1 else list_counts
    )
    want = _reference_shared_counts(per_leg_keys, per_leg_counts, row_lists).tolist()
    leg_keys, leg_counts = _per_row_segments(per_leg_keys, per_leg_counts, row_lists)
    segment_counts = intersect_segments(
        leg_keys, leg_counts, len(row_lists[0]), presorted, need_positions=False
    ).counts_out
    assert segment_counts.tolist() == want
    for strategy in (None, "hash", "merge", "gallop"):
        got = count_shared_intersections(
            list_keys, list_counts, row_lists, presorted, domain, strategy=strategy
        )
        assert got.tolist() == want, strategy
    with pytest.raises(ValueError):
        count_shared_intersections(
            list_keys, list_counts, row_lists, presorted, domain, strategy="bitmap"
        )


@settings(max_examples=150, deadline=None)
@given(shared_list_batches())
def test_kernel_agrees_with_the_loop_and_the_segment_kernel(batch):
    check(batch)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=5000, deadline=None)
@given(shared_list_batches())
def test_fuzz_kernel_agrees_with_the_loop_and_the_segment_kernel(batch):
    check(batch)
