"""Tests for offset lists, ID lists, and memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.types import EDGE_ID_BYTES, PAGE_SIZE, VERTEX_ID_BYTES
from repro.storage.id_lists import IdLists
from repro.storage.memory import MemoryBreakdown, MemoryReport, format_bytes
from repro.storage.offset_lists import OffsetLists, bytes_needed


class TestBytesNeeded:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (255, 1), (256, 2), (65535, 2), (65536, 3), (2**24, 4), (-1, 1)],
    )
    def test_widths(self, value, expected):
        assert bytes_needed(value) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**40))
    def test_width_is_sufficient_and_minimal(self, value):
        width = bytes_needed(value)
        assert value < 1 << (8 * width)
        if width > 1:
            assert value >= 1 << (8 * (width - 1))


class TestOffsetLists:
    def test_resolution_round_trip(self):
        primary_edges = np.arange(100, 120, dtype=np.int64)
        primary_nbrs = np.arange(200, 220, dtype=np.int32)
        offsets = np.array([0, 3, 5], dtype=np.int64)
        bounds = np.array([7, 7, 7], dtype=np.int64)
        lists = OffsetLists(offsets, bounds)
        edge_ids, nbr_ids = lists.resolve_many(
            np.arange(3), np.array([10]), np.array([3]), primary_edges, primary_nbrs
        )
        assert list(edge_ids) == [110, 113, 115]
        assert list(nbr_ids) == [210, 213, 215]

    def test_paged_byte_accounting(self):
        # Two pages: bounds 0..63 -> page 0, bound 64 -> page 1.
        offsets = np.array([3, 300, 2], dtype=np.int64)
        bounds = np.array([0, 1, 64], dtype=np.int64)
        lists = OffsetLists(offsets, bounds)
        # Page 0 has max offset 300 -> 2 bytes each for 2 entries;
        # page 1 has max offset 2 -> 1 byte for 1 entry.
        assert lists.nbytes() == 2 * 2 + 1

    def test_empty(self):
        lists = OffsetLists(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert lists.nbytes() == 0
        assert len(lists) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            OffsetLists(np.array([1]), np.array([1, 2]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=80,
        )
    )
    def test_accounting_bounded_by_worst_case(self, pairs):
        """The paged layout never charges more than 4 bytes per entry and
        never less than 1 byte per entry."""
        pairs.sort(key=lambda p: p[0])
        bounds = np.array([p[0] for p in pairs], dtype=np.int64)
        offsets = np.array([p[1] for p in pairs], dtype=np.int64)
        lists = OffsetLists(offsets, bounds)
        if len(pairs):
            assert len(pairs) <= lists.nbytes() <= 4 * len(pairs)
        else:
            assert lists.nbytes() == 0


class TestIdLists:
    def test_byte_accounting(self):
        lists = IdLists(np.arange(10, dtype=np.int64), np.arange(10, dtype=np.int32))
        assert lists.nbytes() == 10 * (EDGE_ID_BYTES + VERTEX_ID_BYTES)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            IdLists(np.arange(3), np.arange(4))


class TestMemoryReport:
    def test_totals_and_ratio(self):
        a = MemoryBreakdown("a", id_list_bytes=100, partition_level_bytes=20)
        b = MemoryBreakdown("b", offset_list_bytes=30)
        report = MemoryReport([a, b])
        baseline = MemoryReport([a])
        assert report.total == 150
        assert report.total / baseline.total == pytest.approx(150 / 120)
        assert "TOTAL" in report.format_table()
        assert a.total == 120

    def test_format_bytes(self):
        assert format_bytes(10) == "10 B"
        assert "KiB" in format_bytes(2048)
        assert "MiB" in format_bytes(5 * 1024 * 1024)
