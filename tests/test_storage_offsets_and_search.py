"""Tests for offset lists, ID lists, and memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.graph.generators import FinancialGraphSpec, generate_financial_graph
from repro.graph.types import EDGE_ID_BYTES, PAGE_SIZE, VERTEX_ID_BYTES, EdgeAdjacencyType
from repro.index.config import IndexConfig
from repro.index.views import TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.csr import NestedCSR
from repro.storage.id_lists import IdLists
from repro.storage.memory import MemoryBreakdown, MemoryReport, format_bytes
from repro.storage.offset_lists import OffsetLists, bytes_needed, bytes_needed_many


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


def _sorted_lists(num_bound, bounds, offsets, codes=(), domains=()):
    """``(lists, csr, bounds)``: the entries ``(bounds[i], offsets[i])``
    partitioned by bound ID (and ``codes`` under ``domains``) in CSR order,
    with each entry's bound ID in that order."""
    csr, order = NestedCSR.build(
        num_bound,
        np.asarray(bounds, dtype=np.int64),
        [np.asarray(c, dtype=np.int64) for c in codes],
        list(domains),
        [],
    )
    return OffsetLists(np.asarray(offsets)[order]), csr, np.asarray(bounds)[order]


def per_entry_charge(offsets, bound_of_entry):
    """The paged charge read off a per-entry bound ID array: entries arrive
    grouped by bound element, so each page is a contiguous run of equal
    ``bound // PAGE_SIZE``."""
    if len(offsets) == 0:
        return 0
    pages = np.asarray(bound_of_entry) // PAGE_SIZE
    starts = np.concatenate([[0], np.nonzero(pages[1:] != pages[:-1])[0] + 1])
    sizes = np.diff(np.concatenate([starts, [len(offsets)]]))
    maxima = np.maximum.reduceat(np.asarray(offsets, dtype=np.int64), starts)
    return int((bytes_needed_many(maxima) * sizes).sum())


class TestOffsetLists:
    def test_resolution_round_trip(self):
        primary_edges = np.arange(100, 120, dtype=np.int64)
        primary_nbrs = np.arange(200, 220, dtype=np.int32)
        lists = OffsetLists(np.array([0, 3, 5], dtype=np.int64))
        edge_ids, nbr_ids = lists.resolve_many(
            np.arange(3), np.array([10]), np.array([3]), primary_edges, primary_nbrs
        )
        assert list(edge_ids) == [110, 113, 115]
        assert list(nbr_ids) == [210, 213, 215]

    def test_paged_byte_accounting(self):
        # Two pages: bounds 0..63 -> page 0, bound 64 -> page 1.
        lists, csr, _ = _sorted_lists(65, [0, 1, 64], [3, 300, 2])
        # Page 0 has max offset 300 -> 2 bytes each for 2 entries;
        # page 1 has max offset 2 -> 1 byte for 1 entry.
        assert lists.nbytes(csr) == 2 * 2 + 1

    def test_empty(self):
        lists, csr, _ = _sorted_lists(130, [], [])
        assert lists.nbytes(csr) == 0
        assert len(lists) == 0
        no_bounds = NestedCSR(0, [], np.zeros(1, dtype=np.int64))
        assert OffsetLists(np.array([], dtype=np.int64)).nbytes(no_bounds) == 0

    def test_empty_pages_are_skipped(self):
        # Pages 1 and 2 hold no entry; page 3's one entry needs 3 bytes.
        lists, csr, bounds = _sorted_lists(256, [0, 1, 200], [3, 300, 70000])
        assert lists.nbytes(csr) == 2 * 2 + 3 == per_entry_charge(lists.offsets, bounds)

    def test_trailing_partial_page(self):
        # Bounds 64..69 form a partial last page.
        lists, csr, bounds = _sorted_lists(70, [5, 69, 64, 69], [1, 256, 2, 7])
        assert lists.nbytes(csr) == 1 + 3 * 2 == per_entry_charge(lists.offsets, bounds)

    def test_nested_partition_levels(self):
        # Two levels (3 x 2 groups per bound): a page spans 64 bounds'
        # groups, whatever the levels.
        bounds = [0, 63, 0, 64, 127, 128, 64]
        codes = ([2, 0, 1, 0, 2, 1, 1], [1, 0, 1, 1, 0, 0, 1])
        offsets = [5, 255, 256, 1, 2, 65536, 9]
        lists, csr, bounds = _sorted_lists(129, bounds, offsets, codes, (3, 2))
        assert lists.nbytes(csr) == 3 * 2 + 3 * 1 + 3 == per_entry_charge(
            lists.offsets, bounds
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=80,
        ),
    )
    def test_page_boundaries_charge_the_per_entry_formula(self, num_bound, domain, rows):
        """Pages read off the CSR's bound-level offsets charge exactly what
        the per-entry bound IDs did."""
        bounds = [b % num_bound for b, _, _ in rows]
        codes = [[c % domain for _, _, c in rows]]
        offsets = [o for _, o, _ in rows]
        lists, csr, bounds = _sorted_lists(num_bound, bounds, offsets, codes, [domain])
        assert lists.nbytes(csr) == per_entry_charge(lists.offsets, bounds)

    def test_compacted_edge_index_charges_the_per_entry_formula(self):
        """A flush drops deleted edges from an edge-partitioned index's bound
        domain; the pages then follow the renumbered edge IDs."""
        graph = generate_financial_graph(
            FinancialGraphSpec(num_vertices=40, num_edges=400, num_cities=3, seed=4)
        )
        view = TwoHopView(
            "Later",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(cmp(prop("eb", "date"), "<", prop("eadj", "date"))),
        )
        dbs = [Database(graph) for _ in range(2)]
        for db in dbs:
            db.create_edge_index(view, config=IndexConfig.flat(), name="Later")
        doomed = np.arange(0, 400, 3)
        for db, incremental in zip(dbs, (True, False)):
            maintainer = db.maintainer(merge_threshold=10**9)
            maintainer.delete_edges(doomed)
            maintainer.flush(incremental=incremental)
        merged, rebuilt = (db.store.edge_indexes[0] for db in dbs)
        assert merged.csr.num_bound == 400 - len(doomed)
        charge = merged.memory_breakdown().offset_list_bytes
        # A flat index has one group per bound: entry ranges are bound ranges.
        bound_of_entry = np.repeat(
            np.arange(merged.csr.num_bound), np.diff(merged.csr.offsets)
        )
        assert charge == per_entry_charge(merged.offset_lists.offsets, bound_of_entry)
        assert charge == rebuilt.memory_breakdown().offset_list_bytes
        assert charge > 0

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
        lists, csr, _ = _sorted_lists(
            501, [p[0] for p in pairs], [p[1] for p in pairs]
        )
        if len(pairs):
            assert len(pairs) <= lists.nbytes(csr) <= 4 * len(pairs)
        else:
            assert lists.nbytes(csr) == 0


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
