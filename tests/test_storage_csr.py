"""Tests for the nested CSR container, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexLookupError
from repro.graph.types import CSR_OFFSET_BYTES
from repro.storage.csr import NestedCSR


def build_sorted(num_bound, bound_ids, codes=(), domains=(), sort_values=()):
    """``(csr, order)`` of :meth:`NestedCSR.build`."""
    return NestedCSR.build(
        num_bound=num_bound,
        bound_ids=np.asarray(bound_ids, dtype=np.int64),
        level_codes=[np.asarray(c, dtype=np.int64) for c in codes],
        level_domains=list(domains),
        sort_values=[np.asarray(v) for v in sort_values],
    )


def build_csr(*args, **kwargs):
    return build_sorted(*args, **kwargs)[0]


class TestNestedCSRBasics:
    def test_level0_partitioning(self):
        csr = build_csr(3, [0, 1, 1, 2, 2, 2])
        assert csr.group_range(0) == (0, 1)
        assert csr.group_range(1) == (1, 3)
        assert csr.group_range(2) == (3, 6)
        assert csr.num_entries == 6

    def test_empty_bound_ranges(self):
        csr = build_csr(4, [1, 1])
        assert csr.group_range(0) == (0, 0)
        assert csr.group_range(3) == (2, 2)
        bounds = np.arange(4)
        assert list(csr.bound_ends(bounds) - csr.bound_starts(bounds)) == [0, 2, 0, 0]

    def test_nested_level_partitioning(self):
        # Two bound elements, one level with domain 2.
        bound = [0, 0, 0, 1, 1]
        codes = [[1, 0, 1, 0, 1]]
        csr = build_csr(2, bound, codes, [2])
        start, end = csr.group_range(0, [0])
        assert end - start == 1
        start, end = csr.group_range(0, [1])
        assert end - start == 2
        # Prefix lookup unions the sub-partitions.
        assert csr.group_range(0) == (0, 3)

    def test_sort_order_within_groups(self):
        bound = [0, 0, 0, 0]
        sort_vals = [[5, 1, 3, 2]]
        _, order = build_sorted(1, bound, sort_values=sort_vals)
        ordered = np.asarray(sort_vals[0])[order]
        assert list(ordered) == sorted(sort_vals[0])

    def test_out_of_range_lookups_raise(self):
        csr = build_csr(2, [0, 1], [[0, 1]], [2])
        with pytest.raises(IndexLookupError):
            csr.group_range(5)
        with pytest.raises(IndexLookupError):
            csr.group_range(0, [7])
        with pytest.raises(IndexLookupError):
            csr.group_range(0, [0, 0])

    def test_bound_starts_vectorized(self):
        csr = build_csr(3, [0, 1, 1, 2], [[0, 1, 0, 1]], [2])
        starts = csr.bound_starts(np.array([0, 1, 2]))
        ends = csr.bound_ends(np.array([0, 1, 2]))
        assert list(starts) == [0, 1, 3]
        assert list(ends) == [1, 3, 4]

    def test_level_bytes_accounting(self):
        csr = build_csr(4, [0, 1, 2, 3], [[0, 1, 0, 1]], [2])
        # level 0: 4 groups, level 1: 8 groups.
        assert csr.nbytes_levels() == (4 + 8) * CSR_OFFSET_BYTES

    def test_mismatched_levels_raise(self):
        with pytest.raises(IndexLookupError):
            build_csr(2, [0, 1], [[0, 1]], [])

    def test_empty_csr(self):
        csr = build_csr(3, [])
        assert csr.num_entries == 0
        assert csr.group_range(1) == (0, 0)


@st.composite
def csr_inputs(draw):
    num_bound = draw(st.integers(min_value=1, max_value=8))
    num_entries = draw(st.integers(min_value=0, max_value=60))
    bound_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_bound - 1),
            min_size=num_entries,
            max_size=num_entries,
        )
    )
    domain = draw(st.integers(min_value=1, max_value=4))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=domain - 1),
            min_size=num_entries,
            max_size=num_entries,
        )
    )
    sort_values = draw(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=num_entries,
            max_size=num_entries,
        )
    )
    return num_bound, bound_ids, codes, domain, sort_values


class TestNestedCSRProperties:
    @settings(max_examples=60, deadline=None)
    @given(csr_inputs())
    def test_groups_partition_all_entries(self, inputs):
        """Every entry lands in exactly one most-granular group."""
        num_bound, bound_ids, codes, domain, sort_values = inputs
        csr = build_csr(num_bound, bound_ids, [codes], [domain], [sort_values])
        total = 0
        for bound in range(num_bound):
            for code in range(domain):
                start, end = csr.group_range(bound, [code])
                assert end >= start
                total += end - start
        assert total == len(bound_ids)

    @settings(max_examples=60, deadline=None)
    @given(csr_inputs())
    def test_group_contents_match_bruteforce(self, inputs):
        """The permuted entries of each group equal a brute-force filter."""
        num_bound, bound_ids, codes, domain, sort_values = inputs
        csr, order = build_sorted(num_bound, bound_ids, [codes], [domain], [sort_values])
        bound_arr = np.asarray(bound_ids)
        code_arr = np.asarray(codes)
        for bound in range(num_bound):
            for code in range(domain):
                start, end = csr.group_range(bound, [code])
                entries = set(order[start:end].tolist())
                expected = set(
                    np.nonzero((bound_arr == bound) & (code_arr == code))[0].tolist()
                )
                assert entries == expected

    @settings(max_examples=60, deadline=None)
    @given(csr_inputs())
    def test_sort_values_nondecreasing_within_groups(self, inputs):
        num_bound, bound_ids, codes, domain, sort_values = inputs
        csr, order = build_sorted(num_bound, bound_ids, [codes], [domain], [sort_values])
        values = np.asarray(sort_values)
        for bound in range(num_bound):
            for code in range(domain):
                start, end = csr.group_range(bound, [code])
                group_values = values[order[start:end]]
                assert list(group_values) == sorted(group_values)


class TestSpliced:
    """``NestedCSR.spliced`` against :meth:`NestedCSR.build` over the
    surviving and delta entries stacked, on two partition levels."""

    DOMAINS = (3, 2)

    def _entries(self, rng, bounds, size):
        """``size`` random (bound, code 1, code 2) entries over ``bounds``."""
        return (
            rng.choice(bounds, size=size),
            rng.integers(0, self.DOMAINS[0], size=size),
            rng.integers(0, self.DOMAINS[1], size=size),
        )

    def _groups(self, entries):
        bound, c1, c2 = entries
        return (bound * self.DOMAINS[0] + c1) * self.DOMAINS[1] + c2

    @pytest.mark.parametrize("num_delta", [0, 15])
    @pytest.mark.parametrize("dead_share", [0.0, 0.3])
    @pytest.mark.parametrize("drop_bounds", [False, True])
    def test_two_levels_match_a_build_of_the_stacked_entries(
        self, num_delta, dead_share, drop_bounds
    ):
        rng = np.random.default_rng(num_delta + int(10 * dead_share) + 7 * drop_bounds)
        num_bound, extra = 8, 2
        for _ in range(10):
            base = self._entries(rng, np.arange(num_bound), int(rng.integers(0, 50)))
            csr, order = build_sorted(num_bound, base[0], base[1:], self.DOMAINS)
            base = tuple(column[order] for column in base)
            # The grown domain, as an edge-partitioned merge runs it; a
            # dropped bound loses every entry, and the delta avoids it.
            grown = csr.grown(extra)
            keep_bounds = np.ones(num_bound + extra, dtype=bool)
            if drop_bounds:
                keep_bounds[rng.choice(num_bound + extra, size=3, replace=False)] = False
            dead = (rng.random(len(base[0])) < dead_share) | ~keep_bounds[base[0]]
            delta = self._entries(rng, np.flatnonzero(keep_bounds), num_delta)
            delta_groups = np.sort(self._groups(delta))

            got = grown.spliced(
                delta_groups, np.flatnonzero(dead), keep_bounds if drop_bounds else None
            )

            stacked = [
                np.concatenate([column[~dead], d]) for column, d in zip(base, delta)
            ]
            # Kept bounds renumbered in order (the identity when all are kept).
            new_bound = np.cumsum(keep_bounds) - 1
            want, _ = build_sorted(
                int(keep_bounds.sum()),
                new_bound[stacked[0]],
                stacked[1:],
                self.DOMAINS,
            )
            assert got.num_bound == want.num_bound
            assert got.level_domains == want.level_domains
            assert got.offsets.dtype == want.offsets.dtype
            assert got.offsets.tolist() == want.offsets.tolist()
