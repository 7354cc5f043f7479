"""Unit tests for the morsel splitters (:mod:`repro.query.morsels`).

The invariant every splitter must uphold: the returned ranges are an exact
partition of the requested ``[lo, hi)`` domain — ascending, non-empty,
covering every vertex exactly once — because the dispatcher's determinism
contract (per-morsel outputs concatenated in range order == serial output)
relies on nothing else.  The degree-weighted splitter additionally promises
balance: per-range weight sums stay within one vertex's weight of the ideal
``total/target`` budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GraphBuilder
from repro.index.primary import PrimaryIndex
from repro.query import QueryGraph
from repro.query.executor import PlanRunner
from repro.query.morsels import degree_weighted_ranges, even_ranges, ranges_of_size


def assert_exact_partition(ranges, lo, hi):
    """Ranges cover ``[lo, hi)`` in order with no overlap, gap, or empties."""
    assert ranges, f"no ranges for domain [{lo}, {hi})"
    assert ranges[0][0] == lo
    assert ranges[-1][1] == hi
    for start, stop in ranges:
        assert start < stop, f"empty range ({start}, {stop})"
    for (_, prev_stop), (next_start, _) in zip(ranges, ranges[1:]):
        assert prev_stop == next_start, "overlap or gap between ranges"
    assert sum(stop - start for start, stop in ranges) == hi - lo


class TestEvenRanges:
    def test_exact_partition(self):
        assert_exact_partition(even_ranges(0, 100, 7), 0, 100)
        assert_exact_partition(even_ranges(13, 57, 4), 13, 57)

    def test_empty_domain(self):
        assert even_ranges(5, 5, 4) == []
        assert even_ranges(9, 3, 4) == []

    def test_fewer_vertices_than_target(self):
        ranges = even_ranges(0, 3, 16)
        assert_exact_partition(ranges, 0, 3)
        assert len(ranges) == 3  # one vertex per range, never empty ranges

    def test_ranges_of_size(self):
        ranges = ranges_of_size(10, 35, 10)
        assert ranges == [(10, 20), (20, 30), (30, 35)]


class TestDegreeWeightedRanges:
    def test_all_zero_degree_falls_back_to_even(self):
        """Zero adjacency work everywhere: the scan-cost baseline (or the
        even fallback) still partitions by vertex count."""
        weights = np.zeros(40)
        ranges = degree_weighted_ranges(0, 40, 4, weights)
        assert_exact_partition(ranges, 0, 40)
        # With the all-zero signal the splitter falls back to even counts.
        assert [stop - start for start, stop in ranges] == [10, 10, 10, 10]

    def test_uniform_weights_match_even_split(self):
        ranges = degree_weighted_ranges(0, 64, 8, np.ones(64))
        assert_exact_partition(ranges, 0, 64)
        assert [stop - start for start, stop in ranges] == [8] * 8

    def test_super_hub_is_isolated(self):
        """One vertex carrying most of the work gets its own tiny range."""
        weights = np.ones(100)
        weights[37] = 10_000.0
        ranges = degree_weighted_ranges(0, 100, 8, weights)
        assert_exact_partition(ranges, 0, 100)
        hub_ranges = [r for r in ranges if r[0] <= 37 < r[1]]
        assert len(hub_ranges) == 1
        start, stop = hub_ranges[0]
        # The hub absorbed every cut target; dedup collapses them so the hub
        # sits alone in a single-vertex range.
        assert (start, stop) == (37, 38)

    def test_fewer_vertices_than_workers(self):
        ranges = degree_weighted_ranges(0, 3, 16, np.asarray([1.0, 2.0, 3.0]))
        assert_exact_partition(ranges, 0, 3)
        assert len(ranges) <= 3

    def test_balance_within_one_vertex_of_ideal(self):
        rng = np.random.default_rng(7)
        weights = rng.zipf(1.5, size=500).astype(np.float64)
        target = 16
        ranges = degree_weighted_ranges(0, 500, target, weights)
        assert_exact_partition(ranges, 0, 500)
        ideal = weights.sum() / target
        for start, stop in ranges:
            span = weights[start:stop]
            # A range can exceed the budget only through its last vertex
            # (boundaries cut right after the vertex crossing the goal).
            assert span.sum() <= ideal + span[-1] + 1e-9

    def test_sub_domain_offsets_respected(self):
        weights = np.arange(1, 21, dtype=np.float64)
        ranges = degree_weighted_ranges(30, 50, 5, weights)
        assert_exact_partition(ranges, 30, 50)

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            degree_weighted_ranges(0, 10, 4, np.ones(9))

    def test_empty_domain(self):
        assert degree_weighted_ranges(4, 4, 8, np.zeros(0)) == []


class TestExecutorIntegration:
    """Degree weights read off a hand-built graph's primary CSR offsets."""

    @staticmethod
    def _star_graph(num_spokes=30):
        builder = GraphBuilder()
        hub = builder.add_vertex("V")
        spokes = [builder.add_vertex("V") for _ in range(num_spokes)]
        for spoke in spokes:
            builder.add_edge(hub, spoke, "E")
        return builder.build()

    @staticmethod
    def _one_leg_plan(db):
        query = QueryGraph("star")
        query.add_vertex("a")
        query.add_vertex("b")
        query.add_edge("a", "b", name="e0")
        return db.plan(query)

    def test_csr_vertex_degrees_match_bincount(self):
        graph = self._star_graph()
        primary = PrimaryIndex(graph)
        degrees = primary.forward.vertex_degrees(0, graph.num_vertices)
        expected = np.bincount(graph.edge_src, minlength=graph.num_vertices)
        assert np.array_equal(degrees, expected)
        # Sub-range reads line up with the full-domain read.
        assert np.array_equal(primary.forward.vertex_degrees(5, 12), expected[5:12])

    def test_star_graph_hub_isolated_by_executor_ranges(self):
        from repro import Database

        graph = self._star_graph()
        db = Database(graph)
        plan = self._one_leg_plan(db)
        executor = PlanRunner(db.graph, num_workers=4)
        ranges = executor.morsel_ranges(plan)
        assert_exact_partition(ranges, 0, graph.num_vertices)
        # The hub (vertex 0) carries all the adjacency work: its range must
        # not drag a big tail of spokes along with it.
        assert ranges[0] == (0, 1)

    def test_explicit_morsel_size_beats_weighting(self):
        from repro import Database

        graph = self._star_graph()
        db = Database(graph)
        plan = self._one_leg_plan(db)
        executor = PlanRunner(db.graph, num_workers=4, morsel_size=7)
        ranges = executor.morsel_ranges(plan)
        assert_exact_partition(ranges, 0, graph.num_vertices)
        assert all(stop - start <= 7 for start, stop in ranges)
