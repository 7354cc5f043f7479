"""Generated inputs for the flat E/I's shared-list intersection.

:func:`repro.storage.intersect.intersect_shared_lists` is what a flat
multi-leg E/I whose legs bind no edge intersects with when every leg's keys
repeat: each leg passes its distinct lists once and rows name their lists
by index (the kernel also takes one list per row).  Its rows must be those of
:func:`~repro.storage.intersect.intersect_segments` on the same batch
expanded to one segment per (leg, row), in the same order:

* the kernel is drawn over 2-3 legs, list spaces with and without parallel
  entries, sorted or not on the key, with empty lists, rows that repeat
  their lists and legs with one list per row, and compared with
  ``intersect_segments``' neighbour column and ``counts_out``;
* :meth:`~repro.query.operators.ExtendIntersect.execute` is drawn over a
  small multigraph, on batches whose bound columns repeat or not and carry
  merged-row weights or none, with a residual or not and a leg read from
  an index that is not sorted on neighbour ID, and compared — rows, their
  order, weights and logical counters — with the per-row fetch intersected
  by ``intersect_segments``; a batch where some leg's keys do not repeat
  shares no list.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graph import Direction, GraphBuilder  # noqa: E402
from repro.index.config import IndexConfig  # noqa: E402
from repro.index.index_store import IndexStore  # noqa: E402
from repro.index.primary import PrimaryIndex  # noqa: E402
from repro.predicates import Predicate, cmp, prop  # noqa: E402
from repro.query import QueryGraph  # noqa: E402
from repro.query.binding import MatchBatch  # noqa: E402
from repro.query.operators import (  # noqa: E402
    ExecutionContext,
    ExecutionStats,
    ExtendIntersect,
    ExtensionLeg,
    _shared_keys,
)
from repro.storage.intersect import (  # noqa: E402
    intersect_segments,
    intersect_shared_lists,
)
from repro.storage.sort_keys import SortKey  # noqa: E402

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large example budget is opt-in; set RUN_FUZZ=1 to run",
)

#: Keys are drawn below this; small, so that lists meet.
_DOMAIN = 9


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
@st.composite
def list_spaces(draw):
    """``(list_keys, list_counts, row_lists, presorted)``, one space per leg."""
    num_legs = draw(st.integers(2, 3))
    num_rows = draw(st.integers(0, 10))
    parallel = draw(st.booleans())
    list_keys, list_counts, row_lists, presorted = [], [], [], []
    for _leg in range(num_legs):
        # A leg whose keys repeat passes few lists; one that does not, one
        # list per row.
        per_row = draw(st.booleans())
        num_lists = num_rows if per_row else draw(st.integers(1, 4))
        lists = draw(
            st.lists(
                st.lists(st.integers(0, _DOMAIN - 1), max_size=6),
                min_size=num_lists,
                max_size=num_lists,
            )
        )
        if not parallel:
            lists = [list(dict.fromkeys(entries)) for entries in lists]
        sort = draw(st.booleans())
        if sort:
            lists = [sorted(entries) for entries in lists]
        if per_row:
            chosen = np.arange(num_rows, dtype=np.int64)
        else:
            chosen = np.asarray(
                draw(
                    st.lists(
                        st.integers(0, num_lists - 1), min_size=num_rows, max_size=num_rows
                    )
                ),
                dtype=np.int64,
            )
        list_keys.append(np.asarray([k for entries in lists for k in entries], dtype=np.int64))
        list_counts.append(np.asarray([len(entries) for entries in lists], dtype=np.int64))
        row_lists.append(chosen)
        presorted.append(sort)
    return list_keys, list_counts, row_lists, presorted


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


def check_kernel(spaces):
    list_keys, list_counts, row_lists, presorted = spaces
    leg_keys, leg_counts = _per_row_segments(list_keys, list_counts, row_lists)
    want = intersect_segments(
        leg_keys, leg_counts, len(row_lists[0]), presorted, need_positions=False
    )
    nbrs, counts = intersect_shared_lists(
        list_keys, list_counts, row_lists, presorted, _DOMAIN
    )
    assert nbrs.dtype == counts.dtype == np.int64
    assert counts.tolist() == want.counts_out.tolist()
    assert nbrs.tolist() == want.expanded_keys().tolist()


@settings(max_examples=200, deadline=None)
@given(list_spaces())
def test_kernel_agrees_with_the_segment_kernel(spaces):
    check_kernel(spaces)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=2000, deadline=None)
@given(list_spaces())
def test_fuzz_kernel_agrees_with_the_segment_kernel(spaces):
    check_kernel(spaces)


def test_kernel_rows_follow_parallel_entries_and_the_list_order():
    """Row 0 meets key 3 twice on one leg and three times on the other: six
    rows of 3, after its one 1.  Row 1's lists are unsorted and empty."""
    nbrs, counts = intersect_shared_lists(
        [np.array([3, 1, 3, 5]), np.array([3, 3, 1, 3])],
        [np.array([4, 0]), np.array([4])],
        [np.array([0, 1]), np.array([0, 0])],
        presorted=[False, False],
        domain=6,
    )
    assert nbrs.tolist() == [1] + [3] * 6
    assert counts.tolist() == [7, 0]


# ----------------------------------------------------------------------
# the operator
# ----------------------------------------------------------------------
_VERTICES = 12


def _graph(edges):
    builder = GraphBuilder()
    for vertex in range(_VERTICES):
        builder.add_vertex(f"VL{vertex % 2}")
    src = np.asarray([s for s, _d, _a in edges], dtype=np.int64)
    dst = np.asarray([d for _s, d, _a in edges], dtype=np.int64)
    builder.add_edges(
        src, dst, ["EL0"] * len(edges), properties={"amt": [a for _s, _d, a in edges]}
    )
    return builder.build()


def _leg(store, direction, bound, edge_var, residual):
    path = store.find_vertex_access_paths(direction, Predicate.true())[0]
    return ExtensionLeg(
        access_path=path,
        bound_var=bound,
        target_var="t",
        edge_var=edge_var,
        residual=residual,
        presorted_by_nbr=path.sorted_by_neighbour_id,
    )


@st.composite
def extensions(draw):
    """``(graph, operator, batch)``: an E/I to ``t`` from 2-3 bound vertices."""
    pair = st.tuples(
        st.integers(0, _VERTICES - 1), st.integers(0, _VERTICES - 1), st.integers(0, 3)
    )
    edges = draw(st.lists(pair, min_size=1, max_size=60))
    # Parallel edges: some drawn edges twice.
    edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    graph = _graph(edges)
    # An index sorted on the edge's amount first lists no neighbour in order.
    config = (
        IndexConfig(
            partition_keys=(),
            sort_keys=(SortKey.edge_property("amt"), SortKey.neighbour_id()),
        )
        if draw(st.booleans())
        else IndexConfig.flat()
    )
    store = IndexStore(graph, PrimaryIndex(graph, config=config))
    bound = ["a", "b", "c"][: draw(st.integers(2, 3))]
    legs = []
    for position, var in enumerate(bound):
        direction = draw(st.sampled_from([Direction.FORWARD, Direction.BACKWARD]))
        residual = Predicate.true()
        if draw(st.booleans()):
            residual = Predicate.of(cmp(prop(f"e{position}", "amt"), "<", 3))
        legs.append(_leg(store, direction, var, f"e{position}", residual))
    operator = ExtendIntersect(target_var="t", legs=legs)

    num_rows = draw(st.integers(1, 24))
    columns = {}
    for var in bound:
        # Few distinct values make a leg's keys repeat; a permutation-like
        # draw keeps them apart.
        high = draw(st.sampled_from([1, 3, _VERTICES - 1]))
        columns[var] = np.asarray(
            draw(st.lists(st.integers(0, high), min_size=num_rows, max_size=num_rows)),
            dtype=np.int64,
        )
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(st.lists(st.integers(1, 5), min_size=num_rows, max_size=num_rows)),
            dtype=np.int64,
        )
    return graph, operator, MatchBatch(columns, weights)


def _query(operator):
    query = QueryGraph("ei")
    for leg in operator.legs:
        query.add_vertex(leg.bound_var)
    query.add_vertex("t")
    for leg in operator.legs:
        query.add_edge(leg.bound_var, "t", name=leg.edge_var)
    return query


def _segment_extend(operator, batch, context):
    """The per-row fetch of every leg, intersected by ``intersect_segments``."""
    per_leg = [leg.fetch_many(context, batch, batch.weights) for leg in operator.legs]
    result = intersect_segments(
        [nbr_ids for _, nbr_ids, _ in per_leg],
        [counts for _, _, counts in per_leg],
        num_rows=len(batch),
        presorted=[leg.presorted_by_nbr for leg in operator.legs],
        need_positions=False,
    )
    extended = batch.repeat(result.counts_out).with_columns({"t": result.expanded_keys()})
    context.stats.intermediate_rows += extended.match_count()
    return extended


def _logical(stats):
    return (
        stats.lists_accessed,
        stats.list_entries_fetched,
        stats.predicate_evaluations,
        stats.intermediate_rows,
    )


def check_operator(drawn):
    graph, operator, batch = drawn
    query = _query(operator)
    context = ExecutionContext(graph=graph, query=query, batch_size=1 << 20)
    got = list(operator.execute([batch], context))
    reference = ExecutionContext(graph=graph, query=query, stats=ExecutionStats())
    want = _segment_extend(operator, batch, reference)
    if len(want) == 0:
        assert got == []
    else:
        (got,) = got
        assert got.variables == want.variables
        for name in want.variables:
            assert got.column(name).dtype == np.int64
            assert got.column(name).tolist() == want.column(name).tolist(), name
        assert (got.weights is None) == (want.weights is None)
        if want.weights is not None:
            assert got.weights.tolist() == want.weights.tolist()
    assert _logical(context.stats) == _logical(reference.stats)
    # A merged row already shares its list among the matches it stands for;
    # a repeated key shares it among rows on top of that, and only when
    # every leg's keys repeat.
    if _shared_keys(operator.legs, batch, reference) is None:
        assert context.stats.lists_shared == reference.stats.lists_shared
        assert context.stats.entries_shared == reference.stats.entries_shared
    else:
        assert context.stats.lists_shared >= reference.stats.lists_shared
        assert context.stats.entries_shared >= reference.stats.entries_shared


@settings(max_examples=150, deadline=None)
@given(extensions())
def test_flat_e_i_agrees_with_the_segment_kernel(drawn):
    check_operator(drawn)


@fuzz
@pytest.mark.fuzz
@settings(max_examples=600, deadline=None)
@given(extensions())
def test_fuzz_flat_e_i_agrees_with_the_segment_kernel(drawn):
    check_operator(drawn)
