"""Tests for columnar bulk maintenance: delta buffers, incremental merges.

Covers the maintenance-churn guarantees of the columnar update path:

* ``merge_sorted_runs`` / ``NestedCSR.spliced`` (the position splice)
  against a lexsort oracle, with and without dead positions;
* seeded interleaved bulk insert/delete/flush histories asserting that the
  incremental merge is byte-identical (CSR offsets, ID lists, offset lists,
  edge positions, statistics) to the rebuild-from-scratch oracle across all
  four index kinds (primary forward/backward, secondary vertex-partitioned,
  secondary edge-partitioned) and their configurations;
* engine-vs-naive query equivalence on the mutated graph;
* bulk APIs vs scalar wrappers, against a database built from scratch over
  the expected edge list and against the per-edge counting rule.
"""

import os

import numpy as np
import pytest

from repro import Database, Direction, EdgeAdjacencyType
from repro.errors import MaintenanceError
from repro.graph.generators import CURRENCIES, FinancialGraphSpec, generate_financial_graph
from repro.graph.graph import PropertyGraph
from repro.graph.property_store import PropertyStore
from repro.graph.statistics import GraphStatistics
from repro.index.config import IndexConfig
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.query.naive import NaiveMatcher
from repro.query.pattern import QueryGraph
from repro.storage.csr import NestedCSR, merge_sorted_runs
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey


def small_financial_graph(num_vertices=60, num_edges=240, seed=31):
    return generate_financial_graph(
        FinancialGraphSpec(
            num_vertices=num_vertices,
            num_edges=num_edges,
            num_cities=5,
            skew=0.3,
            seed=seed,
        )
    )


def database_with_secondary_indexes(graph) -> Database:
    """One VP index (own sort keys) + one EP index over a date window."""
    db = Database(graph)
    db.create_vertex_index(
        OneHopView("BigWire", predicate=Predicate.of(cmp(prop("eadj", "amt"), ">", 500))),
        directions=(Direction.FORWARD,),
        config=IndexConfig(
            partition_keys=(),
            sort_keys=(SortKey.edge_property("date"), SortKey.neighbour_id()),
        ),
        name="BigWire",
    )
    view = TwoHopView(
        "EPd",
        EdgeAdjacencyType.DST_FW,
        Predicate.of(
            cmp(prop("eb", "date"), "<", prop("eadj", "date")),
            cmp(prop("eadj", "date"), "<", prop("eb", "date"), offset=400.0),
        ),
    )
    db.create_edge_index(view, config=IndexConfig.flat(), name="EPd")
    return db


def assert_stores_identical(db_a: Database, db_b: Database) -> None:
    """Byte-identical graphs and indexes across all four index kinds."""
    ga, gb = db_a.graph, db_b.graph
    assert np.array_equal(ga.edge_src, gb.edge_src)
    assert np.array_equal(ga.edge_dst, gb.edge_dst)
    assert np.array_equal(ga.edge_labels, gb.edge_labels)
    for name in ga.schema.edge_property_names:
        col_a, col_b = ga.edge_props.column(name), gb.edge_props.column(name)
        if isinstance(col_a, list):
            assert col_a == col_b, name
        else:
            assert np.array_equal(col_a, col_b, equal_nan=True), name
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        ia = db_a.primary_index.for_direction(direction)
        ib = db_b.primary_index.for_direction(direction)
        assert np.array_equal(ia.csr.offsets, ib.csr.offsets)
        assert np.array_equal(ia.id_lists.edge_ids, ib.id_lists.edge_ids)
        assert np.array_equal(ia.id_lists.nbr_ids, ib.id_lists.nbr_ids)
        assert np.array_equal(ia._position_of_edge, ib._position_of_edge)
        assert ia.nbytes() == ib.nbytes()
    assert len(db_a.store.vertex_indexes) == len(db_b.store.vertex_indexes)
    for ia, ib in zip(db_a.store.vertex_indexes, db_b.store.vertex_indexes):
        assert np.array_equal(ia.csr.offsets, ib.csr.offsets)
        assert np.array_equal(ia.offset_lists.offsets, ib.offset_lists.offsets)
        assert ia.nbytes() == ib.nbytes()
    assert len(db_a.store.edge_indexes) == len(db_b.store.edge_indexes)
    for ia, ib in zip(db_a.store.edge_indexes, db_b.store.edge_indexes):
        assert np.array_equal(ia.csr.offsets, ib.csr.offsets)
        assert np.array_equal(ia.offset_lists.offsets, ib.offset_lists.offsets)
        assert ia.nbytes() == ib.nbytes()


def assert_statistics_equal(got: GraphStatistics, graph) -> None:
    """``got`` (carried through flushes) against a fresh count of ``graph``."""
    want = GraphStatistics(graph)
    assert got.graph is graph
    for field in (
        "_edge_label_counts",
        "_vertex_label_counts",
        "_num_edges",
        "_num_vertices",
        "_avg_out_degree",
        "_avg_in_degree",
        "out_summary",
        "in_summary",
    ):
        assert getattr(got, field) == getattr(want, field), field
    assert got.describe() == want.describe()


def random_batch(rng, num_vertices, count, with_props=True):
    src = rng.integers(0, num_vertices, size=count)
    dst = rng.integers(0, num_vertices, size=count)
    if not with_props:
        return src, dst, None
    return src, dst, dict(
        amt=rng.integers(1, 1000, size=count),
        date=rng.integers(0, 1800, size=count),
        currency=rng.integers(0, 4, size=count),
    )


def _sorted_run(rng, size, num_groups, columns):
    """A lex-sorted run: the group column, then ``columns()`` key columns."""
    keys = [rng.integers(0, num_groups, size=size)] + columns(size)
    order = np.lexsort(tuple(reversed(keys)))
    return [k[order] for k in keys]


def _offsets(groups, num_groups):
    return np.concatenate([[0], np.cumsum(np.bincount(groups, minlength=num_groups))])


def _splice_runs(base, delta, num_groups, side="right", dead=()):
    """``merge_sorted_runs`` over in-memory columns (group column first)."""
    return merge_sorted_runs(
        _offsets(base[0], num_groups),
        delta[0],
        delta[1:],
        lambda rows, at: [column[at] for column in base[1:]],
        np.asarray(dead, dtype=np.int64),
        side=side,
    )


class TestMergeSortedRuns:
    def _oracle(self, base_keys, delta_keys, base_first):
        indicator = np.concatenate(
            [np.zeros(len(base_keys[0]), int), np.ones(len(delta_keys[0]), int)]
        )
        if not base_first:
            indicator = 1 - indicator
        stacked = [
            np.concatenate([b, d]) for b, d in zip(base_keys, delta_keys)
        ]
        order = np.lexsort(tuple([indicator] + list(reversed(stacked))))
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        return inverse[: len(base_keys[0])], inverse[len(base_keys[0]) :]

    def _check(self, base, delta, num_groups, base_first=True):
        splice = _splice_runs(
            base, delta, num_groups, side="right" if base_first else "left"
        )
        want = self._oracle(base, delta, base_first)
        assert splice.new_positions.tolist() == want[0].tolist()
        assert splice.delta_positions.tolist() == want[1].tolist()

    @pytest.mark.parametrize("base_first", [True, False])
    def test_random_int_keys_match_lexsort_oracle(self, base_first):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nb, nd = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            columns = lambda n: [rng.integers(0, 4, size=n)]
            base, delta = _sorted_run(rng, nb, 6, columns), _sorted_run(rng, nd, 6, columns)
            self._check(base, delta, 6, base_first)

    def test_int64_null_markers_match_lexsort_oracle(self):
        # Null sort values sit at the int64 extreme: compared, never packed.
        null = np.iinfo(np.int64).max
        base = [np.array([0, 0, 1, 1]), np.array([5, null, 2, null])]
        delta = [np.array([0, 1, 1]), np.array([5, 1, null])]
        self._check(base, delta, 2)

    def test_float_keys_match_lexsort_oracle(self):
        base = [np.array([0, 0, 2]), np.array([0.5, 1.5, np.inf])]
        delta = [np.array([0, 2]), np.array([1.0, 0.25])]
        self._check(base, delta, 3)

    def test_empty_runs(self):
        base = [np.array([1, 2]), np.array([7, 7])]
        empty = [np.empty(0, dtype=np.int64)] * 2
        splice = _splice_runs(base, empty, 3)
        assert splice.new_positions.tolist() == [0, 1]
        assert splice.delta_positions.tolist() == []
        splice = _splice_runs(empty, base, 3)
        assert splice.new_positions.tolist() == []
        assert splice.delta_positions.tolist() == [0, 1]
        assert splice.merge(empty[0], base[1]).tolist() == [7, 7]

    def test_dead_positions_and_spliced_offsets(self):
        """Tombstones as positions: payloads and offsets equal a stable
        lexsort of the survivors and the delta together."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            nb, nd = int(rng.integers(0, 50)), int(rng.integers(0, 30))
            columns = lambda n: [rng.integers(0, 3, size=n), rng.random(n).round(1)]
            base, delta = _sorted_run(rng, nb, 5, columns), _sorted_run(rng, nd, 5, columns)
            dead = np.flatnonzero(rng.random(nb) < 0.3)
            splice = _splice_runs(base, delta, 5, dead=dead)
            alive = np.setdiff1d(np.arange(nb), dead)
            assert np.array_equal(np.flatnonzero(splice.survivors), alive)
            kept = [column[alive] for column in base]
            stacked = [np.concatenate([k, d]) for k, d in zip(kept, delta)]
            order = np.lexsort(tuple(reversed(stacked)))  # stable: base first
            for column, k, d in zip(stacked, kept, delta):
                assert np.array_equal(splice.merge(k, d), column[order])
            assert splice.new_positions[dead].tolist() == [-1] * len(dead)

            csr, _ = NestedCSR.build(5, base[0], [], [], base[1:])
            merged = csr.spliced(delta[0], dead)
            assert merged.num_entries == len(order)
            assert np.array_equal(merged.offsets, _offsets(stacked[0], 5))
            # Growing the bound domain, then dropping bounds the splice emptied.
            grown = csr.grown(2)
            assert grown.num_bound == 7 and np.array_equal(grown.offsets[:6], csr.offsets)
            gone = np.flatnonzero(base[0] == 1)
            keep_bounds = np.arange(7) != 1
            dropped = grown.spliced(delta[0][delta[0] != 1] , gone, keep_bounds)
            renumbered = np.concatenate([base[0][base[0] != 1], delta[0][delta[0] != 1]])
            renumbered = renumbered - (renumbered > 1)
            assert dropped.num_bound == 6
            assert np.array_equal(dropped.offsets, _offsets(renumbered, 6))


class TestIncrementalEqualsScratch:
    def test_randomized_churn_identical_across_index_kinds(self):
        graph = small_financial_graph()
        db_inc = database_with_secondary_indexes(graph)
        db_scr = database_with_secondary_indexes(graph)
        m_inc = db_inc.maintainer(merge_threshold=10**9)
        m_scr = db_scr.maintainer(merge_threshold=10**9)
        rng = np.random.default_rng(7)
        for _ in range(5):
            count = int(rng.integers(5, 40))
            # Every other round omits the properties so the pending edges
            # carry nulls, exercising the null sort markers and the null
            # partitions.
            src, dst, props = random_batch(rng, 60, count, with_props=bool(rng.integers(0, 2)))
            for maintainer in (m_inc, m_scr):
                maintainer.insert_edges(src, dst, "Wire", properties=props)
            num_deletes = int(rng.integers(0, 15))
            if num_deletes:
                deletes = rng.choice(db_inc.graph.num_edges, size=num_deletes, replace=False)
                for maintainer in (m_inc, m_scr):
                    maintainer.delete_edges(deletes)
            m_inc.flush(incremental=True)
            m_scr.flush(incremental=False)
            assert_stores_identical(db_inc, db_scr)

    def test_churn_with_partitioned_primary(self):
        # Default primary config partitions by edge label: exercises the
        # nested-level group folding in the splice.
        graph = small_financial_graph(seed=5)
        db_inc, db_scr = Database(graph), Database(graph)
        m_inc = db_inc.maintainer(merge_threshold=10**9)
        m_scr = db_scr.maintainer(merge_threshold=10**9)
        rng = np.random.default_rng(11)
        for _ in range(3):
            count = int(rng.integers(10, 30))
            src, dst, props = random_batch(rng, 60, count)
            labels = np.where(rng.integers(0, 2, size=count) == 0, "Wire", "DirDeposit")
            deletes = rng.choice(db_inc.graph.num_edges, size=5, replace=False)
            for maintainer in (m_inc, m_scr):
                maintainer.insert_edges(src, dst, labels.tolist(), properties=props)
                maintainer.delete_edges(deletes)
            m_inc.flush(incremental=True)
            m_scr.flush(incremental=False)
            assert_stores_identical(db_inc, db_scr)

    def test_tombstone_only_flush(self):
        graph = small_financial_graph()
        db_inc = database_with_secondary_indexes(graph)
        db_scr = database_with_secondary_indexes(graph)
        m_inc = db_inc.maintainer(merge_threshold=10**9)
        m_scr = db_scr.maintainer(merge_threshold=10**9)
        for maintainer in (m_inc, m_scr):
            maintainer.delete_edges(np.array([0, 3, 17, 99]))
        m_inc.flush(incremental=True)
        m_scr.flush(incremental=False)
        assert db_inc.graph.num_edges == graph.num_edges - 4
        assert_stores_identical(db_inc, db_scr)


fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="the large history budget is opt-in; set RUN_FUZZ=1 to run",
)

DATE_WINDOW = Predicate.of(
    cmp(prop("eb", "date"), "<", prop("eadj", "date")),
    cmp(prop("eadj", "date"), "<", prop("eb", "date"), offset=400.0),
)
BIG = Predicate.of(cmp(prop("eadj", "amt"), ">", 500))
BY_LABEL = PartitionKey.edge_label()
BY_CURRENCY = PartitionKey.edge_property("currency")
DATE, AMT = SortKey.edge_property("date"), SortKey.edge_property("amt")


def tuned_database(graph) -> Database:
    """Partitioned primary; VP with own and with shared levels; EP flat and
    partitioned, one per adjacency direction."""
    primary = IndexConfig(partition_keys=(BY_LABEL, BY_CURRENCY), sort_keys=(DATE, SortKey.neighbour_id()))
    db = Database(graph, primary_config=primary)
    db.create_vertex_index(
        OneHopView("Big", predicate=BIG),
        directions=(Direction.FORWARD, Direction.BACKWARD),
        config=IndexConfig(partition_keys=(BY_CURRENCY,), sort_keys=(DATE,)),
        name="Big",
    )
    db.create_vertex_index(
        OneHopView("All"),
        directions=(Direction.BACKWARD,),
        config=IndexConfig(
            partition_keys=primary.partition_keys,
            sort_keys=(AMT, SortKey.nbr_property("city")),
        ),
        name="All",
    )
    assert [index.shares_partition_levels for index in db.store.vertex_indexes] == [
        False, False, True,
    ]
    db.create_edge_index(
        TwoHopView("EPp", EdgeAdjacencyType.DST_FW, DATE_WINDOW),
        config=IndexConfig(partition_keys=(BY_CURRENCY,), sort_keys=(AMT,)),
        name="EPp",
    )
    db.create_edge_index(
        TwoHopView("EPb", EdgeAdjacencyType.SRC_FW, DATE_WINDOW),
        config=IndexConfig.flat(),
        name="EPb",
    )
    return db


def insertion_ordered_database(graph) -> Database:
    """Every index sorted on the edge ID (insertion order), whose values
    compaction renumbers under the merge."""
    by_id = IndexConfig(partition_keys=(), sort_keys=(SortKey.nbr_property("acc"), SortKey.edge_id()))
    db = Database(graph, primary_config=by_id)
    db.create_vertex_index(
        OneHopView("Big", predicate=BIG),
        config=IndexConfig(partition_keys=(BY_LABEL,), sort_keys=(SortKey.edge_id(),)),
        name="Big",
    )
    db.create_edge_index(
        TwoHopView("EPi", EdgeAdjacencyType.DST_BW, DATE_WINDOW),
        config=IndexConfig(partition_keys=(), sort_keys=(SortKey.edge_id(),)),
        name="EPi",
    )
    db.create_edge_index(
        TwoHopView("EPs", EdgeAdjacencyType.SRC_BW, DATE_WINDOW), config=by_id, name="EPs"
    )
    return db


DATABASES = {
    "secondary": database_with_secondary_indexes,
    "tuned": tuned_database,
    "insertion_ordered": insertion_ordered_database,
}


def history_step(rng, graph, kind):
    """One flush worth of updates: ``(insert args or None, delete IDs)``."""
    num_vertices, num_edges = graph.num_vertices, graph.num_edges
    none = np.empty(0, dtype=np.int64)

    def batch(count, with_props=True):
        src, dst, props = random_batch(rng, num_vertices, count, with_props)
        labels = np.where(rng.integers(0, 2, size=count) == 0, "Wire", "DirDeposit")
        return src, dst, labels.tolist(), props

    def some_edges(count):
        return rng.choice(num_edges, size=min(count, num_edges), replace=False)

    if kind == "mixed":
        return batch(int(rng.integers(5, 40))), some_edges(int(rng.integers(1, 15)))
    if kind == "inserts_only":
        return batch(int(rng.integers(1, 30))), none
    if kind == "deletes_only":
        return None, some_edges(int(rng.integers(1, 30)))
    if kind == "null_properties":
        # No properties at all, then nulls inside a column: null sort values
        # (the int64 extreme) and the null partitions.
        if rng.integers(0, 2):
            return batch(12, with_props=False), some_edges(3)
        src, dst, labels, props = batch(12)
        props["date"] = [None if i % 2 else int(d) for i, d in enumerate(props["date"])]
        props["currency"] = [None if i % 3 else int(c) for i, c in enumerate(props["currency"])]
        return (src, dst, labels, props), none
    if kind == "whole_lists":
        # Every edge of the busiest vertex, in and out: its lists (and the
        # lists of its edges in the edge-partitioned indexes) empty out...
        hub = int(np.argmax(graph.out_degree() + graph.in_degree()))
        doomed = np.flatnonzero((graph.edge_src == hub) | (graph.edge_dst == hub))
        return None, doomed
    if kind == "into_empty_lists":
        # ...and vertices without edges get their first ones.
        lonely = np.flatnonzero(graph.out_degree() + graph.in_degree() == 0)
        lonely = lonely if len(lonely) else np.arange(num_vertices)
        src, dst, labels, props = batch(16)
        src[:8] = rng.choice(lonely, size=8)
        dst[8:] = rng.choice(lonely, size=8)
        return (src, dst, labels, props), none
    if kind == "parallel_ties":
        # Copies of existing edges and of each other: equal on every sort key,
        # ordered by edge ID alone — delete some of the copies' originals too.
        # Every third copy keeps the endpoints only, so it ties with its
        # original where an index sorts on the neighbour and stands anywhere
        # around it where one sorts or partitions on a property.
        picks = some_edges(6)
        repeat = np.repeat(picks, 3)
        fresh = np.arange(len(repeat)) % 3 == 2
        props = {
            name: np.where(
                fresh,
                rng.integers(0, 4, size=len(repeat)),
                graph.edge_props.column(name)[repeat],
            )
            for name in ("amt", "date", "currency")
        }
        labels = np.where(fresh, rng.integers(0, 2, size=len(repeat)), graph.edge_labels[repeat])
        return (graph.edge_src[repeat], graph.edge_dst[repeat], labels, props), picks[:2]
    raise AssertionError(kind)


STEP_KINDS = (
    "mixed", "inserts_only", "deletes_only", "null_properties",
    "whole_lists", "into_empty_lists", "parallel_ties",
)


def run_history(build, seed, steps=None, num_steps=7):
    graph = small_financial_graph(seed=seed)
    db_inc, db_scr = build(graph), build(graph)
    m_inc = db_inc.maintainer(merge_threshold=10**9)
    m_scr = db_scr.maintainer(merge_threshold=10**9)
    rng = np.random.default_rng(seed)
    for kind in steps or rng.permutation(STEP_KINDS)[:num_steps]:
        inserts, deletes = history_step(rng, db_inc.graph, kind)
        for maintainer in (m_inc, m_scr):
            if inserts is not None:
                src, dst, labels, props = inserts
                maintainer.insert_edges(src, dst, labels, properties=props)
            maintainer.delete_edges(deletes)
        m_inc.flush(incremental=True)
        m_scr.flush(incremental=False)
        assert_stores_identical(db_inc, db_scr)
        assert_statistics_equal(db_inc.store.statistics, db_inc.graph)
    assert m_inc.stats.merges == m_scr.stats.merges > 0
    return db_inc


class TestChurnHistories:
    """Seeded histories, byte-identical to ``flush(incremental=False)``."""

    @pytest.mark.parametrize("seed", [5, 31])
    @pytest.mark.parametrize("database", sorted(DATABASES))
    def test_history_matches_rebuild(self, database, seed):
        run_history(DATABASES[database], seed)

    @pytest.mark.parametrize("database", sorted(DATABASES))
    def test_list_emptied_then_refilled(self, database):
        run_history(
            DATABASES[database],
            seed=11,
            steps=["whole_lists", "into_empty_lists", "whole_lists", "parallel_ties", "deletes_only"],
        )

    def test_everything_deleted_then_inserted(self):
        graph = small_financial_graph(num_edges=40)
        db_inc, db_scr = tuned_database(graph), tuned_database(graph)
        m_inc, m_scr = db_inc.maintainer(10**9), db_scr.maintainer(10**9)
        rng = np.random.default_rng(2)
        for maintainer in (m_inc, m_scr):
            maintainer.delete_edges(np.arange(graph.num_edges))
        m_inc.flush(incremental=True)
        m_scr.flush(incremental=False)
        assert db_inc.graph.num_edges == 0
        assert_stores_identical(db_inc, db_scr)
        src, dst, props = random_batch(rng, 60, 25)
        for maintainer in (m_inc, m_scr):
            maintainer.insert_edges(src, dst, "Wire", properties=props)
        m_inc.flush(incremental=True)
        m_scr.flush(incremental=False)
        assert_stores_identical(db_inc, db_scr)
        assert_statistics_equal(db_inc.store.statistics, db_inc.graph)

    def test_pending_edge_standing_before_its_tie_in_an_edge_list(self):
        """A pending edge that ties with an old entry of an edge-partitioned
        list on the sort key, and enters the primary list right before it."""
        graph = small_financial_graph(num_edges=40)
        dbs = [database_with_secondary_indexes(graph) for _ in range(2)]
        maintainers = [db.maintainer(merge_threshold=10**9) for db in dbs]

        def step(update):
            for maintainer, incremental in zip(maintainers, (True, False)):
                update(maintainer)
                maintainer.flush(incremental=incremental)
            assert_stores_identical(*dbs)

        step(lambda m: m.delete_edges(np.arange(graph.num_edges)))
        # eb = 0->1; its list holds the later transfers out of vertex 1.
        step(
            lambda m: m.insert_edges(
                [0, 1], [1, 2], ["Wire", "DirDeposit"], properties=dict(date=[10, 20], amt=[1, 1])
            )
        )
        # Same neighbour (the list's sort key), but the Wire partition of the
        # primary precedes the DirDeposit one: the new edge goes first.
        step(lambda m: m.insert_edges([1], [2], "Wire", properties=dict(date=[30], amt=[1])))
        edges, nbrs = dbs[0].store.edge_indexes[0].list(0)
        assert edges.tolist() == [2, 1] and nbrs.tolist() == [2, 2]

    def test_float_sort_key_with_nulls(self):
        """A float sort property: ``+inf`` null markers and ties."""
        from repro.graph.builder import GraphBuilder

        rng = np.random.default_rng(9)
        builder = GraphBuilder()
        for _ in range(12):
            builder.add_vertex("V")
        weights = [None if i % 5 == 0 else float(w) for i, w in enumerate(rng.integers(0, 6, 60))]
        for weight in weights:
            source, target = (int(v) for v in rng.integers(0, 12, size=2))
            builder.add_edge(source, target, "E", **({} if weight is None else {"w": weight / 2}))
        graph = builder.build()

        def build(graph):
            by_weight = IndexConfig(partition_keys=(), sort_keys=(SortKey.edge_property("w"),))
            db = Database(graph, primary_config=by_weight)
            db.create_vertex_index(
                OneHopView("Heavy", predicate=Predicate.of(cmp(prop("eadj", "w"), ">", 0.5))),
                config=IndexConfig(
                    partition_keys=(),
                    sort_keys=(SortKey.edge_property("w"), SortKey.neighbour_id()),
                ),
                name="Heavy",
            )
            heavier = Predicate.of(cmp(prop("eb", "w"), "<", prop("eadj", "w")))
            db.create_edge_index(
                TwoHopView("Up", EdgeAdjacencyType.DST_FW, heavier), config=by_weight, name="Up"
            )
            return db

        dbs = [build(graph), build(graph)]
        maintainers = [db.maintainer(merge_threshold=10**9) for db in dbs]
        for _ in range(4):
            src, dst = rng.integers(0, 12, size=(2, 10))
            w = [None if i % 4 == 0 else float(x) / 2 for i, x in enumerate(rng.integers(0, 6, 10))]
            doomed = rng.choice(dbs[0].graph.num_edges, size=6, replace=False)
            for maintainer, incremental in zip(maintainers, (True, False)):
                maintainer.insert_edges(src, dst, "E", properties=dict(w=w))
                maintainer.delete_edges(doomed)
                maintainer.flush(incremental=incremental)
            assert_stores_identical(*dbs)
        assert len(dbs[0].store.edge_indexes[0].offset_lists) > 0

    def test_flush_after_reconfiguring_the_primary(self):
        """Secondary indexes keep addressing the primary they were built on
        until a flush re-bases them onto the reconfigured one.  (Sort-key
        ties inside an edge-partitioned list keep the order of the primary
        the list was built on — on this path and on the key-based merge it
        replaced — so byte-identity holds where, as here, lists have none.)"""
        graph = small_financial_graph()
        dbs = [database_with_secondary_indexes(graph) for _ in range(2)]
        config = IndexConfig(partition_keys=(BY_CURRENCY,), sort_keys=(AMT, SortKey.neighbour_id()))
        for db in dbs:
            db.reconfigure_primary(config)
        maintainers = [db.maintainer(merge_threshold=10**9) for db in dbs]
        rng = np.random.default_rng(23)
        for _ in range(3):
            src, dst, props = random_batch(rng, 60, 30)
            doomed = rng.choice(dbs[0].graph.num_edges, size=12, replace=False)
            for maintainer, incremental in zip(maintainers, (True, False)):
                maintainer.insert_edges(src, dst, "Wire", properties=props)
                maintainer.delete_edges(doomed)
                maintainer.flush(incremental=incremental)
            assert_stores_identical(*dbs)

    def test_merged_indexes_carry_no_identity_order(self):
        db = run_history(tuned_database, seed=3, steps=["mixed"])
        indexes = [db.primary_index.forward, db.primary_index.backward]
        indexes += list(db.store.vertex_indexes) + list(db.store.edge_indexes)
        assert not any(hasattr(index.csr, "order") for index in indexes)

    def test_flush_reports_its_phases(self):
        db = database_with_secondary_indexes(small_financial_graph())
        maintainer = db.maintainer(merge_threshold=10**9)
        for incremental in (True, False):
            maintainer.insert_edges([1, 2], [3, 4], "Wire")
            maintainer.flush(incremental=incremental)
        stats = maintainer.stats
        assert list(stats.phase_seconds) == [
            "materialize", "primary", "vertex indexes", "edge indexes", "statistics", "install",
        ]
        assert all(seconds > 0 for seconds in stats.phase_seconds.values())
        assert sum(stats.phase_seconds.values()) <= stats.merge_seconds
        assert "ms per flush: materialize" in stats.describe()

    @fuzz
    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(100, 140))
    @pytest.mark.parametrize("database", sorted(DATABASES))
    def test_fuzz_history_matches_rebuild(self, database, seed):
        run_history(DATABASES[database], seed)


class TestDeleteCounting:
    def test_repeated_and_tombstoned_ids_count_once(self):
        db = Database(small_financial_graph())
        maintainer = db.maintainer(merge_threshold=10**9)
        maintainer.delete_edges([4, 4, 9])
        assert maintainer.stats.deleted_edges == 2
        assert type(maintainer.stats.deleted_edges) is int  # JSON-serializable
        assert maintainer.stats.buffered_operations == 2
        maintainer.delete_edges([9, 4])
        maintainer.delete_edge(4)
        assert maintainer.stats.deleted_edges == 2
        assert maintainer.stats.buffered_operations == 2
        maintainer.delete_edges([9, 10])
        assert maintainer.stats.deleted_edges == 3
        maintainer.flush()
        assert db.graph.num_edges == 240 - 3

    def test_repeats_do_not_trip_the_merge_threshold(self):
        db = Database(small_financial_graph())
        maintainer = db.maintainer(merge_threshold=3)
        for _ in range(5):
            maintainer.delete_edges([7, 7])
        assert maintainer.stats.merges == 0 and db.graph.num_edges == 240
        maintainer.delete_edges([8, 9])
        assert maintainer.stats.merges == 1 and db.graph.num_edges == 237


class TestQueryEquivalenceAfterChurn:
    def test_engine_matches_naive_on_mutated_graph(self):
        graph = small_financial_graph(num_edges=160)
        db = database_with_secondary_indexes(graph)
        maintainer = db.maintainer(merge_threshold=10**9)
        rng = np.random.default_rng(13)
        for _ in range(3):
            src, dst, props = random_batch(rng, 60, 25)
            maintainer.insert_edges(src, dst, "Wire", properties=props)
            maintainer.delete_edges(rng.choice(db.graph.num_edges, size=8, replace=False))
            maintainer.flush()

        query = QueryGraph("two-hop")
        for name in ("a", "b", "c"):
            query.add_vertex(name, label="Account")
        query.add_edge("a", "b", name="e1", label="Wire")
        query.add_edge("b", "c", name="e2")
        query.add_predicate(cmp(prop("e1", "amt"), ">", 300))
        assert db.count(query) == NaiveMatcher(db.graph).count(query)


def graph_from_edge_list(like, edges):
    """A graph over ``like``'s vertices holding exactly ``edges``.

    ``edges`` is a list of ``(src, dst, label name, {property: value})``
    with user-level values (``None`` for null, category names for
    categoricals), stored one value at a time through
    ``PropertyStore.set_value``: a reference assembled without the
    maintainer's columnar materialization.
    """
    schema = like.schema
    edge_props = PropertyStore(schema, "edge")
    edge_props.set_count(len(edges))
    for edge_id, (_, _, _, values) in enumerate(edges):
        for name in schema.edge_property_names:
            edge_props.set_value(edge_id, name, values.get(name))
    return PropertyGraph(
        schema=schema,
        vertex_labels=like.vertex_labels.copy(),
        edge_src=np.array([edge[0] for edge in edges], dtype=like.edge_src.dtype),
        edge_dst=np.array([edge[1] for edge in edges], dtype=like.edge_dst.dtype),
        edge_labels=np.array(
            [schema.edge_label_code(edge[2]) for edge in edges], dtype=np.int32
        ),
        vertex_props=like.vertex_props,
        edge_props=edge_props,
    )


def user_level_batch(rng, count):
    """``random_batch`` as user-level values, with one null amount, one null
    currency and every other currency given by its category name."""
    src, dst, props = random_batch(rng, 60, count)
    amt = [None] + [int(value) for value in props["amt"][1:]]
    date = [int(value) for value in props["date"]]
    currency = [CURRENCIES[int(code)] for code in props["currency"]]
    currency[3] = None
    return [int(v) for v in src], [int(v) for v in dst], dict(
        amt=amt, date=date, currency=currency
    )


class TestBulkVsScalarVsLegacy:
    """Bulk and scalar buffering against references kept outside the
    maintainer: a database built from scratch over the expected edge list,
    and the per-edge counting rule of Section IV-C."""

    def test_three_buffering_paths_produce_identical_state(self):
        graph = small_financial_graph(num_edges=120)
        rng = np.random.default_rng(17)
        src, dst, props = user_level_batch(rng, 30)
        deletes = [2, 40, 41, 99]

        db_bulk = database_with_secondary_indexes(graph)
        bulk = db_bulk.maintainer(merge_threshold=10**9)
        bulk.insert_edges(src, dst, "Wire", properties=props)
        bulk.delete_edges(deletes)
        bulk.flush()

        db_scalar = database_with_secondary_indexes(graph)
        scalar = db_scalar.maintainer(merge_threshold=10**9)
        for i in range(len(src)):
            scalar.insert_edge(
                src[i], dst[i], "Wire", **{name: values[i] for name, values in props.items()}
            )
        for edge_id in deletes:
            scalar.delete_edge(edge_id)
        scalar.flush()

        # The expected edge list: the surviving old edges in ID order, then
        # the inserted ones in insertion order.
        names = graph.schema.edge_property_names
        expected = [
            (
                int(graph.edge_src[e]),
                int(graph.edge_dst[e]),
                graph.edge_label_name(e),
                {name: graph.edge_property(e, name) for name in names},
            )
            for e in range(graph.num_edges)
            if e not in deletes
        ]
        expected += [
            (src[i], dst[i], "Wire", {name: values[i] for name, values in props.items()})
            for i in range(len(src))
        ]
        db_scratch = database_with_secondary_indexes(graph_from_edge_list(graph, expected))
        assert db_scratch.graph.edge_property(graph.num_edges - len(deletes), "amt") is None

        assert_stores_identical(db_bulk, db_scratch)
        assert_stores_identical(db_scalar, db_scratch)

    def test_stats_match_legacy_counting(self):
        """The counters follow the per-edge rule, whichever way the edges
        were buffered.  Per pending edge ``(u, v)``: two primary page-buffer
        updates; per vertex-partitioned index one predicate evaluation, plus
        one buffered update when the edge is in the view (BigWire:
        ``amt > 500``, a null amount never is); per edge-partitioned index
        one buffered update and, as probes, the lengths of the lists its two
        delta queries read.  For EPd (Destination-FW: a bound edge lists the
        edges leaving its destination) those are the bound edges ending at
        ``u`` (``backward.list(u)``) and the pending edge's own list, the
        edges leaving ``v`` (``forward.list(v)``)."""
        graph = small_financial_graph(num_edges=120)
        rng = np.random.default_rng(19)
        src, dst, props = user_level_batch(rng, 12)

        db_bulk = database_with_secondary_indexes(graph)
        bulk = db_bulk.maintainer(merge_threshold=10**9)
        bulk.insert_edges(src, dst, "Wire", properties=props)
        scalar = database_with_secondary_indexes(graph).maintainer(merge_threshold=10**9)
        for i in range(len(src)):
            scalar.insert_edge(
                src[i], dst[i], "Wire", **{name: values[i] for name, values in props.items()}
            )

        primary = db_bulk.primary_index
        in_view = sum(amt is not None and amt > 500 for amt in props["amt"])
        probes = sum(
            len(primary.backward.list(u)[0]) + len(primary.forward.list(v)[0])
            for u, v in zip(src, dst)
        )
        assert in_view and probes  # the counts exercise both terms
        expected = {
            "inserted_edges": len(src),
            "buffered_operations": 2 * len(src) + in_view + len(src),
            "secondary_predicate_evaluations": len(src),
            "edge_partitioned_probes": probes,
        }
        for maintainer in (bulk, scalar):
            for stat, value in expected.items():
                assert getattr(maintainer.stats, stat) == value, stat

    def test_bulk_validation_errors(self):
        graph = small_financial_graph()
        maintainer = Database(graph).maintainer()
        with pytest.raises(MaintenanceError):
            maintainer.insert_edges([0, 1], [1], "Wire")
        with pytest.raises(MaintenanceError):
            maintainer.insert_edges([0], [10_000], "Wire")
        with pytest.raises(MaintenanceError):
            maintainer.insert_edges([0], [1], "Nope")
        with pytest.raises(MaintenanceError):
            maintainer.delete_edges([10_000_000])

    def test_non_integer_ids_are_refused(self):
        """Float and bool IDs raise before anything is buffered or counted:
        a cast would read 0.7 as vertex 0, 2.5 as edge 2 and a mask as the
        IDs 1 and 0."""
        graph = small_financial_graph()
        db = Database(graph)
        maintainer = db.maintainer(merge_threshold=10**9)
        refused = [
            lambda: maintainer.insert_edges([0.7], [1.9], "Wire"),
            lambda: maintainer.insert_edges([0], np.array([1.0]), "Wire"),
            lambda: maintainer.insert_edges(np.array([True]), [1], "Wire"),
            lambda: maintainer.insert_edge(0.5, 1, "Wire"),
            lambda: maintainer.delete_edges([2.5]),
            lambda: maintainer.delete_edges(np.array([True, False])),
            lambda: maintainer.delete_edge(True),
        ]
        for call in refused:
            with pytest.raises(MaintenanceError, match="integer IDs"):
                call()
        # Empty inputs (float64 by default) stay a no-op.
        maintainer.insert_edges([], [], "Wire")
        maintainer.delete_edges([])
        stats = maintainer.stats
        assert (stats.inserted_edges, stats.deleted_edges, stats.buffered_operations) == (0, 0, 0)
        maintainer.flush()
        assert stats.merges == 0 and db.graph is graph

    def test_merge_threshold_triggers_bulk_flush(self):
        graph = small_financial_graph()
        db = Database(graph)
        maintainer = db.maintainer(merge_threshold=6)
        src = np.arange(5)
        maintainer.insert_edges(src, src + 1, "Wire", properties=dict(amt=np.ones(5, int)))
        assert maintainer.stats.merges == 1
        assert db.graph.num_edges == graph.num_edges + 5
