"""The suite's five workloads: set-up, operations, oracles and end checks.

An *operation* is one user call that returns an answer or applies an update:
``Database.count(query_graph)``, ``DatabaseServer.count(query_graph)`` or one
update batch (``insert_edges`` + ``delete_edges`` + ``flush``).  Operations
always submit ``QueryGraph`` objects, never pre-built plans, so the plan
cache stays on the path.  Every loop is closed: a client issues its next
operation when the previous one returned.

What ``--seed`` decides.  Match counts on these power-law graphs swing by an
order of magnitude with the generator seed (one hub's labels decide whether
SQ10 costs 20 ms or 3 s), which would bury any regression bound.  The
generator seed of every graph is therefore a constant of the benchmark, and
``--seed`` decides everything that keeps the amount of work fixed: the
vertex and edge numbering of the graph (an isomorphic copy — same answers,
different index layout), the order of operations inside every round, the
Zipf pick sequences and the update batches.
"""

from __future__ import annotations

import multiprocessing
import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import Database
from repro.bench.harness import vpt_view_and_config
from repro.graph.generators import (
    FinancialGraphSpec,
    LabelledGraphSpec,
    SocialGraphSpec,
    generate_financial_graph,
    generate_labelled_graph,
    generate_social_graph,
)
from repro.graph.graph import PropertyGraph
from repro.graph.property_store import PropertyStore
from repro.graph.types import Direction, EdgeAdjacencyType
from repro.index.config import IndexConfig
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.query.naive import NaiveMatcher
from repro.query.pattern import QueryGraph
from repro.server import DatabaseServer, ServerConfig
from repro.storage.sort_keys import SortKey
from repro.workloads import fraud, labelled_subgraph, magicrecs

#: Graph sizes and generator seeds per scale.  ``full`` is what the driver
#: measures; ``tiny`` is for the self-tests.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "sq_primary": dict(vertices=2500, edges=35_000, graph_seed=136),
        "tuned_secondary": dict(
            social_vertices=2700, social_edges=42_000, social_seed=1103,
            fin_vertices=3600, fin_edges=56_000, fin_seed=2103,
        ),
        "server_zipf": dict(vertices=4000, edges=16_000, graph_seed=13),
        "scan_process": dict(vertices=2500, edges=35_000, graph_seed=136),
        "update_mix": dict(vertices=20_000, edges=120_000, graph_seed=23, batch=1000),
    },
    "tiny": {
        "sq_primary": dict(vertices=300, edges=2400, graph_seed=136),
        "tuned_secondary": dict(
            social_vertices=300, social_edges=2400, social_seed=1103,
            fin_vertices=300, fin_edges=2400, fin_seed=2103,
        ),
        "server_zipf": dict(vertices=400, edges=1600, graph_seed=13),
        "scan_process": dict(vertices=300, edges=2400, graph_seed=136),
        "update_mix": dict(vertices=1500, edges=9000, graph_seed=23, batch=100),
    },
}

#: Vertex/edge label alphabet of the ``G_{4,2}`` labelled graphs.
VERTEX_LABELS, EDGE_LABELS = 4, 2


class Op(NamedTuple):
    """One operation: ``ok(run())`` says whether the answer was right."""

    label: str
    run: Callable[[], object]
    ok: Callable[[object], bool]


def relabelled(
    graph: PropertyGraph, rng: np.random.Generator, vertices: bool = True
) -> PropertyGraph:
    """An isomorphic copy with shuffled edge (and vertex) numbering.

    ``vertices=False`` keeps vertex IDs: queries with ``ID <`` predicates
    would otherwise select a different vertex set per seed.
    """
    num_vertices, num_edges = graph.num_vertices, graph.num_edges
    new_of_old = rng.permutation(num_vertices) if vertices else np.arange(num_vertices)
    old_of_new = np.argsort(new_of_old)
    edge_order = rng.permutation(num_edges)

    def reorder(store: PropertyStore, kind: str, order: np.ndarray) -> PropertyStore:
        copy = PropertyStore(graph.schema, kind)
        copy.set_count(len(order))
        for name in store.property_names:
            copy.set_raw_column(name, np.asarray(store.column(name))[order])
        return copy

    return PropertyGraph(
        schema=graph.schema,
        vertex_labels=graph.vertex_labels[old_of_new],
        edge_src=new_of_old[graph.edge_src[edge_order]],
        edge_dst=new_of_old[graph.edge_dst[edge_order]],
        edge_labels=graph.edge_labels[edge_order],
        vertex_props=reorder(graph.vertex_props, "vertex", old_of_new),
        edge_props=reorder(graph.edge_props, "edge", edge_order),
    )


def _always_ok(_value: object) -> bool:
    return True


class Workload:
    """Base class: one instance is one set-up of one workload."""

    name = ""
    why = ""
    #: Closed-loop client threads (at most the core count of the sandbox).
    clients = 1
    #: Rounds per second and client probed at the commit that added the
    #: benchmark; the traced pass runs a fixed ``rounds_per_second * seconds
    #: / 4`` rounds so that its counts repeat.
    rounds_per_second = 1.0
    #: Untimed rounds ``0 .. warm_up_rounds - 1`` that end every set-up;
    #: measured passes start at round ``warm_up_rounds``.
    warm_up_rounds = 1

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = abs(int(seed))
        self.size = SIZES[scale][self.name]
        #: Set-up phases the traced run reports as layer metrics.
        self.timings = {"graph_build_s": 0.0, "ddl_s": 0.0}
        #: Set by the workloads whose operations go through a server.
        self.server: Optional[DatabaseServer] = None
        self.expected: Dict[str, int] = {}
        self.failures: List[str] = []

    def rng(self, *stream: int) -> np.random.Generator:
        """An independent generator per (seed, stream) pair."""
        return np.random.default_rng([self.seed, *stream])

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Build graph, database, indexes, server; run one warm-up round."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: compute the oracle every operation is checked against."""
        for label, query, db in self.queries():
            self.expected[label] = db.count(query, factorized=False, parallelism=1)

    def finish(self) -> List[str]:
        """Tear down, then the end-of-run checks; returns failure messages."""
        self.close()
        if self.server is not None:
            stats = self.server.stats.snapshot()
            if stats["submitted"] != stats["admitted"] + stats["rejected"] + stats["shed"]:
                self.failures.append(f"server counters do not reconcile: {stats}")
            leaked = multiprocessing.active_children()
            if leaked:
                self.failures.append(f"{len(leaked)} worker processes alive after drain")
        return self.failures

    def close(self) -> None:
        """Tear down whatever :meth:`setup` started."""
        if self.server is not None:
            self.server.drain()

    # -- operations ----------------------------------------------------
    def queries(self) -> List[tuple]:
        """``(label, query graph, database)`` of every read operation."""
        return []

    def round(self, index: int, client: int = 0) -> List[Op]:
        raise NotImplementedError

    def primary_only_round(self) -> List[Op]:
        """The read operations against primary-only copies; none by default."""
        return []

    def warm_up(self) -> None:
        for index in range(self.warm_up_rounds):
            for client in range(self.clients):
                for op in self.round(index, client):
                    op.run()

    def _expects(self, label: str) -> Callable[[object], bool]:
        return lambda value: value == self.expected[label]

    # -- reporting -----------------------------------------------------
    def databases(self) -> List[Database]:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Monotonic engine counters; the traced run reports their growth."""
        hits = misses = 0
        for db in self.databases():
            stats = db.plan_cache.stats.snapshot()
            hits += stats["hits"]
            misses += stats["misses"]
        counters = {"plan_cache_hits": hits, "plan_cache_misses": misses}
        if self.server is not None:
            stats = self.server.stats.snapshot()
            for key in ("rejected", "shed", "failed"):
                counters[key] = stats[key]
            counters["pools_created"] = self.server.supervisor.pools_created
            counters["pools_reused"] = self.server.supervisor.pools_reused
        return counters

    def trace_rounds(self, seconds: float) -> int:
        return max(1, int(self.rounds_per_second * seconds / 4))


def _labelled_graph(size: Dict[str, float], rng: np.random.Generator) -> PropertyGraph:
    base = generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=int(size["vertices"]),
            num_edges=int(size["edges"]),
            num_vertex_labels=VERTEX_LABELS,
            num_edge_labels=EDGE_LABELS,
            seed=int(size["graph_seed"]),
        )
    )
    return relabelled(base, rng)


def _shuffled(items: Sequence, rng: np.random.Generator) -> List:
    return [items[i] for i in rng.permutation(len(items))]


class SqPrimary(Workload):
    name = "sq_primary"
    rounds_per_second = 4.0
    why = (
        "serial Database.count of SQ1-SQ10 under primary-only config D: storage kernels "
        "and operators do the work; server, transport and secondary indexes are bypassed"
    )
    query_names = tuple(f"SQ{i}" for i in range(1, 11))

    def setup(self) -> None:
        started = time.perf_counter()
        self.graph = _labelled_graph(self.size, self.rng(0))
        self.db = Database(
            self.graph, primary_config=IndexConfig.default(), parallelism=1, backend="serial"
        )
        self.timings["graph_build_s"] = time.perf_counter() - started
        self.graphs = {
            name: labelled_subgraph.build_query(name, VERTEX_LABELS, EDGE_LABELS)
            for name in self.query_names
        }
        self.start()
        self.warm_up()

    def start(self) -> None:
        """Nothing to start: operations call the database directly."""

    def prepare(self) -> None:
        super().prepare()
        # The flat oracle shares the engine's kernels; anchor it once against
        # the independent backtracking matcher on a graph that one can afford.
        small = generate_labelled_graph(
            LabelledGraphSpec(150, 600, VERTEX_LABELS, EDGE_LABELS, skew=0.3, seed=self.seed)
        )
        small_db = Database(small, parallelism=1, backend="serial")
        naive = NaiveMatcher(small)
        for name in ("SQ1", "SQ4"):
            query = labelled_subgraph.build_query(name, VERTEX_LABELS, EDGE_LABELS)
            got, want = small_db.count(query), naive.count(query)
            if got != want:
                self.failures.append(f"{name} on the 150-vertex graph: {got} != naive {want}")

    def queries(self) -> List[tuple]:
        return [(name, query, self.db) for name, query in self.graphs.items()]

    def run_query(self, query: QueryGraph) -> int:
        return (self.server or self.db).count(query)

    def round(self, index: int, client: int = 0) -> List[Op]:
        return [
            Op(name, partial(self.run_query, self.graphs[name]), self._expects(name))
            for name in _shuffled(self.query_names, self.rng(1, index))
        ]

    def databases(self) -> List[Database]:
        return [self.db]


class ScanProcess(SqPrimary):
    name = "scan_process"
    rounds_per_second = 2.7
    why = (
        "one client through DatabaseServer on the persistent process pool: payload "
        "shipping, columnar reply decode, crc32 and the polled wait sit on the blocking path"
    )
    query_names = ("SQ5", "SQ6", "SQ7", "SQ8", "SQ10")

    def start(self) -> None:
        self.server = DatabaseServer(
            self.db,
            ServerConfig(max_concurrent=1, policy="block", backend="process", parallelism=2),
        )


def _social_query(name: str, edges: Sequence[tuple]) -> QueryGraph:
    query = QueryGraph(name)
    for var in sorted({v for edge in edges for v in edge}):
        query.add_vertex(var, label="User")
    for position, (src, dst) in enumerate(edges, start=1):
        query.add_edge(src, dst, label="Follows", name=f"e{position}")
    return query


class ServerZipf(Workload):
    name = "server_zipf"
    rounds_per_second = 1.4
    why = (
        "two clients through DatabaseServer on the thread pool, Zipf mix of 1-20 ms queries: "
        "admission, plan-cache lookup, lease and morsel dispatch dominate, kernels do little"
    )
    clients = 2
    #: Operations per round and client: Zipf(1.2) over three ranks gives
    #: shares 0.587 / 0.256 / 0.157, i.e. 15 / 6 / 4 of 25; every round holds
    #: exactly that mix, in a seed-shuffled order.
    mix = (("one_hop", 15), ("two_hop", 6), ("triangle", 4))

    def setup(self) -> None:
        started = time.perf_counter()
        base = generate_social_graph(
            SocialGraphSpec(
                num_vertices=int(self.size["vertices"]),
                num_edges=int(self.size["edges"]),
                skew=0.6,
                seed=int(self.size["graph_seed"]),
            )
        )
        self.db = Database(relabelled(base, self.rng(0)))
        self.timings["graph_build_s"] = time.perf_counter() - started
        self.graphs = {
            "one_hop": _social_query("one_hop", [("a", "b")]),
            "two_hop": _social_query("two_hop", [("a", "b"), ("b", "c")]),
            "triangle": _social_query("triangle", [("a", "b"), ("b", "c"), ("a", "c")]),
        }
        self.server = DatabaseServer(
            self.db,
            ServerConfig(max_concurrent=2, policy="block", backend="thread", parallelism=2),
        )
        self.warm_up()

    def queries(self) -> List[tuple]:
        return [(name, query, self.db) for name, query in self.graphs.items()]

    def round(self, index: int, client: int = 0) -> List[Op]:
        picks = [name for name, share in self.mix for _ in range(share)]
        return [
            Op(name, partial(self.server.count, self.graphs[name]), self._expects(name))
            for name in _shuffled(picks, self.rng(1, client, index))
        ]

    def databases(self) -> List[Database]:
        return [self.db]


class TunedSecondary(Workload):
    name = "tuned_secondary"
    rounds_per_second = 3.0
    why = (
        "MR1-MR2 under D+VPt and MF1-MF5 under D+VPc+EPc: the only read workload on secondary "
        "vertex- and edge-partitioned indexes, offset lists and sorted-range search"
    )

    def _graphs(self) -> tuple:
        size = self.size
        social = generate_social_graph(
            SocialGraphSpec(
                int(size["social_vertices"]), int(size["social_edges"]),
                seed=int(size["social_seed"]),
            )
        )
        financial = generate_financial_graph(
            FinancialGraphSpec(
                int(size["fin_vertices"]), int(size["fin_edges"]), seed=int(size["fin_seed"])
            )
        )
        # MF3 and MF5 carry ``ID <`` predicates, so the transfer graph keeps
        # its vertex numbering.
        return relabelled(social, self.rng(0)), relabelled(financial, self.rng(1), vertices=False)

    def setup(self) -> None:
        started = time.perf_counter()
        social, financial = self._graphs()
        self.social_db = Database(social, primary_config=IndexConfig.default(), parallelism=1, backend="serial")
        self.fin_db = Database(financial, primary_config=IndexConfig.default(), parallelism=1, backend="serial")
        self.timings["graph_build_s"] = time.perf_counter() - started

        started = time.perf_counter()
        view, config = vpt_view_and_config()
        self.social_db.create_vertex_index(
            view, directions=(Direction.FORWARD,), config=config, name="VPt"
        )
        view, config = fraud.vpc_view_and_config()
        self.fin_db.create_vertex_index(
            view, directions=(Direction.FORWARD, Direction.BACKWARD), config=config, name="VPc"
        )
        view, config = fraud.epc_view_and_config(fraud.amount_alpha(financial))
        self.fin_db.create_edge_index(view, config=config, name="EPc")
        self.timings["ddl_s"] = time.perf_counter() - started

        recommendations = magicrecs.build_workload(social)
        self.graphs = {name: (recommendations[name], self.social_db) for name in ("MR1", "MR2")}
        for name, query in fraud.build_workload(financial).items():
            self.graphs[name] = (query, self.fin_db)
        self.warm_up()

    def queries(self) -> List[tuple]:
        return [(name, query, db) for name, (query, db) in self.graphs.items()]

    def round(self, index: int, client: int = 0) -> List[Op]:
        ops = []
        for name in _shuffled(list(self.graphs), self.rng(2, index)):
            query, db = self.graphs[name]
            ops.append(Op(name, partial(db.count, query), self._expects(name)))
        return ops

    def primary_only_round(self) -> List[Op]:
        """The same seven queries against config ``D`` (no secondary index)."""
        plain = {
            id(db): Database(db.graph, primary_config=IndexConfig.default(), parallelism=1, backend="serial")
            for db in self.databases()
        }
        return [
            Op(name, partial(plain[id(db)].count, query), self._expects(name))
            for name, (query, db) in self.graphs.items()
        ]

    def databases(self) -> List[Database]:
        return [self.social_db, self.fin_db]


#: ``EPdate`` pairs a transfer with later transfers out of its destination
#: within this many days.
DATE_WINDOW = 50.0


def _create_update_indexes(db: Database) -> None:
    """``BigWire`` (1-hop, amt > 500, date-sorted) and ``EPdate`` (2-hop)."""
    db.create_vertex_index(
        OneHopView("BigWire", predicate=Predicate.of(cmp(prop("eadj", "amt"), ">", 500))),
        directions=(Direction.FORWARD,),
        config=IndexConfig(
            partition_keys=(),
            sort_keys=(SortKey.edge_property("date"), SortKey.neighbour_id()),
        ),
        name="BigWire",
    )
    db.create_edge_index(
        TwoHopView(
            "EPdate",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(
                cmp(prop("eb", "date"), "<", prop("eadj", "date")),
                cmp(prop("eadj", "date"), "<", prop("eb", "date"), offset=DATE_WINDOW),
            ),
        ),
        config=IndexConfig.flat(),
        name="EPdate",
    )


def _update_queries() -> Dict[str, QueryGraph]:
    def path(name: str, hops: int) -> QueryGraph:
        query = QueryGraph(name)
        for var in "abc"[: hops + 1]:
            query.add_vertex(var, label="Account")
        for hop in range(hops):
            query.add_edge("abc"[hop], "abc"[hop + 1], name=f"e{hop + 1}")
        return query

    all_wires = path("all_wires", 1)
    wire_big = path("wire_big", 1)
    wire_big.add_predicate(cmp(prop("e1", "amt"), ">", 500))
    flow2 = path("flow2", 2)
    flow2.add_predicate(cmp(prop("e1", "amt"), ">", 500))
    flow2.add_predicate(cmp(prop("e1", "date"), "<", prop("e2", "date")))
    flow2.add_predicate(cmp(prop("e2", "date"), "<", prop("e1", "date"), offset=DATE_WINDOW))
    return {"all_wires": all_wires, "wire_big": wire_big, "flow2": flow2}


class UpdateMix(Workload):
    name = "update_mix"
    rounds_per_second = 13.0
    why = (
        "insert+delete+flush batches interleaved with reads of the BigWire and EPdate indexes: "
        "maintenance cost beside read cost, and a plan-cache miss after every flush"
    )
    #: Every flush bumps the store generation, so the 64-entry plan cache
    #: keeps filling (3 plans per cycle, each pinning its generation's
    #: indexes) for 22 cycles; update latency is 1.5-3x its steady value
    #: until the cache starts evicting and memory stops growing.
    warm_up_rounds = 24

    def setup(self) -> None:
        started = time.perf_counter()
        base = generate_financial_graph(
            FinancialGraphSpec(
                num_vertices=int(self.size["vertices"]),
                num_edges=int(self.size["edges"]),
                num_cities=40,
                skew=0.6,
                seed=int(self.size["graph_seed"]),
            )
        )
        self.db = Database(relabelled(base, self.rng(0)), parallelism=1, backend="serial")
        self.timings["graph_build_s"] = time.perf_counter() - started
        started = time.perf_counter()
        _create_update_indexes(self.db)
        self.timings["ddl_s"] = time.perf_counter() - started
        # Merges happen only in the explicit flush of an update operation.
        self.maintainer = self.db.maintainer(merge_threshold=10**12)
        self.graphs = _update_queries()
        self.num_vertices = self.db.graph.num_vertices
        self.num_edges = self.db.graph.num_edges
        self.warm_up()

    def prepare(self) -> None:
        """Nothing to precompute: answers change with every flush."""

    def apply_update(self, src, dst, properties, doomed) -> None:
        self.maintainer.insert_edges(src, dst, "Wire", properties=properties)
        self.maintainer.delete_edges(doomed)
        self.maintainer.flush()

    def round(self, index: int, client: int = 0) -> List[Op]:
        """One update batch, then every query twice in shuffled order.

        Each batch inserts and deletes the same number of edges, so the
        graph keeps its size and every cycle is steady state.
        """
        rng = self.rng(1, index)
        batch = int(self.size["batch"])
        update = partial(
            self.apply_update,
            rng.integers(0, self.num_vertices, size=batch),
            rng.integers(0, self.num_vertices, size=batch),
            dict(
                amt=rng.integers(1, 1001, size=batch),
                date=rng.integers(0, 1825, size=batch),
                currency=rng.integers(0, 4, size=batch),
            ),
            rng.choice(self.num_edges, size=batch, replace=False),
        )
        ops = [Op("update", update, _always_ok)]
        for name in _shuffled(list(self.graphs) * 2, rng):
            ok = self._live_edges if name == "all_wires" else _always_ok
            ops.append(Op(name, partial(self.db.count, self.graphs[name]), ok))
        return ops

    def _live_edges(self, value: object) -> bool:
        return value == self.db.graph.num_edges

    def finish(self) -> List[str]:
        """All three queries against a database rebuilt from the final graph."""
        rebuilt = Database(self.db.graph, parallelism=1, backend="serial")
        _create_update_indexes(rebuilt)
        for name, query in self.graphs.items():
            got, want = self.db.count(query), rebuilt.count(query, factorized=False)
            if got != want:
                self.failures.append(f"{name} after the run: {got} != rebuilt {want}")
        return self.failures

    def databases(self) -> List[Database]:
        return [self.db]

    def counters(self) -> Dict[str, int]:
        counters = super().counters()
        stats = self.maintainer.stats
        counters["flush_edges"] = stats.inserted_edges + stats.deleted_edges
        counters["ep_probes"] = stats.edge_partitioned_probes
        return counters


WORKLOADS = {
    cls.name: cls for cls in (SqPrimary, TunedSecondary, ServerZipf, ScanProcess, UpdateMix)
}
