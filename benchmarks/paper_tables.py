"""The source paper's Tables I–V and §V-F, measured and appended to
``BENCH_paper_tables.json``::

    BENCH_SCALE=1 PYTHONPATH=src python benchmarks/paper_tables.py

Every table is one declarative spec below — its dataset, configurations,
queries and the paper's constants — and one loop runs them all.  A query row
records the count, ``list_entries_fetched``, the median milliseconds of
``REPETITIONS`` runs on the path ``Database.count`` takes
(``run(plan, factorized=plan.supports_factorized_count)``), the ratio over
``D``, the paper's ratio over ``D`` and a ``verdict``: ``match`` when both
ratios fall on the same side of par (within ``PAR``), ``miss`` when they do
not, ``n/a`` where the paper gives no figure (``baseline`` on D's own
rows).  Each configuration also gets one row of charged memory, its ratio
over ``D`` (``match`` when no more than ``PAR`` times the paper's), the
number of indexed edges and its setup time (IR in Table II, IC in Tables
III and IV).

Verdicts are recorded, never asserted: at small scale a timing is noise.
``tests/test_paper_tables.py`` runs :func:`main` at ``scale=0.1`` and
asserts the deterministic orderings — equal counts, fewer entries fetched,
charged bytes.

The output file is append-only, in ``paired.py``'s shape: ``tables`` maps
each table to a list of entries, oldest first, each carrying its own scale
and environment stamp; a run adds one entry per table and never replaces
one.  ``BENCH_SCALE`` scales every dataset (default 1.0).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import BENCH_SCALE
from paired import ROOT, environment_stamp
from repro import Database, Direction, EdgeAdjacencyType
from repro.bench.harness import vpt_view_and_config
from repro.graph.generators import SocialGraphSpec, generate_social_graph
from repro.graph.types import EDGE_ID_BYTES, VERTEX_ID_BYTES
from repro.index.bitmap import BitmapSecondaryIndex
from repro.index.config import IndexConfig
from repro.index.primary import PrimaryIndex
from repro.index.vertex_partitioned import VertexPartitionedIndex
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey
from repro.workloads import fraud, labelled_subgraph, magicrecs
from repro.workloads.datasets import (
    DATASETS,
    financial_dataset,
    labelled_dataset,
    social_dataset,
    table1_rows,
)

OUT = os.path.join(ROOT, "BENCH_paper_tables.json")
#: Timed runs per (configuration, query); the row keeps their median.
REPETITIONS = 5
#: A ratio within this factor of 1 is par, neither faster nor slower.
PAR = 1.1
#: Selectivity of MagicRecs' time and the fraud queries' amount predicates.
SELECTIVITY = 0.05
#: MR3's start vertex is bounded to this share of the vertices (the paper
#: bounds it on its largest datasets).
MR3_LIMIT_FRACTION = 0.1


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------
def _vpt(db: Database) -> int:
    view, config = vpt_view_and_config()
    return db.create_vertex_index(
        view, directions=(Direction.FORWARD,), config=config, name="VPt"
    ).indexed_edges


def _vpc(db: Database) -> int:
    view, config = fraud.vpc_view_and_config()
    return db.create_vertex_index(
        view, directions=(Direction.FORWARD, Direction.BACKWARD), config=config, name="VPc"
    ).indexed_edges


def _epc(db: Database) -> int:
    view, config = fraud.epc_view_and_config(fraud.amount_alpha(db.graph, SELECTIVITY))
    return db.create_edge_index(view, config=config, name="EPc").indexed_edges


def _ept(db: Database) -> int:
    """§V-F's EPt: eb.time < eadj.time < eb.time + 1 % of the time range."""
    times = db.graph.edge_props.column("time")
    delta = max(float(times.max() - times.min()) * 0.01, 1.0)
    view = TwoHopView(
        "EPt",
        EdgeAdjacencyType.DST_FW,
        Predicate.of(
            cmp(prop("eb", "time"), "<", prop("eadj", "time")),
            cmp(prop("eadj", "time"), "<", prop("eb", "time"), offset=delta),
        ),
    )
    return db.create_edge_index(view, config=IndexConfig.flat(), name="EPt").indexed_edges


#: Edge-label partitions in insertion (edge-ID) order.
UNSORTED = IndexConfig(
    partition_keys=(PartitionKey.edge_label(),), sort_keys=(SortKey.edge_id(),)
)


@dataclass(frozen=True)
class Config:
    """A primary index configuration plus the secondary indexes built on it."""

    name: str
    primary: IndexConfig = IndexConfig.default()
    #: Each builds one secondary index on the database, returning its edges.
    secondary: Tuple[Callable[[Database], int], ...] = ()

    def build(self, graph):
        """The database, its indexed edges and the seconds the build took."""
        started = time.perf_counter()
        db = Database(graph, primary_config=self.primary, parallelism=1)
        indexed_edges = graph.num_edges + sum(build(db) for build in self.secondary)
        return db, indexed_edges, time.perf_counter() - started


D = Config("D")
DS = Config("Ds", IndexConfig.sorted_by_nbr_label())
DP = Config("Dp", IndexConfig.partitioned_by_nbr_label())
D_VPT = Config("D+VPt", secondary=(_vpt,))
D_VPC = Config("D+VPc", secondary=(_vpc,))
D_VPC_EPC = Config("D+VPc+EPc", secondary=(_vpc, _epc))
#: Neo4j keeps each vertex's edges per label in a linked list of records:
#: no query-relevant order, so every intersection sorts its legs per access.
#: (The paper's TigerGraph has D's fixed layout and is reported as D.)
NEO4J_LIKE = Config("Neo4j-like", UNSORTED)


# ----------------------------------------------------------------------
# the paper's constants
# ----------------------------------------------------------------------
def _ratios_over_d(seconds: Dict[str, Dict[str, Optional[float]]]):
    """The paper's runtimes (seconds) as ratios over its ``D`` column."""
    base = seconds["D"]
    return {
        config: {q: None if s is None else base[q] / s for q, s in row.items()}
        for config, row in seconds.items()
        if config != "D"
    }


#: Table II, WT_{4,2}: Ds and Dp speedups over D.
_TABLE2_WT42 = {
    "SQ1": (1.65, 1.91), "SQ2": (1.89, 2.20), "SQ3": (1.56, 1.80),
    "SQ4": (1.22, 1.53), "SQ5": (1.65, 1.99), "SQ6": (1.38, 1.66),
    "SQ7": (1.20, 1.21), "SQ8": (2.87, 3.94), "SQ9": (2.09, 2.62),
    "SQ10": (1.60, 1.74), "SQ11": (4.41, 4.45), "SQ12": (1.53, 1.88),
    "SQ13": (1.98, 3.26),
}
#: Table V, WT_{4,2}, from seconds.  Neo4j did not finish SQ13 in 1800 s.
#: TigerGraph (1.6 / 7.1 / 10.2 / 29.5 s) has D's layout here.
_TABLE5_WT42 = _ratios_over_d({
    "D": {"SQ1": 0.6, "SQ2": 4.6, "SQ3": 5.5, "SQ13": 767.5},
    "Dp": {"SQ1": 0.3, "SQ2": 2.1, "SQ3": 3.1, "SQ13": 235.7},
    "Neo4j-like": {"SQ1": 1650.0, "SQ2": 876.0, "SQ3": 82.9, "SQ13": None},
})
_TABLE5_QUERIES = ("SQ1", "SQ2", "SQ3", "SQ13")


@dataclass(frozen=True)
class QueryTable:
    """One table of query runtimes: a dataset, its queries, configurations."""

    name: str
    #: ``labelled`` (SQ workload), ``social`` (MagicRecs) or ``financial``.
    workload: str
    dataset: str
    configs: Tuple[Config, ...]
    #: Per configuration, per query: the paper's ratio over D (None: "—").
    paper: Dict[str, Dict[str, Optional[float]]]
    #: Per configuration: the paper's memory ratio over D.
    paper_memory: Dict[str, float]
    #: The labelled workload's (vertex, edge) label alphabets and queries.
    labels: Tuple[int, int] = (0, 0)
    queries: Tuple[str, ...] = ()


QUERY_TABLES = (
    QueryTable(
        "II", "labelled", "brk", (D, DS, DP),
        paper={
            "Ds": {q: ds for q, (ds, _) in _TABLE2_WT42.items()},
            "Dp": {q: dp for q, (_, dp) in _TABLE2_WT42.items()},
        },
        paper_memory={"Ds": 1.0, "Dp": 1.12},
        labels=(4, 2),
    ),
    QueryTable(
        "III", "social", "brk", (D, D_VPT),
        paper={"D+VPt": {"MR1": 2.6, "MR2": 1.8, "MR3": 6.0}},
        paper_memory={"D+VPt": 1.1},
    ),
    QueryTable(
        "IV", "financial", "brk", (D, D_VPC, D_VPC_EPC),
        paper={
            "D+VPc": {"MF1": 8.85, "MF2": 1.31, "MF3": 5.82, "MF4": 1.62, "MF5": None},
            "D+VPc+EPc": {"MF1": None, "MF2": None, "MF3": 18.0, "MF4": 6.14, "MF5": 11.4},
        },
        paper_memory={"D+VPc": 1.16, "D+VPc+EPc": 2.22},
    ),
    QueryTable(
        "V-lj", "labelled", "lj", (D, DP, NEO4J_LIKE),
        paper=_TABLE5_WT42, paper_memory={},
        labels=(12, 2), queries=_TABLE5_QUERIES,
    ),
    QueryTable(
        "V-brk", "labelled", "brk", (D, DP, NEO4J_LIKE),
        paper=_TABLE5_WT42, paper_memory={},
        labels=(4, 2), queries=_TABLE5_QUERIES,
    ),
)


def _side(ratio: float) -> int:
    return 1 if ratio > PAR else -1 if ratio < 1 / PAR else 0


def speedup_verdict(ratio: float, paper: Optional[float]) -> str:
    if paper is None:
        return "n/a"
    return "match" if _side(ratio) == _side(paper) else "miss"


def memory_verdict(ratio: float, paper: Optional[float]) -> str:
    if paper is None:
        return "n/a"
    return "match" if ratio <= paper * PAR else "miss"


# ----------------------------------------------------------------------
# Tables II–V
# ----------------------------------------------------------------------
def _workload(table: QueryTable, scale: float):
    if table.workload == "labelled":
        graph = labelled_dataset(table.dataset, *table.labels, scale=scale)
        return graph, labelled_subgraph.build_workload(*table.labels, names=table.queries)
    if table.workload == "social":
        graph = social_dataset(table.dataset, scale=scale)
        limit = int(graph.num_vertices * MR3_LIMIT_FRACTION)
        return graph, magicrecs.build_workload(graph, SELECTIVITY, mr3_a1_limit=limit)
    graph = financial_dataset(table.dataset, scale=scale)
    return graph, fraud.build_workload(graph, SELECTIVITY)


def _timed(db: Database, plan):
    """Median milliseconds of ``REPETITIONS`` count-path runs, and one result."""
    seconds = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        result = db.run(plan, factorized=plan.supports_factorized_count)
        seconds.append(time.perf_counter() - started)
    return 1000 * statistics.median(seconds), result


def measure_queries(table: QueryTable, scale: float) -> Dict[str, List[Dict]]:
    graph, queries = _workload(table, scale)
    rows: List[Dict] = []
    configs: List[Dict] = []
    base: Dict[str, float] = {}
    for config in table.configs:
        db, indexed_edges, setup_s = config.build(graph)
        memory = db.memory_report().total
        base.setdefault("memory", memory)
        paper = table.paper.get(config.name, {})
        for name, query in queries.items():
            ms, result = _timed(db, db.plan(query))
            ratio = base.setdefault(name, ms) / ms
            rows.append({
                "config": config.name,
                "query": name,
                "count": result.count,
                "list_entries_fetched": result.stats.list_entries_fetched,
                "ms": ms,
                "ratio_over_d": ratio,
                "paper_ratio": paper.get(name) if config is not D else 1.0,
                "verdict": "baseline" if config is D else speedup_verdict(ratio, paper.get(name)),
            })
        ratio = memory / base["memory"]
        configs.append({
            "config": config.name,
            "memory_bytes": memory,
            "memory_ratio_over_d": ratio,
            "paper_memory_ratio": 1.0 if config is D else table.paper_memory.get(config.name),
            "verdict": "baseline" if config is D
            else memory_verdict(ratio, table.paper_memory.get(config.name)),
            "indexed_edges": indexed_edges,
            "setup_s": setup_s,
        })
    return {"dataset": table.dataset, "rows": rows, "configs": configs}


# ----------------------------------------------------------------------
# §V-F — insert rates under five maintenance configurations
# ----------------------------------------------------------------------
#: Paper insert rates (edges/s) on LJ_{2,4} and Brk_{2,2}.
PAPER_RATES = {
    "lj": {"Ds": 1_203_000, "Dp": 1_024_000, "Dps": 1_081_000, "Dps+VPt": 706_000, "Dps+EPt": 41_000},
    "brk": {"Ds": 2_108_000, "Dp": 1_892_000, "Dps": 1_832_000, "Dps+VPt": 1_691_000, "Dps+EPt": 110_000},
}
#: Rising maintenance work: a flat primary, label partitions unsorted, then
#: sorted (D), plus a time-sorted VPt, plus a time-window EPt.
MAINTENANCE_CONFIGS = (
    Config("Ds", IndexConfig.flat()),
    Config("Dp", UNSORTED),
    Config("Dps"),
    Config("Dps+VPt", secondary=(_vpt,)),
    Config("Dps+EPt", secondary=(_vpt, _ept)),
)
#: Edges inserted one at a time per configuration.
INSERT_BUDGET = 400


def _split_social(dataset: str, scale: float):
    """A 50 % base graph and up to ``INSERT_BUDGET`` edges of the rest."""
    spec = DATASETS[dataset]
    vertices, edges = int(spec.num_vertices * scale), int(spec.num_edges * scale)
    full = generate_social_graph(
        SocialGraphSpec(num_vertices=vertices, num_edges=edges, seed=spec.seed + 77)
    )
    half = full.num_edges // 2
    base = generate_social_graph(
        SocialGraphSpec(num_vertices=vertices, num_edges=half, seed=spec.seed + 77)
    )
    deltas = [
        (int(full.edge_src[half + i]), int(full.edge_dst[half + i]), "Follows",
         {"time": int(full.edge_props.raw_value(half + i, "time"))})
        for i in range(min(full.num_edges - half, INSERT_BUDGET))
    ]
    np.random.default_rng(spec.seed).shuffle(deltas)
    return base, deltas


def measure_maintenance(dataset: str, scale: float) -> Dict[str, object]:
    base, deltas = _split_social(dataset, scale)
    paper = PAPER_RATES[dataset]
    rows = []
    for config in MAINTENANCE_CONFIGS:
        db, _, _ = config.build(base)
        maintainer = db.maintainer(merge_threshold=len(deltas) * 8)
        started = time.perf_counter()
        for src, dst, label, props in deltas:
            maintainer.insert_edge(src, dst, label, **props)
        maintainer.flush()
        rate = len(deltas) / (time.perf_counter() - started)
        ratio = rate / (rows[0]["edges_per_s"] if rows else rate)
        paper_ratio = paper[config.name] / paper["Ds"]
        rows.append({
            "config": config.name,
            "inserted_edges": maintainer.stats.inserted_edges,
            "edges_per_s": rate,
            "ratio_over_ds": ratio,
            "paper_edges_per_s": paper[config.name],
            "paper_ratio": paper_ratio,
            "verdict": "baseline" if not rows else speedup_verdict(ratio, paper_ratio),
        })
    return {"dataset": dataset, "rows": rows}


# ----------------------------------------------------------------------
# §III-B3 — offset lists against ID lists, and against bitmaps
# ----------------------------------------------------------------------
#: A naive secondary index stores an 8-byte edge ID and a 4-byte nbr ID.
ID_LIST_BYTES_PER_EDGE = EDGE_ID_BYTES + VERTEX_ID_BYTES
#: View selectivities (share of edges kept) of the bitmap sweep.
BITMAP_SELECTIVITIES = (0.8, 0.4, 0.2, 0.1, 0.05, 0.01)


def measure_offsets(scale: float) -> Dict[str, object]:
    """Bytes per indexed edge of VPt and VPc against the ID-list design."""
    rows = []
    for name, graph, build, paper_overhead in (
        ("VPt (forward)", social_dataset("wt", scale=scale), _vpt, 1.08),
        ("VPc (both directions)", financial_dataset("wt", scale=scale), _vpc, 1.16),
    ):
        db = Database(graph, parallelism=1)
        primary_bytes = db.memory_report().total
        edges = build(db)
        offset_bytes = db.memory_report().total - primary_bytes
        overhead = (primary_bytes + offset_bytes) / primary_bytes
        rows.append({
            "index": name,
            "indexed_edges": edges,
            "offset_bytes": offset_bytes,
            "offset_bytes_per_edge": offset_bytes / max(edges, 1),
            "id_list_bytes_per_edge": ID_LIST_BYTES_PER_EDGE,
            "overhead_offsets": overhead,
            "overhead_id_lists": 1 + edges * ID_LIST_BYTES_PER_EDGE / primary_bytes,
            "paper_overhead": paper_overhead,
            "verdict": memory_verdict(overhead, paper_overhead),
        })
    return {"dataset": "wt", "rows": rows}


def measure_bitmap(scale: float) -> Dict[str, object]:
    """Offset-list and bitmap payloads as the view's selectivity falls."""
    graph = financial_dataset("wt", scale=scale)
    primary = PrimaryIndex(graph)
    rows = []
    for selectivity in BITMAP_SELECTIVITIES:
        # Amounts are uniform in [1, 1000]: amt <= 1000 * selectivity keeps
        # about the requested share of edges.
        threshold = int(1000 * selectivity)
        view = OneHopView(
            f"amt-below-{threshold}",
            predicate=Predicate.of(cmp(prop("eadj", "amt"), "<=", threshold)),
        )
        offsets = VertexPartitionedIndex(
            graph, view, Direction.FORWARD, IndexConfig.default(), primary.forward
        )
        bitmap = BitmapSecondaryIndex(graph, view, Direction.FORWARD, primary.forward)
        breakdown = offsets.memory_breakdown()
        rows.append({
            "selectivity": selectivity,
            "indexed_edges": offsets.num_indexed_edges,
            # The list payloads compared; a bitmap cannot re-partition, so
            # the levels an offset-list index may add are counted apart.
            "offset_bytes": breakdown.offset_list_bytes,
            "offset_level_bytes": breakdown.partition_level_bytes,
            "bitmap_bytes": bitmap.nbytes(),
            "offset_entries_per_scan": offsets.num_indexed_edges,
            "bitmap_bit_tests_per_scan": sum(
                bitmap.access_cost(v) for v in range(graph.num_vertices)
            ),
        })
    return {"dataset": "wt", "rows": rows}


# ----------------------------------------------------------------------
# one loop over every table
# ----------------------------------------------------------------------
def measure(scale: float) -> Dict[str, Dict[str, object]]:
    tables: Dict[str, Dict[str, object]] = {"I": {"rows": table1_rows(scale)}}
    for table in QUERY_TABLES:
        tables[table.name] = measure_queries(table, scale)
    for dataset in PAPER_RATES:
        tables[f"V-F-{dataset}"] = measure_maintenance(dataset, scale)
    tables["III-B3-offsets"] = measure_offsets(scale)
    tables["III-B3-bitmap"] = measure_bitmap(scale)
    return tables


PROTOCOL = (
    "one in-process run per entry; query rows: median ms of REPETITIONS runs "
    "of run(plan, factorized=plan.supports_factorized_count), ratio over D, "
    "the paper's ratio and a verdict (match: both ratios on the same side of "
    "par within PAR; miss otherwise; n/a: no paper figure); entries are "
    "append-only, each stamped with its own scale and environment"
)


def main(scale: float = BENCH_SCALE, out: str = OUT) -> Dict[str, Dict[str, object]]:
    started = time.perf_counter()
    tables = measure(scale)
    stamp = {**environment_stamp(), "wall_s": time.perf_counter() - started}
    document = {}
    if os.path.exists(out):
        with open(out) as handle:
            document = json.load(handle)
    document["protocol"] = PROTOCOL
    for name, table in tables.items():
        entry = {"scale": scale, "repetitions": REPETITIONS, **table, "environment": stamp}
        document.setdefault("tables", {}).setdefault(name, []).append(entry)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    for name, table in tables.items():
        for row in table["rows"] + table.get("configs", []):
            cells = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in row.items())
            print(f"{name:<15} {cells}")
    return tables


if __name__ == "__main__":
    main()
