"""Section V-F — index maintenance micro-benchmark.

Loads 50% of a follower graph's edges, then inserts the remaining 50% one at a
time through the :class:`~repro.index.maintenance.IndexMaintainer`, measuring
the sustained insertion rate (edges/second) under five configurations of
increasing maintenance work.  Each scalar ``insert_edge`` is a one-row
``insert_edges`` into the columnar delta buffer: the page-buffer update, the
view predicate of every vertex-partitioned index and the two delta queries
of every edge-partitioned index run per inserted edge, as in the paper's
per-tuple measurement, and the final ``flush`` splices the buffered edges
into every index.  The configurations:

* ``Ds``       — flat primary index (no nested partitioning),
* ``Dp``       — edge-label partitioning, unsorted lists,
* ``Dps``      — edge-label partitioning, neighbour-ID sorting (the default),
* ``Dps+VPt``  — plus a time-sorted secondary vertex-partitioned index,
* ``Dps+EPt``  — plus a time-predicate edge-partitioned index.

Expected shape (paper): rates decrease with configuration complexity; the
edge-partitioned index costs roughly an order of magnitude because every
insertion runs two delta queries over the adjacency of the new edge's
endpoints.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
import pytest

from repro import Database, Direction, EdgeAdjacencyType
from repro.bench.harness import maintenance_configs
from repro.bench.reporting import Table
from repro.graph.generators import SocialGraphSpec, generate_social_graph
from repro.index.config import IndexConfig
from repro.index.views import OneHopView, TwoHopView
from repro.predicates import Predicate, cmp, prop
from repro.storage.partition_keys import PartitionKey
from repro.storage.sort_keys import SortKey
from repro.workloads.datasets import DATASETS

from common import BENCH_SCALE, MAINTENANCE_DATASETS, print_header

#: Paper-reported insertion rates (edges/second) for LJ_{2,4} and Brk_{2,2}.
PAPER_RATES = {
    "lj": {"Ds": 1_203_000, "Dp": 1_024_000, "Dps": 1_081_000, "Dps+VPt": 706_000, "Dps+EPt": 41_000},
    "brk": {"Ds": 2_108_000, "Dp": 1_892_000, "Dps": 1_832_000, "Dps+VPt": 1_691_000, "Dps+EPt": 110_000},
}

#: Number of edges inserted per configuration during the timed phase.
INSERT_BUDGET = 400


def _split_graph(name: str):
    """Build the dataset and split its edges into a 50% base and 50% delta."""
    spec = DATASETS[name]
    graph = generate_social_graph(
        SocialGraphSpec(
            num_vertices=int(spec.num_vertices * BENCH_SCALE),
            num_edges=int(spec.num_edges * BENCH_SCALE),
            seed=spec.seed + 77,
        )
    )
    half = graph.num_edges // 2
    base = generate_social_graph(
        SocialGraphSpec(
            num_vertices=graph.num_vertices,
            num_edges=half,
            seed=spec.seed + 77,
        )
    )
    rng = np.random.default_rng(spec.seed)
    remaining = min(graph.num_edges - half, INSERT_BUDGET)
    deltas = [
        (
            int(graph.edge_src[half + i]),
            int(graph.edge_dst[half + i]),
            "Follows",
            {"time": int(graph.edge_props.raw_value(half + i, "time"))},
        )
        for i in range(remaining)
    ]
    rng.shuffle(deltas)
    return base, deltas


def _configure_database(base, descriptor) -> Database:
    database = Database(base, primary_config=descriptor["primary"])
    if descriptor["vpt"]:
        vpt_config = IndexConfig(
            partition_keys=descriptor["primary"].partition_keys,
            sort_keys=(SortKey.edge_property("time"), SortKey.neighbour_id()),
        )
        database.create_vertex_index(
            OneHopView("VPt"), directions=(Direction.FORWARD,), config=vpt_config, name="VPt"
        )
    if descriptor["ept"]:
        times = base.edge_props.column("time")
        time_range = float(times.max() - times.min()) if len(times) else 1.0
        # eb.time < eadj.time < eb.time + delta, with delta at ~1% of the time
        # range (the paper's 1%-selective EPt predicate).
        delta = max(time_range * 0.01, 1.0)
        view = TwoHopView(
            "EPt",
            EdgeAdjacencyType.DST_FW,
            Predicate.of(
                cmp(prop("eb", "time"), "<", prop("eadj", "time")),
                cmp(prop("eadj", "time"), "<", prop("eb", "time"), offset=delta),
            ),
        )
        database.create_edge_index(view, config=IndexConfig.flat(), name="EPt")
    return database


def run_experiment(dataset: str) -> Dict[str, float]:
    base, deltas = _split_graph(dataset)
    rates = {}
    for config_name, descriptor in maintenance_configs().items():
        database = _configure_database(base, descriptor)
        maintainer = database.maintainer(merge_threshold=len(deltas) * 8)
        started = time.perf_counter()
        for src, dst, label, props in deltas:
            maintainer.insert_edge(src, dst, label, **props)
        maintainer.flush()
        elapsed = time.perf_counter() - started
        rates[config_name] = len(deltas) / elapsed if elapsed else float("inf")
    return rates


def build_table(dataset: str, rates: Dict[str, float]) -> Table:
    table = Table(
        title=f"Section V-F — maintenance rates on the {dataset.upper()} stand-in",
        columns=["config", "measured edges/s", "paper edges/s", "measured rel. to Ds", "paper rel. to Ds"],
    )
    paper = PAPER_RATES[dataset if dataset in PAPER_RATES else "lj"]
    for config_name, rate in rates.items():
        table.add_row(
            config_name,
            int(rate),
            paper.get(config_name),
            f"{rate / rates['Ds']:.2f}x" if rates.get("Ds") else None,
            f"{paper[config_name] / paper['Ds']:.2f}x" if config_name in paper else None,
        )
    table.add_note(
        "absolute rates are Python-interpreter bound; the reproduced shape is "
        "the relative slowdown as maintenance work grows, especially for EPt"
    )
    return table


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def maintenance_setup():
    return _split_graph("brk")


@pytest.mark.parametrize("config_name", ["Dps", "Dps+VPt", "Dps+EPt"])
def test_benchmark_insert_rate(benchmark, maintenance_setup, config_name):
    base, deltas = maintenance_setup
    descriptor = maintenance_configs()[config_name]
    database = _configure_database(base, descriptor)
    maintainer = database.maintainer(merge_threshold=10**9)
    batch = deltas[:50]
    benchmark.extra_info["config"] = config_name

    def insert_batch():
        for src, dst, label, props in batch:
            maintainer.insert_edge(src, dst, label, **props)

    benchmark(insert_batch)
    assert maintainer.stats.inserted_edges >= len(batch)


def main() -> None:
    print_header("Section V-F — index maintenance")
    for dataset in MAINTENANCE_DATASETS:
        rates = run_experiment(dataset)
        print(build_table(dataset, rates).render())
        print()


if __name__ == "__main__":
    main()
