"""Tuning the primary A+ index for a labelled subgraph workload (Table II).

Generates a ``G_{4,2}``-style labelled graph (4 vertex labels, 2 edge labels)
and evaluates a few labelled subgraph queries under the three primary-index
configurations of the paper:

* ``D``  — partition by edge label, sort by neighbour ID,
* ``Ds`` — additionally sort by neighbour label (no memory overhead), and
* ``Dp`` — additionally *partition* by neighbour label (small overhead).

It also shows the DDL-level interface (``RECONFIGURE PRIMARY INDEXES``) and
how the plans change: under ``Dp`` the neighbour-label predicate disappears
from the plan because the right sub-list is addressed directly.

Run with::

    python examples/index_tuning.py
"""

from __future__ import annotations

import time

from repro import Database, IndexConfig
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.workloads import labelled_subgraph

QUERIES = ("SQ1", "SQ4", "SQ8", "SQ11")
VERTEX_LABELS, EDGE_LABELS = 4, 2


def main() -> None:
    graph = generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=3000,
            num_edges=42000,
            num_vertex_labels=VERTEX_LABELS,
            num_edge_labels=EDGE_LABELS,
            seed=17,
        )
    )
    print(f"generated labelled graph: {graph.describe()}\n")
    queries = labelled_subgraph.build_workload(
        VERTEX_LABELS, EDGE_LABELS, names=QUERIES
    )

    configs = {
        "D": IndexConfig.default(),
        "Ds": IndexConfig.sorted_by_nbr_label(),
        "Dp": IndexConfig.partitioned_by_nbr_label(),
    }
    databases = {}
    for name, config in configs.items():
        started = time.perf_counter()
        databases[name] = Database(graph, primary_config=config)
        build_seconds = time.perf_counter() - started
        megabytes = databases[name].memory_report().total_megabytes()
        print(f"built {name:<3} ({config.describe()}) in {build_seconds:.2f}s, {megabytes:.2f} MB")
    print()

    for query_name, query in queries.items():
        print(f"--- {query_name} ---")
        baseline = None
        for config_name, db in databases.items():
            result = db.run(query)
            speedup = f"  ({baseline / result.seconds:.2f}x vs D)" if baseline else ""
            print(
                f"  {config_name:<3} {result.seconds:7.3f}s  {result.count} matches{speedup}"
            )
            if baseline is None:
                baseline = result.seconds
        print()

    print("plan for SQ4 under D (neighbour labels filtered per edge):")
    print(databases["D"].plan(queries["SQ4"]).describe())
    print()
    print("plan for SQ4 under Dp (neighbour labels addressed as partitions):")
    print(databases["Dp"].plan(queries["SQ4"]).describe())
    print()

    print("the same tuning through the DDL interface:")
    db = Database(graph)
    result = db.execute_ddl(
        "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID"
    )
    print(
        f"  RECONFIGURE PRIMARY INDEXES ... applied in {result.seconds:.2f}s; "
        f"new config: {db.primary_index.config.describe()}"
    )


if __name__ == "__main__":
    main()
