"""MagicRecs-style recommendations on a follower graph (the Table III scenario).

Generates a follower network whose edges carry a ``time`` property and runs
the MagicRecs queries: for a user ``a1``, find the users ``a2..ak`` that
``a1`` started following recently and recommend their common followers.

The example contrasts the system's default configuration ``D`` with ``D+VPt``,
a secondary vertex-partitioned index whose lists are sorted on the edge
``time`` property.  Because the index shares the primary index's partitioning
levels and stores only offset lists, the extra memory is a few percent, while
the recently-followed predicate is answered by binary search.

Run with::

    python examples/recommendations.py
"""

from __future__ import annotations

import time

from repro import Database, Direction
from repro.bench.harness import vpt_view_and_config
from repro.graph.generators import SocialGraphSpec, generate_social_graph
from repro.workloads import magicrecs


def main() -> None:
    graph = generate_social_graph(
        SocialGraphSpec(num_vertices=3000, num_edges=36000, seed=9)
    )
    print(f"generated follower graph: {graph.describe()}")

    queries = magicrecs.build_workload(graph, selectivity=0.05)
    alpha = magicrecs.time_threshold(graph, 0.05)
    print(f"'recently followed' threshold alpha = {alpha} (5% of edges)\n")

    default_db = Database(graph)

    tuned_db = Database(graph)
    view, config = vpt_view_and_config()
    creation = tuned_db.create_vertex_index(
        view, directions=(Direction.FORWARD,), config=config, name="VPt"
    )
    print(
        f"created VPt ({creation.indexed_edges} offsets, shares the primary's "
        f"partitioning levels) in {creation.seconds:.2f}s\n"
    )

    for name, query in queries.items():
        print(f"--- {name} ---")
        for config_name, db in (("D", default_db), ("D+VPt", tuned_db)):
            started = time.perf_counter()
            result = db.run(query, factorized=True)
            elapsed = time.perf_counter() - started
            print(
                f"  {config_name:<7} {elapsed:7.3f}s  {result.count} recommendations, "
                f"{result.stats.predicate_evaluations} predicate evaluations"
            )
        print()

    print("plan for MR1 under D+VPt (time predicate answered by binary search):")
    print(tuned_db.plan(queries["MR1"]).describe())
    print()

    base_mb = default_db.memory_report().total_megabytes()
    tuned_mb = tuned_db.memory_report().total_megabytes()
    print(
        f"index memory: D = {base_mb:.2f} MB, D+VPt = {tuned_mb:.2f} MB "
        f"({tuned_mb / base_mb:.2f}x)"
    )


if __name__ == "__main__":
    main()
