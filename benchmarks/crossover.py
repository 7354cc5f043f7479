"""Where does a worker pool start to pay?  The table behind PARALLEL_MIN_ICOST.

For social graphs of 16 k / 64 k / 256 k vertices (4 edges per vertex, skew
0.6) and the three ``server_zipf`` query shapes, times ``count()`` through a
one-slot ``DatabaseServer`` inline on the slot thread, on a thread pool ×2 and
on a process pool ×2 (the gate is pinned to 0 so the pools really dispatch),
and writes each plan's i-cost next to the median of ``--runs`` into
``BENCH_parallel_crossover.json``, environment-stamped::

    python3 benchmarks/crossover.py [--runs 7] [--sizes 16000 64000 256000]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from bench_server_load import _one_hop, _triangle, _two_hop  # noqa: E402
from paired import environment_stamp  # noqa: E402
from repro import Database  # noqa: E402
from repro.graph.generators import SocialGraphSpec, generate_social_graph  # noqa: E402
from repro.query import executor  # noqa: E402
from repro.server import DatabaseServer, ServerConfig  # noqa: E402

QUERIES = {"one_hop": _one_hop, "two_hop": _two_hop, "triangle": _triangle}
CONFIGS = {"inline": ("thread", 1), "thread_x2": ("thread", 2), "process_x2": ("process", 2)}


def median_ms(server: DatabaseServer, query, runs: int) -> float:
    samples = []
    for _ in range(runs + 1):  # the first run warms plan cache, pool and payload
        started = time.perf_counter()
        server.count(query)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--sizes", type=int, nargs="+", default=[16_000, 64_000, 256_000])
    args = parser.parse_args()
    threshold = executor.PARALLEL_MIN_ICOST
    executor.PARALLEL_MIN_ICOST = 0  # measure the pools, not the gate
    rows = []
    for vertices in args.sizes:
        spec = SocialGraphSpec(num_vertices=vertices, num_edges=4 * vertices, skew=0.6, seed=13)
        db = Database(generate_social_graph(spec))
        # count() is count-only: inline and pooled carry the same rows.
        in_flight = executor.rows_in_flight(
            db.batch_size, executor.DEFAULT_COALESCE, count_only=True
        )
        for name, build in QUERIES.items():
            query = build()
            row = {"vertices": vertices, "query": name, "icost": db.plan(query).estimated_cost}
            for label, (backend, workers) in CONFIGS.items():
                config = ServerConfig(max_concurrent=1, backend=backend, parallelism=workers)
                with DatabaseServer(db, config) as server:
                    row[f"{label}_ms"] = round(median_ms(server, query, args.runs), 2)
            row["gated_inline"] = 0 < row["icost"] < threshold
            rows.append(row)
            print(json.dumps(row), flush=True)
    document = {
        "environment": environment_stamp("HEAD"),
        "protocol": (
            f"one-slot DatabaseServer.count(), {in_flight} rows in flight, "
            f"median of {args.runs} after one warm-up, ms"
        ),
        "parallel_min_icost": threshold,
        "rows": rows,
    }
    with open(os.path.join(ROOT, "BENCH_parallel_crossover.json"), "w") as handle:
        handle.write(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
