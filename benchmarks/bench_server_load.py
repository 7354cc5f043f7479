"""Closed-loop concurrent-client load benchmark for the query server.

``CLIENT_THREADS`` clients hammer one :class:`repro.server.DatabaseServer`
with a Zipf-weighted mix of pre-planned queries (a hot 1-hop count, a
mid-weight 2-hop path and a rare triangle), each client running a closed
loop: submit, wait for the result, verify it against the serial oracle,
submit the next.  Two sides are measured over the *same* deterministic pick
sequence:

* ``rowwise_*``   — the seed's service shape: every client calls
  ``Database.count`` directly, so each query plans its own executor and
  (above one worker) its own short-lived pool, and nothing bounds how many
  run at once (``CLIENT_THREADS × PARALLELISM`` worker threads in flight),
* ``vectorized_*`` — the server: ``SERVER_SLOTS`` admission slots feeding
  persistent pools leased from the supervisor, policy ``block`` so every
  query is eventually admitted (the measured phase sheds nothing).

The served phase submits **query graphs**, not pre-built plans: the PR 10
plan cache makes that the cheap path (each pattern plans once per store
generation; every later submission is a fingerprint hit returning the same
pinned plan object, which the persistent pools' payload registry then
reuses without re-pickling).  The row records the resulting
``plan_cache_hits`` / ``plan_cache_misses`` and *asserts* hits > 0 on the
hot Zipf mix — a cold cache on every submission would mean fingerprinting
broke.  A third phase replays the same pick sequences against a
``plan_cache_capacity=0`` database (``nocache_*`` keys) so the report
shows what per-submission re-planning costs end-to-end, and the planning
path itself is timed off the closed loop (``planning_fresh_*`` vs
``planning_hit_*``): the cache-hit planning p50 must be *below* the
fresh-planning p50, and the run fails if it is not.

``speedup`` is direct/server wall clock.  It has no floor: the ratio mixes
pool amortization (a win) with admission queueing (a deliberate cost) and
is informational — correctness is what the benchmark enforces.  Every result, on both sides, must equal the serial
oracle's count, and the server's counters must reconcile
(``submitted == admitted + rejected + shed``; the measured phase must shed
nothing under ``block``).

A separate *overload* phase then offers ``OVERLOAD_MULTIPLIER ×`` the
server's total capacity (slots + queue depth) through the ``reject``
policy and asserts the contract under saturation: excess queries are
rejected with the typed :class:`~repro.errors.ServerOverloadedError`, a
sampler thread never observes more than ``max_concurrent`` queries
running, every admitted query still returns the oracle count, and the
counters reconcile after drain.

Reported per side: wall seconds, sustained QPS, p50/p99 latency; plus the
overload phase's offered/admitted/rejected split and the supervisor's
pool-reuse counters.

Usage::

    PYTHONPATH=src python benchmarks/bench_server_load.py [--output PATH]

Writes ``BENCH_server_load.json`` to the repository root by default.  The
committed file is frozen history: nothing gates on it, and the benchmark of
record is ``benchmarks/suite/`` (its ``server_zipf`` workload serves a Zipf
mix through the same server).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Dict, List, Sequence

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from common import BENCH_SCALE, print_header  # noqa: E402

from repro import Database  # noqa: E402
from repro.errors import ServerOverloadedError  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    SocialGraphSpec,
    generate_social_graph,
)
from repro.query.pattern import QueryGraph  # noqa: E402
from repro.server import DatabaseServer, ServerConfig  # noqa: E402

#: Graph size at scale 1.0 — small enough that per-query work is dominated
#: by the service path under test (admission, leasing, dispatch), not the
#: scan itself.
NUM_VERTICES = int(4_000 * BENCH_SCALE)
NUM_EDGES = int(16_000 * BENCH_SCALE)

#: Closed-loop clients hammering the server concurrently.
CLIENT_THREADS = 8
#: Queries each client issues in the measured phase.
QUERIES_PER_CLIENT = max(int(12 * BENCH_SCALE), 4)
#: Admission slots (concurrent queries) of the measured server.
SERVER_SLOTS = 2
#: Morsel workers per admitted query.
PARALLELISM = 2
#: Persistent-pool backend of the measured server.
SERVER_BACKEND = "thread"
#: Zipf exponent of the query mix (rank-1 query dominates).
ZIPF_EXPONENT = 1.2
#: Offered load of the overload phase, as a multiple of the server's total
#: capacity (slots + queue depth) — the acceptance criterion's 4×.
OVERLOAD_MULTIPLIER = 4
#: Seed for the deterministic per-client pick sequences.
SEED = 0x5EED

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_server_load.json",
)


def _build_db() -> Database:
    graph = generate_social_graph(
        SocialGraphSpec(
            num_vertices=NUM_VERTICES,
            num_edges=NUM_EDGES,
            skew=0.6,
            time_range=1_000_000,
            seed=13,
        )
    )
    return Database(graph)


def _one_hop() -> QueryGraph:
    q = QueryGraph("hot-one-hop")
    q.add_vertex("a", label="User")
    q.add_vertex("b", label="User")
    q.add_edge("a", "b", label="Follows", name="e1")
    return q


def _two_hop() -> QueryGraph:
    q = QueryGraph("mid-two-hop")
    q.add_vertex("a", label="User")
    q.add_vertex("b", label="User")
    q.add_vertex("c", label="User")
    q.add_edge("a", "b", label="Follows", name="e1")
    q.add_edge("b", "c", label="Follows", name="e2")
    return q


def _triangle() -> QueryGraph:
    q = QueryGraph("rare-triangle")
    q.add_vertex("a", label="User")
    q.add_vertex("b", label="User")
    q.add_vertex("c", label="User")
    q.add_edge("a", "b", label="Follows", name="e1")
    q.add_edge("b", "c", label="Follows", name="e2")
    q.add_edge("a", "c", label="Follows", name="e3")
    return q


def _zipf_weights(ranks: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, ranks + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _pick_sequences(ranks: int) -> List[np.ndarray]:
    """One deterministic Zipf pick sequence per client (same on both sides)."""
    weights = _zipf_weights(ranks, ZIPF_EXPONENT)
    return [
        np.random.RandomState(SEED + client).choice(
            ranks, size=QUERIES_PER_CLIENT, p=weights
        )
        for client in range(CLIENT_THREADS)
    ]


def _closed_loop(run_one, picks: Sequence[np.ndarray]):
    """Run every client's pick sequence concurrently; return (seconds, lat).

    ``run_one(rank)`` executes one query and returns its count; latencies
    are per-query wall seconds across all clients.
    """
    latencies: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    start = threading.Barrier(len(picks) + 1)

    def client(sequence: np.ndarray) -> None:
        mine: List[float] = []
        try:
            start.wait()
            for rank in sequence:
                begun = time.perf_counter()
                run_one(int(rank))
                mine.append(time.perf_counter() - begun)
        except BaseException as exc:  # pragma: no cover - surfaced below
            with lock:
                errors.append(exc)
            return
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(sequence,), daemon=True)
        for sequence in picks
    ]
    for thread in threads:
        thread.start()
    start.wait()
    begun = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begun
    if errors:
        raise RuntimeError(f"server_load: client failed: {errors[0]!r}") from errors[0]
    return elapsed, latencies


def _percentiles_ms(latencies: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(latencies, dtype=np.float64) * 1000.0
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def _overload_phase(db: Database, plan, oracle: int) -> Dict:
    """Offer 4× the server's capacity under ``reject``; assert the contract."""
    config = ServerConfig(
        max_concurrent=1,
        max_queue_depth=2,
        policy="reject",
        parallelism=PARALLELISM,
        backend=SERVER_BACKEND,
    )
    offered = OVERLOAD_MULTIPLIER * (config.max_concurrent + config.max_queue_depth)
    completed = rejected = 0
    wrong: List[str] = []
    max_running = [0]
    lock = threading.Lock()
    server = DatabaseServer(db, config)
    stop_sampling = threading.Event()

    def sampler() -> None:
        while not stop_sampling.is_set():
            observed = server.running()
            with lock:
                max_running[0] = max(max_running[0], observed)
            time.sleep(0.001)

    watcher = threading.Thread(target=sampler, daemon=True)
    watcher.start()
    try:
        start = threading.Barrier(offered)

        def client() -> None:
            nonlocal completed, rejected
            start.wait()
            try:
                count = server.count(plan)
            except ServerOverloadedError as exc:
                assert exc.policy == "reject"
                with lock:
                    rejected += 1
                return
            if count != oracle:
                with lock:
                    wrong.append(f"{count} != {oracle}")
                return
            with lock:
                completed += 1

        threads = [
            threading.Thread(target=client, daemon=True) for _ in range(offered)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.drain()
        stop_sampling.set()
        watcher.join()
    stats = server.stats.snapshot()
    if wrong:
        raise RuntimeError(
            f"server_load: admitted query diverged from the oracle under "
            f"overload: {wrong[0]}"
        )
    if stats["submitted"] != stats["admitted"] + stats["rejected"] + stats["shed"]:
        raise RuntimeError(f"server_load: overload counters do not reconcile: {stats}")
    if stats["submitted"] != offered:
        raise RuntimeError(
            f"server_load: offered {offered} but server saw {stats['submitted']}"
        )
    if rejected == 0:
        raise RuntimeError(
            "server_load: 4x overload produced zero rejections — the "
            "admission queue is not bounding anything"
        )
    if max_running[0] > config.max_concurrent:
        raise RuntimeError(
            f"server_load: observed {max_running[0]} concurrent queries "
            f"with max_concurrent={config.max_concurrent}"
        )
    return {
        "offered": offered,
        "completed": completed,
        "rejected_observed": rejected,
        "max_observed_running": max_running[0],
        "stats": stats,
    }


def server_load_scenario_row() -> Dict:
    """The ``server_load`` row: the two sides under the ``rowwise_*`` /
    ``vectorized_*`` keys of ``BENCH_server_load.json``, plus the latency,
    plan-cache, pool and overload fields."""
    db = _build_db()
    queries = [_one_hop(), _two_hop(), _triangle()]
    # Planning each pattern once here both produces the oracle plans and
    # warms the plan cache: the served phase below submits the QueryGraphs
    # and every submission resolves to these exact plan objects (which is
    # also what keys the pools' payload reuse).
    plans = [db.plan(q) for q in queries]
    oracles = [db.count(plan, parallelism=1) for plan in plans]
    picks = _pick_sequences(len(plans))
    total_queries = sum(len(sequence) for sequence in picks)
    total_edges = sum(
        oracles[int(rank)] for sequence in picks for rank in sequence
    )

    def run_direct(rank: int) -> None:
        count = db.count(plans[rank], parallelism=PARALLELISM, backend=SERVER_BACKEND)
        if count != oracles[rank]:
            raise RuntimeError(
                f"server_load: direct count diverged ({count} != {oracles[rank]})"
            )

    direct_seconds, direct_latencies = _closed_loop(run_direct, picks)

    server = DatabaseServer(
        db,
        ServerConfig(
            max_concurrent=SERVER_SLOTS,
            max_queue_depth=CLIENT_THREADS,
            policy="block",
            parallelism=PARALLELISM,
            backend=SERVER_BACKEND,
        ),
    )
    try:

        def run_served(rank: int) -> None:
            count = server.count(queries[rank])
            if count != oracles[rank]:
                raise RuntimeError(
                    f"server_load: served count diverged "
                    f"({count} != {oracles[rank]})"
                )

        server_seconds, server_latencies = _closed_loop(run_served, picks)
    finally:
        server.drain()
    stats = server.stats.snapshot()
    if stats["submitted"] != stats["admitted"] + stats["rejected"] + stats["shed"]:
        raise RuntimeError(f"server_load: counters do not reconcile: {stats}")
    if stats["completed"] != total_queries or stats["shed"] or stats["rejected"]:
        raise RuntimeError(
            f"server_load: the block-policy measured phase must complete "
            f"every query ({total_queries} offered): {stats}"
        )
    if stats["plan_cache_hits"] + stats["plan_cache_misses"] != total_queries:
        raise RuntimeError(
            f"server_load: plan-cache counters do not reconcile with the "
            f"{total_queries} QueryGraph submissions: {stats}"
        )
    if stats["plan_cache_hits"] == 0:
        raise RuntimeError(
            "server_load: zero plan-cache hits on the hot Zipf mix — "
            "fingerprint canonicalization or the cache key is broken"
        )
    if db.plan_cache.stats.misses > len(queries):
        raise RuntimeError(
            f"server_load: {db.plan_cache.stats.misses} plannings for "
            f"{len(queries)} patterns on one store generation"
        )
    supervisor = server.supervisor

    # No-cache comparison: the same pick sequences against a database whose
    # plan cache is disabled, so every submission re-plans.
    nocache_db = Database(db.graph, plan_cache_capacity=0)
    nocache_server = DatabaseServer(
        nocache_db,
        ServerConfig(
            max_concurrent=SERVER_SLOTS,
            max_queue_depth=CLIENT_THREADS,
            policy="block",
            parallelism=PARALLELISM,
            backend=SERVER_BACKEND,
        ),
    )
    try:

        def run_nocache(rank: int) -> None:
            count = nocache_server.count(queries[rank])
            if count != oracles[rank]:
                raise RuntimeError(
                    f"server_load: no-cache count diverged "
                    f"({count} != {oracles[rank]})"
                )

        nocache_seconds, nocache_latencies = _closed_loop(run_nocache, picks)
    finally:
        nocache_server.drain()
    nocache_stats = nocache_server.stats.snapshot()
    if nocache_stats["plan_cache_hits"] != 0:
        raise RuntimeError(
            f"server_load: capacity-0 cache reported hits: {nocache_stats}"
        )

    # Planning-path latencies, measured off the closed loop: at ~tens of
    # milliseconds per executed query the end-to-end phase percentiles are
    # noise-bound, so the cache's direct effect is reported (and asserted)
    # where it acts — the synchronous planning step of every submission.
    fresh_samples: List[float] = []
    hit_samples: List[float] = []
    for build in (_one_hop, _two_hop, _triangle):
        for _ in range(20):
            db.plan_cache.clear()
            begun = time.perf_counter()
            db.plan(build())
            fresh_samples.append(time.perf_counter() - begun)
        db.plan(build())
        for _ in range(20):
            begun = time.perf_counter()
            db.plan(build())
            hit_samples.append(time.perf_counter() - begun)
    planning_fresh = _percentiles_ms(fresh_samples)
    planning_hit = _percentiles_ms(hit_samples)
    if planning_hit["p50_ms"] >= planning_fresh["p50_ms"]:
        raise RuntimeError(
            f"server_load: cache-hit planning p50 "
            f"({planning_hit['p50_ms']:.3f}ms) is not below fresh planning "
            f"p50 ({planning_fresh['p50_ms']:.3f}ms)"
        )
    row = {
        "extended_edges": int(total_edges),
        "rowwise_seconds": direct_seconds,
        "vectorized_seconds": server_seconds,
        "rowwise_eps": total_edges / direct_seconds if direct_seconds else 0.0,
        "vectorized_eps": total_edges / server_seconds if server_seconds else 0.0,
        "speedup": (
            direct_seconds / server_seconds if server_seconds else float("inf")
        ),
        "queries": total_queries,
        "clients": CLIENT_THREADS,
        "queries_per_client": QUERIES_PER_CLIENT,
        "server_slots": SERVER_SLOTS,
        "parallelism": PARALLELISM,
        "backend": SERVER_BACKEND,
        "zipf_exponent": ZIPF_EXPONENT,
        "direct_qps": total_queries / direct_seconds if direct_seconds else 0.0,
        "server_qps": total_queries / server_seconds if server_seconds else 0.0,
        "server_counters": stats,
        "plan_cache_hits": stats["plan_cache_hits"],
        "plan_cache_misses": stats["plan_cache_misses"],
        # Which way the engine went: on the slot thread (plans under the
        # plan-cost gate) or through a leased pool.
        "inline": stats["inline"],
        "pooled": stats["pooled"],
        "nocache_seconds": nocache_seconds,
        "nocache_qps": (
            total_queries / nocache_seconds if nocache_seconds else 0.0
        ),
        "planning_fresh_p50_ms": planning_fresh["p50_ms"],
        "planning_fresh_p99_ms": planning_fresh["p99_ms"],
        "planning_hit_p50_ms": planning_hit["p50_ms"],
        "planning_hit_p99_ms": planning_hit["p99_ms"],
        "planning_p50_speedup": (
            planning_fresh["p50_ms"] / planning_hit["p50_ms"]
            if planning_hit["p50_ms"]
            else float("inf")
        ),
        "pools_created": supervisor.pools_created,
        "pools_reused": supervisor.pools_reused,
        "pools_recycled": supervisor.pools_recycled,
        "degraded_leases": supervisor.degraded_leases,
    }
    for key, value in _percentiles_ms(server_latencies).items():
        row[key] = value
    for key, value in _percentiles_ms(direct_latencies).items():
        row[f"direct_{key}"] = value
    for key, value in _percentiles_ms(nocache_latencies).items():
        row[f"nocache_{key}"] = value
    row["overload"] = _overload_phase(db, plans[0], oracles[0])
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="path of the JSON results file (default: repo root)",
    )
    args = parser.parse_args()

    print_header(
        f"Server load: {CLIENT_THREADS} closed-loop clients vs "
        f"{SERVER_SLOTS}-slot admission ({NUM_EDGES:,} edges)"
    )
    row = server_load_scenario_row()
    print(
        f"queries={row['queries']}  direct {row['direct_qps']:.1f} qps "
        f"(p50 {row['direct_p50_ms']:.1f}ms / p99 {row['direct_p99_ms']:.1f}ms)  "
        f"server {row['server_qps']:.1f} qps "
        f"(p50 {row['p50_ms']:.1f}ms / p99 {row['p99_ms']:.1f}ms)"
    )
    print(
        f"plan cache: {row['plan_cache_hits']} hits / "
        f"{row['plan_cache_misses']} misses; no-cache replay "
        f"{row['nocache_qps']:.1f} qps (p50 {row['nocache_p50_ms']:.1f}ms); "
        f"planning p50 {row['planning_fresh_p50_ms']:.3f}ms fresh -> "
        f"{row['planning_hit_p50_ms']:.3f}ms hit "
        f"({row['planning_p50_speedup']:.1f}x)"
    )
    overload = row["overload"]
    print(
        f"overload: offered={overload['offered']} "
        f"completed={overload['completed']} "
        f"rejected={overload['rejected_observed']} "
        f"max_running={overload['max_observed_running']}"
    )
    report = {
        "config": {
            "num_vertices": NUM_VERTICES,
            "num_edges": NUM_EDGES,
            "bench_scale": BENCH_SCALE,
            "clients": CLIENT_THREADS,
            "queries_per_client": QUERIES_PER_CLIENT,
            "server_slots": SERVER_SLOTS,
            "parallelism": PARALLELISM,
            "backend": SERVER_BACKEND,
            "zipf_exponent": ZIPF_EXPONENT,
            "overload_multiplier": OVERLOAD_MULTIPLIER,
            "seed": SEED,
        },
        "scenarios": {"server_load": row},
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nresults written to {args.output}")


if __name__ == "__main__":
    main()
