"""Concurrent-client soak for the query server: run hot, exit clean.

A time-boxed smoke that exercises the server's whole steady-state surface —
admission (policy ``reject``, so overload actually rejects), per-query
deadlines (a slice of submissions carries a tight timeout), persistent-pool
leasing, and graceful drain — under more client threads than admission
slots, then asserts the three properties a long-lived service must not
lose:

* **no leaked processes** — after every phase drains,
  ``multiprocessing.active_children()`` is empty (persistent pools are
  closed, not abandoned),
* **no deadlocks** — a watchdog hard-exits the interpreter (``os._exit(2)``)
  if the soak outlives its global budget, so a wedged queue fails the job
  instead of hanging it,
* **counter consistency** — after drain,
  ``submitted == admitted + rejected + shed`` and
  ``admitted == completed + failed``, and every successful query returned
  the serial oracle's count,
* **both execution paths in play** — the soak graph is sized so the
  one-hop and two-hop classes sit below the engine's plan-cost gate (they
  run inline on the slot threads) and the triangle sits above it (i-cost
  ≈ 2.3 M, ≈ 0.4 s: it leases a pool); a phase fails unless
  ``pools_created + pools_reused > 0`` and ``inline > 0`` — otherwise it
  would soak an idle supervisor,
* **bounded plan cache** — clients submit query graphs (not pre-built
  plans), so every submission rides the PR 10 plan cache; after the soak
  the cache must hold at most ``capacity`` entries (no unbounded growth)
  and ``plan_cache_hits + plan_cache_misses`` must equal the QueryGraph
  submissions counted in ``submitted``.

One phase runs per backend (``thread`` always; ``process`` where ``fork``
is available), splitting ``--seconds`` between them.  Exits non-zero on
any violation; CI runs it as the ``server-soak`` job.

Usage::

    PYTHONPATH=src python benchmarks/soak_server.py [--seconds 60] [--clients 6]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import threading
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from common import one_hop, print_header, triangle, two_hop  # noqa: E402

from repro import Database  # noqa: E402
from repro.errors import (  # noqa: E402
    QueryCancelledError,
    QueryTimeoutError,
    ServerOverloadedError,
)
from repro.graph.generators import SocialGraphSpec, generate_social_graph  # noqa: E402
from repro.query.backends import fork_available  # noqa: E402
from repro.server import DatabaseServer, ServerConfig  # noqa: E402

#: Grace added to the requested soak length before the watchdog shoots the
#: interpreter: startup, drain, and one slow admitted query per slot.
WATCHDOG_GRACE_SECONDS = 120.0
#: Every Nth submission carries this deadline, exercising queue-deadline
#: shedding and in-flight timeout aborts alongside the happy path.
TIGHT_TIMEOUT_SECONDS = 0.02
TIGHT_TIMEOUT_EVERY = 7
#: Soak graph: large enough that a triangle's i-cost (36 list entries per
#: vertex at 4 edges per vertex) clears PARALLEL_MIN_ICOST.
SOAK_VERTICES = 64_000
SOAK_EDGES = 256_000


def _build_soak_db() -> Database:
    return Database(
        generate_social_graph(
            SocialGraphSpec(
                num_vertices=SOAK_VERTICES, num_edges=SOAK_EDGES, skew=0.6, seed=13
            )
        )
    )


def _soak_phase(
    db: Database,
    backend: str,
    seconds: float,
    clients: int,
) -> Dict:
    queries = [one_hop(), two_hop(), triangle()]
    plans = [db.plan(q) for q in queries]
    oracles = [db.count(plan, parallelism=1) for plan in plans]
    server = DatabaseServer(
        db,
        ServerConfig(
            max_concurrent=2,
            max_queue_depth=3,
            policy="reject",
            parallelism=2,
            backend=backend,
        ),
    )
    wrong: List[str] = []
    outcomes = {"ok": 0, "rejected": 0, "timeout": 0, "cancelled": 0}
    lock = threading.Lock()
    deadline = time.monotonic() + seconds

    def client(index: int) -> None:
        rng = np.random.RandomState(1000 + index)
        issued = 0
        while time.monotonic() < deadline:
            rank = int(rng.randint(len(queries)))
            issued += 1
            timeout = (
                TIGHT_TIMEOUT_SECONDS
                if issued % TIGHT_TIMEOUT_EVERY == 0
                else None
            )
            try:
                # Submit the *query graph*, not the plan: the soak then also
                # exercises the plan cache's steady state (every submission
                # after the first is a fingerprint hit on one generation).
                count = server.count(queries[rank], timeout=timeout)
            except ServerOverloadedError:
                with lock:
                    outcomes["rejected"] += 1
                # Back off like a real client would; an immediate resubmit
                # turns the soak into a pure admission-lock spin test.
                time.sleep(0.002)
                continue
            except QueryTimeoutError:
                with lock:
                    outcomes["timeout"] += 1
                continue
            except QueryCancelledError:
                with lock:
                    outcomes["cancelled"] += 1
                continue
            if count != oracles[rank]:
                with lock:
                    wrong.append(
                        f"backend={backend} rank={rank}: {count} != {oracles[rank]}"
                    )
                return
            with lock:
                outcomes["ok"] += 1

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.drain()

    failures: List[str] = list(wrong)
    leaked = multiprocessing.active_children()
    if leaked:
        failures.append(
            f"backend={backend}: {len(leaked)} leaked child processes "
            f"after drain: {[p.pid for p in leaked]}"
        )
    stats = server.stats.snapshot()
    if stats["submitted"] != stats["admitted"] + stats["rejected"] + stats["shed"]:
        failures.append(
            f"backend={backend}: admission counters do not reconcile: {stats}"
        )
    if stats["admitted"] != stats["completed"] + stats["failed"]:
        failures.append(
            f"backend={backend}: completion counters do not reconcile: {stats}"
        )
    if outcomes["ok"] == 0:
        failures.append(f"backend={backend}: soak completed zero queries")
    supervisor = server.supervisor
    if supervisor.pools_created + supervisor.pools_reused == 0 or stats["inline"] == 0:
        failures.append(
            f"backend={backend}: the soak must cross both the inline path and "
            f"the pools (created {supervisor.pools_created}, reused "
            f"{supervisor.pools_reused}): {stats}"
        )
    if outcomes["ok"] != stats["completed"]:
        failures.append(
            f"backend={backend}: clients saw {outcomes['ok']} successes but "
            f"the server counted {stats['completed']}"
        )
    cache = db.plan_cache
    if len(cache) > cache.capacity:
        failures.append(
            f"backend={backend}: plan cache grew past its bound "
            f"({len(cache)} entries > capacity {cache.capacity})"
        )
    if stats["plan_cache_hits"] + stats["plan_cache_misses"] != stats["submitted"]:
        failures.append(
            f"backend={backend}: plan-cache counters do not reconcile with "
            f"the QueryGraph submissions: {stats}"
        )
    return {
        "backend": backend,
        "outcomes": outcomes,
        "stats": stats,
        "plan_cache_entries": len(cache),
        "plan_cache": cache.stats.snapshot(),
        "pools_created": server.supervisor.pools_created,
        "pools_reused": server.supervisor.pools_reused,
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seconds",
        type=float,
        default=60.0,
        help="total soak length, split across backends (default 60)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=6,
        help="concurrent client threads per phase (default 6)",
    )
    args = parser.parse_args()

    # The deadlock backstop: if any queue wedges, fail loudly instead of
    # letting the job hang until the CI-level timeout reaps it.
    watchdog = threading.Timer(
        args.seconds + WATCHDOG_GRACE_SECONDS,
        lambda: (
            print("soak_server: WATCHDOG FIRED — deadlock suspected", flush=True),
            os._exit(2),
        ),
    )
    watchdog.daemon = True
    watchdog.start()

    backends = ["thread"] + (["process"] if fork_available() else [])
    per_phase = args.seconds / len(backends)
    print_header(
        f"Server soak: {args.clients} clients x {len(backends)} backends, "
        f"{args.seconds:.0f}s total"
    )
    db = _build_soak_db()
    failures: List[str] = []
    for backend in backends:
        phase = _soak_phase(db, backend, per_phase, args.clients)
        outcomes, stats = phase["outcomes"], phase["stats"]
        print(
            f"{backend:<8} ok={outcomes['ok']} rejected={outcomes['rejected']} "
            f"timeout={outcomes['timeout']} cancelled={outcomes['cancelled']} "
            f"submitted={stats['submitted']} shed={stats['shed']} "
            f"inline={stats['inline']} pooled={stats['pooled']} "
            f"pools_created={phase['pools_created']} "
            f"pools_reused={phase['pools_reused']}"
        )
        failures.extend(phase["failures"])
    watchdog.cancel()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: no leaks, no deadlocks, counters reconcile")
    return 0


if __name__ == "__main__":
    sys.exit(main())
