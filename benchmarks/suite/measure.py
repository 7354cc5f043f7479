"""Measured passes over a workload and the metrics computed from them."""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from manifest import END_TO_END, PER_LAYER
from tracer import OP_SPAN, NameTotal, Tracer
from workloads import Workload

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Operations an untraced full-scale pass measures at least (p95 needs 200).
MIN_OPS = 200


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile, refused unless enough samples lie beyond it."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond:.1f} beyond it; "
            f"{MIN_TAIL_SAMPLES} are required"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class PassResult:
    """What one measured pass observed."""

    latencies_ms: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Sum over clients of correct operations per second of that client's loop.
    ops_per_s: float = 0.0
    #: Mean seconds of one round, over all clients.
    round_s: float = 0.0
    messages: List[str] = field(default_factory=list)

    def by_label(self) -> Dict[str, List[float]]:
        """Latencies grouped by operation label."""
        groups: Dict[str, List[float]] = {}
        for label, ms in zip(self.labels, self.latencies_ms):
            groups.setdefault(label, []).append(ms)
        return groups

    @property
    def mean_op_s(self) -> float:
        return sum(self.latencies_ms) / 1000.0 / max(len(self.latencies_ms), 1)


def run_pass(
    workload: Workload,
    first_round: int,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    min_ops: int = 0,
    tracer: Optional[Tracer] = None,
) -> PassResult:
    """Closed-loop pass: every client runs whole rounds, one op at a time.

    With ``rounds`` each client runs exactly that many; with ``seconds`` it
    keeps starting rounds until the time is up *and* it has run its share of
    ``min_ops``.  Rounds ``first_round, first_round + 1, ...`` are used, so
    consecutive passes see fresh update batches.  With a ``tracer`` every
    operation runs inside its own root span.
    """
    result = PassResult()
    clients = workload.clients
    lock = threading.Lock()
    clock = time.perf_counter
    share = -(-min_ops // clients)

    def client_loop(client: int) -> None:
        latencies: List[float] = []
        labels: List[str] = []
        failed = 0
        messages: List[str] = []
        index = first_round
        begun = clock()
        while True:
            if rounds is not None:
                if index - first_round >= rounds:
                    break
            elif clock() - begun >= seconds and len(latencies) >= share:
                break
            for position, op in enumerate(workload.round(index, client)):
                value = error = None
                try:
                    if tracer is None:
                        start = clock()
                        value = op.run()
                        end = clock()
                    else:
                        with tracer.op((client << 40) | (index << 12) | position):
                            start = clock()
                            value = op.run()
                            end = clock()
                except Exception as exc:  # the loop must count it and go on
                    end = clock()
                    error = f"{op.label} raised {exc!r}"
                if error is None and not op.ok(value):
                    error = f"{op.label} returned {value!r}, not the oracle's answer"
                if error is not None:
                    failed += 1
                    messages.append(error)
                latencies.append((end - start) * 1000.0)
                labels.append(op.label)
            index += 1
        elapsed = clock() - begun
        with lock:
            result.latencies_ms += latencies
            result.labels += labels
            result.attempted += len(latencies)
            result.failed += failed
            result.ops_per_s += (len(latencies) - failed) / elapsed
            result.round_s += elapsed / max(index - first_round, 1) / clients
            result.messages += messages[:3]

    if clients == 1:
        client_loop(0)
    else:
        gate = threading.Barrier(clients)

        def gated(client: int) -> None:
            gate.wait()
            client_loop(client)

        threads = [threading.Thread(target=gated, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return result


def memory_split(workload: Workload) -> Dict[str, float]:
    """Index bytes (primary, secondary) and live edges of a workload."""
    primary = total = edges = 0
    for db in workload.databases():
        primary += sum(b.total for b in db.primary_index.memory_breakdowns())
        total += db.memory_report().total
        edges += db.graph.num_edges
    return {"primary": primary, "secondary": total - primary, "edges": edges}


def end_to_end_metrics(
    workload: Workload, setup_seconds: List[float], result: PassResult
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run, in declaration order."""
    memory = memory_split(workload)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": percentile(result.latencies_ms, 50),
        "op_p95_ms": percentile(result.latencies_ms, 95),
        "ops_per_s": result.ops_per_s,
        "index_bytes_per_edge": (memory["primary"] + memory["secondary"]) / memory["edges"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: values[name] for name, _unit, _better, _bound in END_TO_END}


#: ``ExecutionStats.operator_seconds`` stage kinds -> metric names.
_STAGE_METRIC = {
    "scan": "query.scan_s",
    "extend": "query.extend_s",
    "multi-extend": "query.multi_extend_s",
    "filter": "query.filter_s",
}
_NO_SPANS = NameTotal(0.0, 0.0, 0, 0)
_EXECUTION_COUNTERS = (
    "lists_accessed",
    "list_entries_fetched",
    "intermediate_rows",
    "output_rows",
    "predicate_evaluations",
    "combos_avoided",
    "morsels_dispatched",
    "retries",
)
_ENGINE_COUNTERS = (
    ("query.plan_cache_hits", "plan_cache_hits"),
    ("query.plan_cache_misses", "plan_cache_misses"),
    ("index.flush_edges", "flush_edges"),
    ("index.ep_probes", "ep_probes"),
    ("server.rejected", "rejected"),
    ("server.shed", "shed"),
    ("server.failed", "failed"),
    ("server.pools_created", "pools_created"),
    ("server.pools_reused", "pools_reused"),
)


def layer_metrics(
    workload: Workload,
    tracer: Tracer,
    traced: PassResult,
    untraced: PassResult,
    counters_before: Dict[str, int],
    counters_after: Dict[str, int],
    primary_only_round_s: Optional[float] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, in declaration order.

    Times are self times summed over the pass; counts are exact.  A span
    name the pass never produced contributes zeros, so every workload
    reports every metric.
    """
    totals = tracer.totals()

    def total(name: str) -> NameTotal:
        return totals.get(name, _NO_SPANS)

    def self_s(name: str) -> float:
        return total(name).self_s

    def calls(name: str) -> int:
        return total(name).calls

    def work(name: str) -> int:
        return total(name).n

    strategies = tracer.tag_counts("storage.choose_strategy")
    memory = memory_split(workload)
    values: Dict[str, float] = {
        "storage.gather_s": self_s("storage.gather"),
        "storage.gather_calls": calls("storage.gather"),
        "storage.gather_entries": work("storage.gather"),
        "storage.intersect_s": self_s("storage.intersect") + self_s("storage.choose_strategy"),
        "storage.intersect_calls": calls("storage.intersect"),
        "storage.intersect_entries": work("storage.intersect"),
        "storage.intersect_merge_calls": strategies.get("merge", 0),
        "storage.intersect_gallop_calls": strategies.get("gallop", 0),
        "storage.intersect_hash_calls": strategies.get("hash", 0),
        "storage.offset_resolve_s": self_s("storage.offset_resolve"),
        "storage.offset_resolve_calls": calls("storage.offset_resolve"),
        "storage.offset_resolve_entries": work("storage.offset_resolve"),
        "storage.merge_runs_s": self_s("storage.merge_runs"),
        "index.primary_list_many_s": self_s("index.primary_list_many"),
        "index.primary_list_many_calls": calls("index.primary_list_many"),
        "index.secondary_list_many_s": self_s("index.secondary_list_many"),
        "index.secondary_list_many_calls": calls("index.secondary_list_many"),
        "index.ddl_s": workload.timings["ddl_s"],
        "index.insert_edges_s": self_s("index.insert_edges"),
        "index.delete_edges_s": self_s("index.delete_edges"),
        "index.flush_s": self_s("index.flush"),
        "index.flush_calls": calls("index.flush"),
        "index.bytes_primary": memory["primary"],
        "index.bytes_secondary": memory["secondary"],
        "index.tuned_vs_primary_bytes_ratio": (memory["primary"] + memory["secondary"])
        / memory["primary"],
        "index.tuned_vs_primary_time_ratio": (
            primary_only_round_s / untraced.round_s if primary_only_round_s else 0.0
        ),
        "graph.build_s": workload.timings["graph_build_s"],
        "query.plan_s": self_s("query.plan"),
        "query.plan_calls": calls("query.plan"),
        "query.fingerprint_s": self_s("query.fingerprint"),
        "query.pipeline_build_s": self_s("query.pipeline_build"),
        "query.backend_open_s": self_s("query.backend_open"),
        "query.backend_submit_s": self_s("query.backend_submit"),
        "query.backend_result_wait_s": self_s("query.backend_result"),
        "query.backend_close_s": self_s("query.backend_close"),
        "query.decode_s": self_s("query.decode"),
        "query.checksum_s": self_s("query.checksum"),
        "query.reply_bytes": work("query.decode"),
        "server.submit_s": self_s("server.submit"),
        "server.lease_s": self_s("server.lease"),
        # Slot-thread time from lease granted to result published.
        "server.execute_s": total("server.slot").total_s - total("server.lease").total_s,
        # Turnaround that neither submit nor the slot covers: queueing, hand-off.
        "server.wait_s": tracer.uncovered_seconds(("server.submit", "server.slot")),
    }
    for name in _STAGE_METRIC.values():
        values[name] = 0.0
    for name in _EXECUTION_COUNTERS:
        values[f"query.{name}"] = 0
    for stats in tracer.execution_stats:
        for label, seconds in stats.operator_seconds.items():
            values[_STAGE_METRIC[label.split(":", 1)[1]]] += seconds
        for name in _EXECUTION_COUNTERS:
            values[f"query.{name}"] += getattr(stats, name)
    for metric, key in _ENGINE_COUNTERS:
        values[metric] = counters_after.get(key, 0) - counters_before.get(key, 0)
    for key, growth in tracer.payload_counters().items():
        values[f"server.{key}"] = growth

    op_seconds = total(OP_SPAN).total_s
    unattributed = tracer.uncovered_seconds()
    values["bench.trace_overhead_share"] = traced.mean_op_s / untraced.mean_op_s - 1.0
    values["bench.attributed_share"] = 1.0 - unattributed / op_seconds if op_seconds else 0.0
    values["bench.unattributed_s"] = unattributed
    return {name: values[name] for name, _unit, _better in PER_LAYER}
