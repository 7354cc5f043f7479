"""Rows in flight: one rule, decided by the sink, on every runner.

A run whose sink needs no rows (``count()``, ``run(factorized=True)``)
carries ``COUNT_ONLY_COALESCE`` × ``batch_size`` rows per batch on the direct
serial ``Executor``, the inline runner and the morsel bodies of every
backend; a run whose sink needs rows carries ``batch_size`` on every inline
run and ``DEFAULT_COALESCE`` × ``batch_size`` in a morsel body.
The scan stage's batch count (``operator_batches["0:scan"]``) over the
150-vertex social graph, where every vertex passes the scan, says which size
a run used.  None of it may change a count or a logical counter.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.query.backends import fork_available
from repro.query.executor import (
    COUNT_ONLY_COALESCE,
    DEFAULT_COALESCE,
    Executor,
    MorselExecutor,
    rows_in_flight,
)
from repro.query.operators import ExecutionStats, ScanVertices
from repro.query.pattern import QueryGraph
from repro.server import ServerConfig

# The inline runner exists only under the real plan-cost gate.
pytestmark = pytest.mark.production_gate

#: Rows per emitted batch: small, so every size below cuts the domain often.
BATCH = 3
#: Vertices per morsel on the pooled runners, a multiple of every in-flight
#: size below, so morsel cuts add no partial scan batch.
MORSEL = BATCH * COUNT_ONLY_COALESCE * 2

RUNNERS = [
    "direct",
    "inline",
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(not fork_available(), reason="needs cheap fork pools"),
    ),
]


def _social_query(name, edges) -> QueryGraph:
    query = QueryGraph(name)
    for var in sorted({v for edge in edges for v in edge}):
        query.add_vertex(var, label="User")
    for position, (src, dst) in enumerate(edges, start=1):
        query.add_edge(src, dst, label="Follows", name=f"e{position}")
    return query


QUERIES = {
    "two_hop": [("a", "b"), ("b", "c")],
    "triangle": [("a", "b"), ("b", "c"), ("a", "c")],
    # a two-leg E/I suffix whose (b, d) keys repeat
    "diamond": [("a", "b"), ("a", "d"), ("b", "c"), ("d", "c")],
}


@pytest.fixture()
def db(social_graph):
    return Database(social_graph, batch_size=BATCH)


def _runner(db, plan, name):
    if name in ("direct", "inline"):
        runner = db._make_executor(db.graph, 1 if name == "direct" else 2, None, plan)
        assert type(runner) is Executor
        return runner
    return MorselExecutor(
        db.graph, batch_size=BATCH, num_workers=2, morsel_size=MORSEL, backend=name
    )


def _scan_batches(db, rows: int) -> int:
    return math.ceil(db.graph.num_vertices / rows)


def test_the_rule():
    assert COUNT_ONLY_COALESCE == 8
    assert rows_in_flight(1024, 1, count_only=False) == 1024
    assert rows_in_flight(1024, DEFAULT_COALESCE, count_only=False) == 2048
    assert rows_in_flight(1024, 1, count_only=True) == 8192
    assert rows_in_flight(1024, DEFAULT_COALESCE, count_only=True) == 8192
    # An explicit coalesce above the count-only floor is kept.
    assert rows_in_flight(1024, 16, count_only=True) == 16384


@pytest.mark.parametrize("runner_name", RUNNERS)
def test_count_only_runs_carry_eight_batches(db, runner_name):
    plan = db.plan(_social_query("two_hop", QUERIES["two_hop"]))
    runner = _runner(db, plan, runner_name)
    want = _scan_batches(db, BATCH * COUNT_ONLY_COALESCE)
    # Discriminating: either row-producing size would cut more batches.
    assert want < _scan_batches(db, BATCH * DEFAULT_COALESCE)
    counted = ExecutionStats()
    count = runner.count(plan, stats=counted)
    assert counted.operator_batches["0:scan"] == want
    factorized = runner.run(plan, factorized=True)
    assert factorized.stats.operator_batches["0:scan"] == want
    assert count == factorized.count == db.count(plan, factorized=False)


@pytest.fixture()
def scan_batch_rows(monkeypatch):
    """Rows of every batch any in-process scan emits."""
    rows = []
    plain = ScanVertices.execute

    def execute(self, context):
        for batch in plain(self, context):
            rows.append(len(batch))
            yield batch

    monkeypatch.setattr(ScanVertices, "execute", execute)
    return rows


ROW_SINKS = {
    "collect": lambda runner, plan: runner.collect(plan),
    "exists": lambda runner, plan: runner.exists(plan),
    "run_materialize": lambda runner, plan: runner.run(plan, materialize=True),
    "count_flat": lambda runner, plan: runner.count(plan, factorized=False),
}


@pytest.mark.parametrize("sink", sorted(ROW_SINKS))
@pytest.mark.parametrize("runner_name", ["direct", "inline", "thread"])
def test_row_sinks_keep_their_batch(db, scan_batch_rows, runner_name, sink):
    plan = db.plan(_social_query("two_hop", QUERIES["two_hop"]))
    runner = _runner(db, plan, runner_name)
    ROW_SINKS[sink](runner, plan)
    coalesce = DEFAULT_COALESCE if runner_name == "thread" else 1
    assert scan_batch_rows and max(scan_batch_rows) == BATCH * coalesce


def test_collect_carries_one_batch_on_every_inline_route(db, scan_batch_rows):
    """``parallelism=1``, a ``parallelism=2`` run the gate keeps inline and
    the server's inline ticket are one runner with one batch size."""
    query = _social_query("two_hop", QUERIES["two_hop"])
    widest, rows = {}, {}
    with db.server(ServerConfig(parallelism=2, backend="thread")) as server:
        for route, collect in (
            ("direct", lambda: db.collect(query, parallelism=1)),
            ("gated", lambda: db.collect(query, parallelism=2)),
            ("server", lambda: server.collect(query)),
        ):
            scan_batch_rows.clear()
            rows[route] = collect()
            widest[route] = max(scan_batch_rows)
        assert server.stats.snapshot()["inline"] == 1
    assert widest == {"direct": BATCH, "gated": BATCH, "server": BATCH}
    assert rows["gated"] == rows["server"] == rows["direct"]


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_count_only_counters_equal_the_flat_oracle(
    social_graph, social_oracle, name, batch_size
):
    query = _social_query(name, QUERIES[name])
    plan = Database(social_graph).plan(query)
    # One suffix operator: the flat pipeline reads exactly the same lists.
    assert len(plan.operators) - plan.factorized_suffix_start() == 1
    flat = Executor(social_graph).run(plan)
    counted = Executor(social_graph, batch_size=batch_size).run(plan, factorized=True)
    assert counted.count == flat.count == social_oracle.count(query)
    for counter in (
        "lists_accessed",
        "list_entries_fetched",
        "predicate_evaluations",
        "output_rows",
    ):
        assert getattr(counted.stats, counter) == getattr(flat.stats, counter), counter
    assert (
        counted.stats.intermediate_rows + counted.stats.combos_avoided
        == flat.stats.intermediate_rows
    )


@pytest.mark.parametrize("batch_size", [0, -1])
def test_non_positive_batch_size_is_rejected_not_hung(social_graph, batch_size):
    """A scan that emits empty batches forever used to hang ``count()``."""
    query = _social_query("two_hop", QUERIES["two_hop"])
    errors = []

    def attempt():
        try:
            Database(social_graph, batch_size=batch_size).count(query)
        except ExecutionError as exc:
            errors.append(exc)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive(), "count() hung on a non-positive batch_size"
    assert errors and "batch_size" in str(errors[0])
    for build in (Executor, MorselExecutor):
        with pytest.raises(ExecutionError, match="batch_size"):
            build(social_graph, batch_size=batch_size)
