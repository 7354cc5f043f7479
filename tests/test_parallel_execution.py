"""Randomized equivalence suite for morsel-driven parallel execution.

The determinism contract under test: for every query of the zoo (1/2/3-leg
EXTEND/INTERSECT, MULTI-EXTEND, scan predicates, sorted filters) and for any
morsel partitioning, ``parallelism=4`` must produce **byte-identical** output
to ``parallelism=1`` — same match rows, same row order, same execution
statistics — and both must agree with the naive backtracking oracle.

Morsel boundary edge cases get dedicated coverage: empty morsels, morsels
smaller than one batch, and single-vertex ranges.
"""

from __future__ import annotations

import pytest

from repro import Database, Direction
from repro.bench.harness import vpt_view_and_config
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.query import MorselExecutor, Predicate, QueryGraph, cmp, prop
from repro.query.executor import Executor
from repro.query.naive import NaiveMatcher
from repro.workloads import fraud, labelled_subgraph, magicrecs


def _stats_dict(stats):
    return {
        "lists_accessed": stats.lists_accessed,
        "list_entries_fetched": stats.list_entries_fetched,
        "intermediate_rows": stats.intermediate_rows,
        "output_rows": stats.output_rows,
        "predicate_evaluations": stats.predicate_evaluations,
    }


def assert_parallel_matches_serial(db, query, oracle_count=None, parallelism=4):
    serial = db.run(query, materialize=True, parallelism=1)
    parallel = db.run(query, materialize=True, parallelism=parallelism)
    assert parallel.count == serial.count
    assert parallel.matches == serial.matches
    assert _stats_dict(parallel.stats) == _stats_dict(serial.stats)
    if oracle_count is not None:
        assert serial.count == oracle_count
    return serial


# ----------------------------------------------------------------------
# the query zoo: handcrafted 1/2/3-leg shapes on seeded random graphs
# ----------------------------------------------------------------------
def _one_leg():
    query = QueryGraph("p1")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    return query


def _triangle():
    query = QueryGraph("p2")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


def _three_leg_clique():
    """4-clique-ish diamond: the last vertex intersects three bound lists."""
    query = QueryGraph("p3")
    for name in ("a", "b", "c", "d"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    query.add_edge("a", "d", name="e3")
    query.add_edge("b", "d", name="e4")
    query.add_edge("c", "d", name="e5")
    return query


def _predicated():
    query = QueryGraph("p4")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    query.add_predicate(cmp(prop("a", "ID"), "<", 60))
    return query


ZOO = {
    "one_leg": _one_leg,
    "triangle": _triangle,
    "three_leg_clique": _three_leg_clique,
    "predicated": _predicated,
}


@pytest.mark.parametrize("seed", [3, 17, 92])
@pytest.mark.parametrize("shape", sorted(ZOO))
def test_random_graphs_zoo_parallel_equals_serial_and_oracle(seed, shape):
    graph = generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=110,
            num_edges=440,
            num_vertex_labels=2,
            num_edge_labels=2,
            skew=0.4,
            seed=seed,
        )
    )
    db = Database(graph)
    query = ZOO[shape]()
    oracle = NaiveMatcher(graph).count(query)
    assert_parallel_matches_serial(db, query, oracle_count=oracle)


# ----------------------------------------------------------------------
# the paper's workload queries (SQ / MR / MF families)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["SQ1", "SQ4", "SQ7"])
def test_labelled_subgraph_queries_parallel(labelled_graph, labelled_oracle, name):
    query = labelled_subgraph.build_workload(3, 2, names=[name])[name]
    db = Database(labelled_graph)
    assert_parallel_matches_serial(
        db, query, oracle_count=labelled_oracle.count(query)
    )


def test_magicrecs_sorted_filter_queries_parallel(social_graph, social_oracle):
    """Sorted-range filters through a time-sorted secondary index."""
    queries = magicrecs.build_workload(social_graph, selectivity=0.1)
    db = Database(social_graph)
    view, config = vpt_view_and_config()
    db.create_vertex_index(
        view, directions=(Direction.FORWARD,), config=config, name="VPt"
    )
    for name, query in queries.items():
        assert_parallel_matches_serial(
            db, query, oracle_count=social_oracle.count(query)
        )


def test_fraud_multi_extend_queries_parallel(financial_graph, financial_oracle):
    """MULTI-EXTEND plans (city-sorted VPc index) under parallel dispatch."""
    queries = fraud.build_workload(financial_graph, selectivity=0.1)
    db = Database(financial_graph)
    view, config = fraud.vpc_view_and_config()
    db.create_vertex_index(
        view,
        directions=(Direction.FORWARD, Direction.BACKWARD),
        config=config,
        name="VPc",
    )
    for name, query in queries.items():
        assert_parallel_matches_serial(
            db, query, oracle_count=financial_oracle.count(query)
        )


# ----------------------------------------------------------------------
# morsel boundary edge cases (explicit morsel sizes on the dispatcher)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def boundary_db(labelled_graph):
    return Database(labelled_graph)


@pytest.fixture(scope="module")
def boundary_plan(boundary_db):
    return boundary_db.plan(_triangle())


@pytest.fixture(scope="module")
def boundary_serial(boundary_db, boundary_plan):
    executor = Executor(boundary_db.graph, batch_size=boundary_db.batch_size)
    return executor.run(boundary_plan, materialize=True)


@pytest.mark.parametrize(
    "morsel_size,batch_size",
    [
        (1, 1),  # single-vertex ranges
        (7, 8),  # a morsel smaller than one in-flight batch (16 rows)
        (64, 2),
        (10_000, 8),  # one morsel spanning the whole domain
    ],
)
def test_morsel_boundaries_byte_identical(
    boundary_db, boundary_plan, boundary_serial, morsel_size, batch_size
):
    executor = MorselExecutor(
        boundary_db.graph,
        batch_size=batch_size,
        num_workers=4,
        morsel_size=morsel_size,
    )
    result = executor.run(boundary_plan, materialize=True)
    assert result.count == boundary_serial.count
    assert result.matches == boundary_serial.matches
    assert _stats_dict(result.stats) == _stats_dict(boundary_serial.stats)


def test_empty_morsels_from_selective_scan_predicate(labelled_graph):
    """Morsels past the predicate's ID ceiling produce zero candidates."""
    db = Database(labelled_graph)
    query = QueryGraph("empty_tail")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    query.add_predicate(cmp(prop("a", "ID"), "<", 5))
    plan = db.plan(query)
    serial = Executor(db.graph).run(plan, materialize=True)
    executor = MorselExecutor(db.graph, num_workers=4, morsel_size=10)
    result = executor.run(plan, materialize=True)
    assert result.matches == serial.matches
    assert _stats_dict(result.stats) == _stats_dict(serial.stats)


def test_all_morsels_empty_yields_empty_result(labelled_graph):
    db = Database(labelled_graph)
    query = QueryGraph("none")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    query.add_predicate(cmp(prop("a", "ID"), "<", 0))
    result = db.run(query, materialize=True, parallelism=4)
    assert result.count == 0
    assert result.matches == []


def test_parallel_batches_respect_batch_size(boundary_db, boundary_plan):
    executor = MorselExecutor(boundary_db.graph, batch_size=128, num_workers=4)
    sizes = [len(batch) for batch in executor.execute(boundary_plan)]
    assert sizes, "plan should produce at least one batch"
    assert max(sizes) <= 128


def test_scan_vertex_range_restricts_domain(boundary_db):
    """An explicit range on the plan's scan is partitioned, not widened."""
    from dataclasses import replace

    plan = boundary_db.plan(_one_leg())
    ranged = replace(plan.operators[0], vertex_range=(20, 60))
    ranged_plan = type(plan)(query=plan.query, operators=[ranged, *plan.operators[1:]])
    serial = Executor(boundary_db.graph).run(ranged_plan, materialize=True)
    assert all(20 <= m["a"] < 60 for m in serial.matches)
    parallel = MorselExecutor(
        boundary_db.graph, num_workers=4, morsel_size=9
    ).run(ranged_plan, materialize=True)
    assert parallel.matches == serial.matches


# ----------------------------------------------------------------------
# knob plumbing
# ----------------------------------------------------------------------
def test_parallelism_env_var_default(labelled_graph, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLELISM", "4")
    db = Database(labelled_graph)
    assert isinstance(db.executor(), MorselExecutor)
    monkeypatch.setenv("REPRO_PARALLELISM", "1")
    assert isinstance(db.executor(), Executor)
    monkeypatch.delenv("REPRO_PARALLELISM")
    assert isinstance(db.executor(), Executor)


def test_constructor_parallelism_beats_env(labelled_graph, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLELISM", "1")
    db = Database(labelled_graph, parallelism=4)
    assert isinstance(db.executor(), MorselExecutor)
    # The per-call argument wins over both.
    assert isinstance(db.executor(parallelism=1), Executor)


def test_invalid_parallelism_rejected(labelled_graph):
    from repro.errors import ExecutionError

    db = Database(labelled_graph)
    with pytest.raises(ExecutionError):
        db.run(_one_leg(), parallelism=0)


def test_backend_env_var_default(labelled_graph, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    db = Database(labelled_graph)
    executor = db.executor(parallelism=4)
    assert isinstance(executor, MorselExecutor)
    assert executor.backend == "process"
    # parallelism=1 stays the serial oracle regardless of the backend knob.
    assert isinstance(db.executor(parallelism=1), Executor)
    monkeypatch.delenv("REPRO_BACKEND")
    assert db.executor(parallelism=4).backend == "thread"


def test_constructor_backend_beats_env(labelled_graph, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "thread")
    db = Database(labelled_graph, backend="serial")
    assert db.executor(parallelism=4).backend == "serial"
    # The per-call argument wins over both.
    assert db.executor(parallelism=4, backend="process").backend == "process"


def test_invalid_backend_rejected(labelled_graph, monkeypatch):
    from repro.errors import ExecutionError

    db = Database(labelled_graph)
    with pytest.raises(ExecutionError):
        db.run(_one_leg(), parallelism=2, backend="gpu")
    # The typo surfaces even when the serial path would never use it.
    with pytest.raises(ExecutionError):
        db.run(_one_leg(), parallelism=1, backend="gpu")
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ExecutionError):
        db.run(_one_leg(), parallelism=2)


def test_backend_instance_rejected_by_database(labelled_graph):
    from repro.errors import ExecutionError
    from repro.query.backends import ThreadBackend

    db = Database(labelled_graph)
    with pytest.raises(ExecutionError, match="names"):
        db.run(_one_leg(), parallelism=2, backend=ThreadBackend())


def test_describe_documents_backends(labelled_graph, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    description = Database(labelled_graph).describe()
    assert "default backend: thread" in description
    assert "process" in description and "serial" in description
    assert "byte-identical" in description
    monkeypatch.setenv("REPRO_BACKEND", "process")
    assert "default backend: process" in Database(labelled_graph).describe()
