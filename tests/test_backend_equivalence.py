"""Cross-backend differential suite: every dispatch path is byte-identical.

The determinism contract of the backend-pluggable dispatcher: for every
query of the zoo, every seeded graph shape (uniform, Zipf-skewed, star,
empty), every backend (``thread``, ``process``) and both morsel cuts
(``degree``-weighted, ``fixed``-size), the produced matches, their order, and
the :class:`~repro.query.operators.ExecutionStats` are **identical** to the
inline run's (``parallelism=1``), which itself agrees with the naive
backtracking oracle.

A small always-on subset keeps the contract pinned in tier-1; the full
randomized matrix is marked ``fuzz`` (opt-in via ``RUN_FUZZ=1``; CI runs it
nightly as advisory) because spinning up a process pool per combination is
too slow for the default suite.
"""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.graph import GraphBuilder
from repro.graph.generators import LabelledGraphSpec, generate_labelled_graph
from repro.query import PlanRunner, QueryGraph, cmp, prop
from repro.query.naive import NaiveMatcher

BACKEND_NAMES = ("thread", "process")
#: Morsel cuts: name -> ``morsel_size``.  ``None`` is the default
#: degree-weighted cut; a size cuts fixed equal vertex-count ranges, about
#: eight morsels on these 60-80-vertex graphs.
MORSEL_CUTS = {"degree": None, "fixed": 10}

fuzz = pytest.mark.skipif(
    os.environ.get("RUN_FUZZ") != "1",
    reason="cross-backend fuzz matrix is opt-in; set RUN_FUZZ=1 to run",
)


# ----------------------------------------------------------------------
# seeded graph shapes
# ----------------------------------------------------------------------
def _labelled(skew: float, seed: int):
    return generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=80,
            num_edges=320,
            num_vertex_labels=2,
            num_edge_labels=2,
            skew=skew,
            seed=seed,
        )
    )


def _star_graph():
    """Two hubs and a light rim: the worst case for even vertex splits."""
    builder = GraphBuilder()
    for i in range(60):
        builder.add_vertex(f"VL{i % 2}")
    for spoke in range(1, 40):
        builder.add_edge(0, spoke, "EL0")
        builder.add_edge(spoke, 0, "EL0")
    for spoke in range(31, 59):
        builder.add_edge(30, spoke, "EL1")
    builder.add_edge(30, 0, "EL1")
    return builder.build()


def _empty_graph():
    builder = GraphBuilder()
    for _ in range(25):
        builder.add_vertex("VL0")
    return builder.build()


GRAPHS = {
    "uniform": lambda seed: _labelled(0.0, seed),
    "zipf": lambda seed: _labelled(1.0, seed),
    "star": lambda seed: _star_graph(),
    "empty": lambda seed: _empty_graph(),
}


# ----------------------------------------------------------------------
# the query zoo
# ----------------------------------------------------------------------
def _one_leg():
    query = QueryGraph("one_leg")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    return query


def _triangle():
    query = QueryGraph("triangle")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", name="e0")
    query.add_edge("a", "c", name="e1")
    query.add_edge("b", "c", name="e2")
    return query


def _three_leg_clique():
    query = QueryGraph("clique")
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
    query = QueryGraph("predicated")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", name="e0")
    query.add_predicate(cmp(prop("a", "ID"), "<", 40))
    return query


ZOO = {
    "one_leg": _one_leg,
    "triangle": _triangle,
    "three_leg_clique": _three_leg_clique,
    "predicated": _predicated,
}


# ----------------------------------------------------------------------
# cached builds: graph -> db/plan/serial baseline (pools are the slow part)
# ----------------------------------------------------------------------
_CACHE = {}


def _stats_dict(stats):
    return {
        "lists_accessed": stats.lists_accessed,
        "list_entries_fetched": stats.list_entries_fetched,
        "intermediate_rows": stats.intermediate_rows,
        "output_rows": stats.output_rows,
        "predicate_evaluations": stats.predicate_evaluations,
    }


def _baseline(graph_key: str, seed: int, shape: str):
    key = (graph_key, seed, shape)
    if key not in _CACHE:
        graph_cache_key = ("graph", graph_key, seed)
        if graph_cache_key not in _CACHE:
            graph = GRAPHS[graph_key](seed)
            _CACHE[graph_cache_key] = (graph, Database(graph))
        graph, db = _CACHE[graph_cache_key]
        plan = db.plan(ZOO[shape]())
        serial = PlanRunner(db.graph, batch_size=db.batch_size).run(
            plan, materialize=True
        )
        oracle = NaiveMatcher(graph).count(ZOO[shape]())
        assert serial.count == oracle, (
            f"serial executor disagrees with the naive oracle on "
            f"{graph_key}/{shape}"
        )
        _CACHE[key] = (db, plan, serial)
    return _CACHE[key]


def check_combo(
    graph_key: str,
    seed: int,
    shape: str,
    backend: str,
    morsel_size=None,
    num_workers: int = 2,
):
    db, plan, serial = _baseline(graph_key, seed, shape)
    executor = PlanRunner(
        db.graph,
        batch_size=db.batch_size,
        num_workers=num_workers,
        morsel_size=morsel_size,
        backend=backend,
    )
    result = executor.run(plan, materialize=True)
    context = f"{graph_key}/seed{seed}/{shape}/{backend}/size={morsel_size}"
    assert result.count == serial.count, context
    assert result.matches == serial.matches, context
    assert _stats_dict(result.stats) == _stats_dict(serial.stats), context


# ----------------------------------------------------------------------
# tier-1 smoke subset: full backend × morsel-cut matrix on two graph shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cut", sorted(MORSEL_CUTS))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("graph_key", ["zipf", "star"])
def test_smoke_matrix_triangle(graph_key, backend, cut):
    check_combo(graph_key, 3, "triangle", backend, MORSEL_CUTS[cut])


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_smoke_empty_graph(backend):
    check_combo("empty", 3, "one_leg", backend)


def test_smoke_single_vertex_morsels_process_backend():
    check_combo("star", 3, "one_leg", "process", morsel_size=1)


# ----------------------------------------------------------------------
# the full fuzz matrix (nightly / RUN_FUZZ=1)
# ----------------------------------------------------------------------
@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("cut", sorted(MORSEL_CUTS))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("shape", sorted(ZOO))
@pytest.mark.parametrize(
    "graph_key,seed",
    [
        ("uniform", 3),
        ("uniform", 17),
        ("zipf", 3),
        ("zipf", 17),
        ("zipf", 92),
        ("star", 0),
        ("empty", 0),
    ],
)
def test_fuzz_matrix(graph_key, seed, shape, backend, cut):
    check_combo(graph_key, seed, shape, backend, MORSEL_CUTS[cut])


@fuzz
@pytest.mark.fuzz
@pytest.mark.parametrize("morsel_size", [1, 7, 1000])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fuzz_morsel_boundaries(backend, morsel_size):
    check_combo("zipf", 17, "triangle", backend, morsel_size)
    check_combo("star", 0, "three_leg_clique", backend, morsel_size)


@fuzz
@pytest.mark.fuzz
def test_fuzz_four_workers_match_two(
):
    for backend in BACKEND_NAMES:
        check_combo("zipf", 92, "triangle", backend, num_workers=4)
