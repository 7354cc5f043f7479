"""Shared fixtures for the test suite.

Fixtures build small, deterministic graphs: the paper's running example
(Figure 1), a small random financial graph, a small follower graph, and a
small labelled graph, all sized so that the naive backtracking matcher can be
used as a correctness oracle.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from repro import Database
from repro.graph.generators import (
    FinancialGraphSpec,
    LabelledGraphSpec,
    SocialGraphSpec,
    generate_financial_graph,
    generate_labelled_graph,
    generate_social_graph,
    running_example_graph,
)
from repro.query import executor as executor_module
from repro.query.naive import NaiveMatcher


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: slow cross-backend differential fuzz cases, run nightly on "
        "CI as advisory (set RUN_FUZZ=1 to run locally)",
    )
    config.addinivalue_line(
        "markers",
        "production_gate: run with the engine's real PARALLEL_MIN_ICOST "
        "instead of the suite-wide pin to 0 (see always_dispatch; "
        "--production-gate marks every selected test)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--production-gate",
        action="store_true",
        help="mark every selected test production_gate: run it with the "
        "engine's real PARALLEL_MIN_ICOST (the CI leg that serves the way "
        "production does)",
    )


def _gated_on_run_fuzz(item) -> bool:
    return any(
        "RUN_FUZZ" in str(mark.kwargs.get("reason", ""))
        for mark in item.iter_markers("skipif")
    )


def pytest_collection_modifyitems(config, items):
    # The nightly fuzz job selects with ``-m fuzz``: a test that only the
    # RUN_FUZZ skipif gates would never run there.
    unmarked = [
        item.nodeid
        for item in items
        if _gated_on_run_fuzz(item) and item.get_closest_marker("fuzz") is None
    ]
    if unmarked:
        raise pytest.UsageError(
            "tests gated on RUN_FUZZ must also be marked @pytest.mark.fuzz: "
            + ", ".join(unmarked)
        )
    if config.getoption("--production-gate"):
        for item in items:
            item.add_marker(pytest.mark.production_gate)


@pytest.fixture()
def force_dispatch(monkeypatch):
    """Pin the plan-cost gate to 0: ``parallelism >= 2`` always dispatches.

    Request it explicitly in a test that needs a pool whatever the gate says
    (a query held by a fault injected into a pool worker, a pool-reuse or
    breaker assertion), so the test also holds under ``--production-gate``.
    """
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ICOST", 0)


@pytest.fixture(autouse=True)
def always_dispatch(request):
    """Apply :func:`force_dispatch` to every test not marked ``production_gate``.

    Every graph in this suite is far below the production threshold, so with
    the real gate the ``REPRO_PARALLELISM=4`` / ``REPRO_BACKEND=process`` CI
    legs would run everything inline and stop covering the dispatcher.
    ``tests/test_parallel_gate.py`` opts out, and ``--production-gate`` opts
    a whole run out.
    """
    if request.node.get_closest_marker("production_gate") is None:
        request.getfixturevalue("force_dispatch")


@pytest.fixture(scope="session")
def paper_tables():
    """``benchmarks/paper_tables.py``: the paper's configurations and tables.

    The benchmark scripts import their siblings (``common``, ``paired``) by
    bare name, so ``benchmarks/`` goes on the path first.
    """
    benchmarks = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
    )
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    return importlib.import_module("paper_tables")


@pytest.fixture(scope="session")
def example_graph():
    """The paper's running example graph (Figure 1)."""
    return running_example_graph()


@pytest.fixture(scope="session")
def financial_graph():
    """A small financial graph with acc/city/amt/date/currency properties.

    Sized (and de-skewed) so that the naive backtracking oracle can evaluate
    the 5-vertex fraud queries in well under a second.
    """
    return generate_financial_graph(
        FinancialGraphSpec(
            num_vertices=120, num_edges=480, num_cities=6, skew=0.3, seed=7
        )
    )


@pytest.fixture(scope="session")
def social_graph():
    """A small follower graph with a time property on edges."""
    return generate_social_graph(
        SocialGraphSpec(num_vertices=150, num_edges=600, skew=0.3, seed=13)
    )


@pytest.fixture(scope="session")
def labelled_graph():
    """A small G_{3,2}-style labelled graph."""
    return generate_labelled_graph(
        LabelledGraphSpec(
            num_vertices=150,
            num_edges=600,
            num_vertex_labels=3,
            num_edge_labels=2,
            skew=0.3,
            seed=21,
        )
    )


@pytest.fixture()
def example_db(example_graph):
    return Database(example_graph)


@pytest.fixture()
def financial_db(financial_graph):
    return Database(financial_graph)


@pytest.fixture(scope="session")
def example_oracle(example_graph):
    return NaiveMatcher(example_graph)


@pytest.fixture(scope="session")
def financial_oracle(financial_graph):
    return NaiveMatcher(financial_graph)


@pytest.fixture(scope="session")
def social_oracle(social_graph):
    return NaiveMatcher(social_graph)


@pytest.fixture(scope="session")
def labelled_oracle(labelled_graph):
    return NaiveMatcher(labelled_graph)
