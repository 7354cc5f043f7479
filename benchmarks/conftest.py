"""Pytest configuration for the benchmark harness.

Adds the benchmarks directory to ``sys.path`` so the bench modules can import
their shared ``common`` module when collected by pytest from the repository
root.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def always_dispatch(monkeypatch):
    """Pin the engine's plan-cost gate to 0, as ``tests/conftest.py`` does.

    The suite's self-tests run its server workloads at "tiny" scale and
    assert that the tracer sees morsels, backend waits and cross-thread
    hand-offs; with the production gate those queries would run inline and
    the dispatch layers the tracer wraps would never be entered.
    """
    from repro.query import executor

    monkeypatch.setattr(executor, "PARALLEL_MIN_ICOST", 0)
