"""Every script under ``benchmarks/`` and ``examples/`` still imports.

The scripts are run by hand, not by the tier-1 suite, so a module deleted
or renamed under ``src/`` (or a helper removed from a sibling script they
import, such as ``common`` or ``paired``) would leave one of them
with a broken import that no other test notices.  Each script is loaded
under a private module name; none builds a dataset at import time.
``benchmarks/suite/`` is the benchmark of record and has its own tests.
The three server query shapes that ``soak_server.py`` and ``crossover.py``
share from ``common`` are also checked against the naive matcher.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

from repro import Database

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS_DIR = os.path.join(ROOT, "benchmarks")
EXAMPLES_DIR = os.path.join(ROOT, "examples")
SCRIPTS = sorted(name for name in os.listdir(BENCHMARKS_DIR) if name.endswith(".py"))
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


def test_scripts_are_found():
    assert "paired.py" in SCRIPTS and "paper_tables.py" in SCRIPTS
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize(
    "path",
    [os.path.join(BENCHMARKS_DIR, name) for name in SCRIPTS]
    + [os.path.join(EXAMPLES_DIR, name) for name in EXAMPLES],
    ids=SCRIPTS + [f"examples/{name}" for name in EXAMPLES],
)
def test_benchmark_script_imports(path, monkeypatch):
    # The benchmark scripts import ``common`` and each other by bare name.
    monkeypatch.syspath_prepend(BENCHMARKS_DIR)
    name = f"benchmark_script_{os.path.basename(path)[:-3]}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs, as an import would: dataclasses look their
    # defining module up in ``sys.modules``.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)


def test_scripts_run_without_pythonpath():
    """``common`` puts ``src/`` on the path: a script that imports it before
    the package runs as a plain script, from any directory."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS_DIR, "soak_server.py"), "--help"],
        cwd=os.path.dirname(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout


@pytest.mark.parametrize("shape", ["one_hop", "two_hop", "triangle"])
def test_server_query_shapes_count_what_the_oracle_counts(
    shape, social_graph, social_oracle, monkeypatch
):
    monkeypatch.syspath_prepend(BENCHMARKS_DIR)
    query = getattr(importlib.import_module("common"), shape)()
    assert Database(social_graph).count(query) == social_oracle.count(query)
