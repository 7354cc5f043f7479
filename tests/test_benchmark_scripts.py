"""Every script under ``benchmarks/`` still imports.

The scripts are run by hand, not by the tier-1 suite, so a module deleted
or renamed under ``src/`` (or a helper removed from a sibling script they
import, such as ``bench_server_load`` or ``paired``) would leave one of them
with a broken import that no other test notices.  Each script is loaded
under a private module name; none builds a dataset at import time.
``benchmarks/suite/`` is the benchmark of record and has its own tests.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
SCRIPTS = sorted(name for name in os.listdir(BENCHMARKS_DIR) if name.endswith(".py"))


def test_scripts_are_found():
    assert "paired.py" in SCRIPTS and "bench_maintenance.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_script_imports(script, monkeypatch):
    # The scripts import ``common`` and each other by bare name.
    monkeypatch.syspath_prepend(BENCHMARKS_DIR)
    spec = importlib.util.spec_from_file_location(
        f"benchmark_script_{script[:-3]}", os.path.join(BENCHMARKS_DIR, script)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
