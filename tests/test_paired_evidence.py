"""``benchmarks/paired.py`` keeps every entry it has ever written.

The suite runs themselves are faked: what is pinned here is the evidence
file — a run appends one stamped entry to its workload's list, an older
one-entry-per-workload document is read as one-entry lists, and nothing is
replaced or dropped — and that the change side runs from its own copy of
the working tree, as the parent side runs from its extract.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if _BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, _BENCHMARKS_DIR)

import paired  # noqa: E402


def _fake_suite(monkeypatch, ops_per_s):
    with open(os.path.join(paired.ROOT, "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)["end_to_end"]]

    def mark(target, side):
        with open(os.path.join(target, "SIDE"), "w") as handle:
            handle.write(side)

    def run_side(root, workload, seed, seconds, trace):
        with open(os.path.join(root, "SIDE")) as handle:
            value = ops_per_s[handle.read()]
        metrics = {name: {"value": value, "unit": ""} for name in names}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(paired, "run_side", run_side)
    monkeypatch.setattr(paired, "extract", lambda revision, target: mark(target, "parent"))
    monkeypatch.setattr(paired, "copy_working_tree", lambda target: mark(target, "change"))
    monkeypatch.setattr(
        paired,
        "environment_stamp",
        lambda parent: {"parent": parent, "change": f"after-{ops_per_s['change']}"},
    )


def test_runs_append_and_the_older_shape_is_kept(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_suite.json"
    older = {"seed": 47, "pairs": 10, "metrics": {"ops_per_s": {"median_ratio": 5.3}}}
    out.write_text(
        json.dumps(
            {
                "environment": {"parent": "p0", "change": "c0"},
                "workloads": {"sq_primary": older},
                "traced": {"sq_primary": {"seed": 47, "metrics": {}}},
                "reruns": {"note": "hand-written"},
            }
        )
    )
    argv = ["--parent", "HEAD", "--workload", "sq_primary", "--seed", "5", "--out", str(out)]
    _fake_suite(monkeypatch, {"parent": 100.0, "change": 150.0})
    assert paired.main(argv + ["--pairs", "2", "--claim"]) == 0
    _fake_suite(monkeypatch, {"parent": 100.0, "change": 90.0})
    assert paired.main(argv + ["--pairs", "1"]) == 0
    assert paired.main(argv + ["--trace", "1"]) == 0

    document = json.loads(out.read_text())
    assert "environment" not in document and document["reruns"] == {"note": "hand-written"}
    first, second, third = document["workloads"]["sq_primary"]
    assert first == {**older, "claim": None, "environment": {"parent": "p0", "change": "c0"}}
    assert second["claim"] and second["pairs"] == 2
    assert second["environment"]["change"] == "after-150.0"
    assert second["metrics"]["ops_per_s"]["change"]["median"] == 150.0
    assert not third["claim"] and third["environment"]["change"] == "after-90.0"
    assert third["metrics"]["ops_per_s"]["within_bound"]  # -10 % of a 25 % bound
    traced = document["traced"]["sq_primary"]
    assert [entry["seed"] for entry in traced] == [47, 5]
    assert traced[0]["environment"] == {"parent": "p0", "change": "c0"}


@pytest.mark.skipif(
    not paired.in_work_tree(), reason="the copy is what git lists: needs a git work tree"
)
def test_the_change_side_runs_from_a_copy_of_the_working_tree(tmp_path):
    """Tracked and untracked files are copied, ignored ones are not."""
    paired.copy_working_tree(str(tmp_path))
    assert (tmp_path / "BENCHMARK.json").read_bytes() == open(
        os.path.join(paired.ROOT, "BENCHMARK.json"), "rb"
    ).read()
    assert (tmp_path / "benchmarks" / "suite" / "run.py").is_file()
    assert not any(tmp_path.rglob("__pycache__"))
    assert not (tmp_path / ".git").exists()


def test_outside_a_work_tree_the_commits_read_unknown(monkeypatch):
    """A ``git archive`` copy has no commits: the stamp says so, no git call
    fails."""
    monkeypatch.setattr(paired, "in_work_tree", lambda: False)
    stamp = paired.environment_stamp(parent="HEAD~1")
    assert stamp["parent"] == stamp["change"] == "unknown"
    assert stamp["cores"] >= 1
