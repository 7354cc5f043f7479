"""Paired parent/change runs of the benchmark suite, by the sandbox protocol.

A timing on this box drifts 10-25% over minutes, so a single before/after
reading proves nothing.  This script measures a change the way the
``choosing-metrics`` guide asks: ``--pairs`` pairs of (parent, change) runs
of one workload, alternating which side runs first, each side running **its
own** ``benchmarks/suite/run.py`` (the parent's files are extracted from
``--parent`` with ``git archive`` into a temporary directory, and the
change's — the working tree this script sits in, tracked and untracked
files that git does not ignore — are copied into another, so both sides run
from a fresh copy of their files in the same place).  For every end-to-end metric it
reports both sides' runs, medians and quartiles, and how many pairs the
change won; a gain is *shown* only when the change wins at least nine tenths
of the pairs (ties count for neither side) and the medians differ by more
than the distance between the parent's quartiles::

    python3 benchmarks/paired.py --parent HEAD~1 --workload sq_primary --pairs 10 --seed 47
    python3 benchmarks/paired.py --parent HEAD~1 --workload sq_primary --trace 1 --seed 47

``--trace 1`` runs one traced pass per side instead and records the
per-layer metrics (counts must repeat exactly between the sides when the
change did not touch them; times account for where a saving sits).

``--out`` (``BENCH_suite.json`` at the repository root) is append-only: under
``workloads`` / ``traced``, every workload holds a *list* of entries, oldest
first, and a run adds one — carrying its own environment stamp (cores,
versions, parent and change commits) and ``claim`` flag (``--claim``: this is
the evidence a pull request's claimed gain rests on) — and never replaces or
drops one, so the file accumulates the evidence of every pull request.  A
document in the older shape (one entry per workload, one document-wide
``environment``) is read as one-entry lists stamped with that environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "suite", "run.py")
#: Share of the pairs the change must win before a gain counts as shown.
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(revision: str, target: str) -> None:
    """The committed files of ``revision``, unpacked under ``target``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"paired.py: git archive {revision} failed")


def copy_working_tree(target: str) -> None:
    """The working tree's files as git lists them — tracked and untracked,
    ignored ones left out — copied under ``target``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(filter(None, listed.split("\0")))):
        source = os.path.join(ROOT, name)
        if not os.path.isfile(source):  # deleted from the working tree
            continue
        os.makedirs(os.path.dirname(os.path.join(target, name)), exist_ok=True)
        shutil.copy2(source, os.path.join(target, name))


def run_side(root: str, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One driver-form run of ``root``'s own suite; its result object."""
    command = [
        sys.executable, os.path.join(root, RUNNER),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summarize(runs: List[float]) -> Dict[str, object]:
    """Runs, median and quartiles (inclusive method; one run is its own)."""
    if len(runs) < 2:
        q1 = q3 = runs[0]
    else:
        q1, _median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def compare_metric(
    parent: List[float], change: List[float], better: str, bound: float
) -> Dict[str, object]:
    """Both sides' summaries, per-pair wins and the two verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    before, after = summarize(parent), summarize(change)
    gain = sign * (after["median"] - before["median"])
    return {
        "better": better,
        "parent": before,
        "change": after,
        "change_wins": wins,
        "parent_wins": losses,
        "median_ratio": after["median"] / before["median"] if before["median"] else None,
        "gain_shown": bool(
            len(parent) >= 10
            and wins >= WIN_SHARE * len(parent)
            and gain > before["q3"] - before["q1"]
        ),
        # No regression: the change's median is no worse than the parent's
        # by more than the bound the benchmark fixed for this metric.
        "within_bound": bool(gain >= -bound * abs(before["median"])),
    }


def environment_stamp(parent: Optional[str] = None) -> Dict[str, object]:
    """Cores, versions and commits; ``parent`` only for a paired run."""
    import numpy

    stamp: Dict[str, object] = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    if parent is not None:
        stamp["parent"] = git("rev-parse", parent)
    stamp["change"] = git("rev-parse", "HEAD") + (
        "+uncommitted" if git("status", "--porcelain") else ""
    )
    return stamp


def load_document(path: str) -> Dict[str, object]:
    """The evidence file, with every workload's section a list of entries."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        document = json.load(handle)
    # The older shape: one entry per workload under one shared stamp.
    shared_stamp = document.pop("environment", None)
    for kind in ("workloads", "traced"):
        section = document.get(kind, {})
        for workload, entries in section.items():
            if isinstance(entries, dict):
                section[workload] = [
                    {**entries, "claim": None, "environment": shared_stamp}
                ]
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision the change is measured against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--claim", action="store_true", help="mark the entry as the evidence of the claimed gain"
    )
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_suite.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    seconds = float(manifest["run_seconds"]) if args.seconds is None else args.seconds
    pairs = 1 if args.trace else args.pairs

    results: Dict[str, List[Dict]] = {"parent": [], "change": []}
    order: List[str] = []
    with tempfile.TemporaryDirectory(prefix="paired-parent-") as parent_root, \
            tempfile.TemporaryDirectory(prefix="paired-change-") as change_root:
        extract(args.parent, parent_root)
        copy_working_tree(change_root)
        roots = {"parent": parent_root, "change": change_root}
        for pair in range(pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            for side in sides:
                result = run_side(roots[side], args.workload, args.seed, seconds, args.trace)
                results[side].append(result)
                print(f"pair {pair + 1}/{pairs} {side:<6} failed={result['failed']}", flush=True)

    entry: Dict[str, object] = {
        "seed": args.seed,
        "seconds": seconds,
        "failed": {
            side: sum(run["failed"] for run in runs) for side, runs in results.items()
        },
        "attempted": {
            side: sum(run["attempted"] for run in runs) for side, runs in results.items()
        },
    }
    if args.trace:
        entry["metrics"] = {
            name: {side: results[side][0]["metrics"][name]["value"] for side in results}
            for name in results["change"][0]["metrics"]
        }
    else:
        entry["pairs"] = pairs
        entry["first_side"] = order
        entry["metrics"] = {
            metric["name"]: compare_metric(
                [run["metrics"][metric["name"]]["value"] for run in results["parent"]],
                [run["metrics"][metric["name"]]["value"] for run in results["change"]],
                metric["better"],
                metric["bound"],
            )
            for metric in manifest["end_to_end"]
        }
        for name, row in entry["metrics"].items():
            print(
                f"  {name:<22} parent {row['parent']['median']:>10.4g} "
                f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}]  "
                f"change {row['change']['median']:>10.4g}  "
                f"wins {row['change_wins']}/{pairs}  "
                f"gain_shown={row['gain_shown']} within_bound={row['within_bound']}"
            )

    entry["claim"] = bool(args.claim)
    entry["environment"] = environment_stamp(args.parent)
    document = load_document(args.out)
    document["protocol"] = (
        "pairs of (parent, change) driver-form runs, alternating which side runs "
        "first, each side on its own benchmarks/suite; gain_shown = change wins "
        ">= 9/10 of >= 10 pairs and medians differ by more than the parent's "
        "inter-quartile distance; within_bound = change median no worse than "
        "the parent's by more than BENCHMARK.json's bound; entries are "
        "append-only, each stamped with its own environment and commits"
    )
    section = document.setdefault("traced" if args.trace else "workloads", {})
    section.setdefault(args.workload, []).append(entry)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 1 if any(entry["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
