"""Benchmark suite entry point.

Driver form (one workload, one pass, in this interpreter)::

    python3 benchmarks/suite/run.py --workload sq_primary --seed 12 --seconds 15 --trace 0

prints the measurements and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite form (no ``--workload``): checks ``BENCHMARK.json``, then runs every
workload in a fresh interpreter, untraced pass then traced pass, prints every
metric by name with its unit and sample count, and writes
``benchmarks/suite/out/result.json``.  ``--check-manifest`` stops after the
check; ``--repeat N --compare`` runs the suite N times and fails unless the
runs agree.

Everything below the imports stays under ``if __name__ == "__main__"``: the
process backend falls back to ``forkserver`` when the parent has threads, and
forkserver workers re-import this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"run.py: the engine's sources are not at {os.path.join(ROOT, 'src', 'repro')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from manifest import (  # noqa: E402
    END_TO_END,
    INTERLEAVING_COUNTS,
    PER_LAYER,
    RUN_SECONDS,
    check_manifest,
    is_count,
)
from measure import MIN_OPS, end_to_end_metrics, layer_metrics, run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.bench.harness import available_cpus  # noqa: E402

#: Environment variables that would change what the engine runs.
ENGINE_ENVIRONMENT = (
    "REPRO_PARALLELISM",
    "REPRO_BACKEND",
    "REPRO_FAULTS",
    "REPRO_MORSEL_TIMEOUT",
    "BENCH_SCALE",
)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
DEFAULT_SEED = 12
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def measure_untraced(workload, setup_seconds: List[float], seconds: float):
    """The time-boxed pass behind the end-to-end metrics."""
    measured = run_pass(workload, workload.warm_up_rounds, seconds=seconds, min_ops=MIN_OPS)
    print(f"{workload.name}: {measured.attempted} ops in the measured phase")
    for label, samples in sorted(measured.by_label().items()):
        print(f"  class {label:<12} n={len(samples):<5} median {statistics.median(samples):10.3f} ms")
    metrics = end_to_end_metrics(workload, setup_seconds, measured)
    return metrics, measured.attempted, measured.failed, measured.messages


def measure_traced(workload, seconds: float, out_dir: str):
    """Equal fixed rounds untraced, then traced, behind the per-layer metrics."""
    first_round = workload.warm_up_rounds
    rounds = workload.trace_rounds(seconds)
    untraced = run_pass(workload, first_round, rounds=rounds)
    primary_only_round_s = None
    ops = workload.primary_only_round()
    if ops:
        for timed in (False, True):  # the first round fills the plan cache
            started = time.perf_counter()
            answers = [op.ok(op.run()) for op in ops]
            if timed:
                primary_only_round_s = time.perf_counter() - started
        untraced.attempted += len(ops)
        untraced.failed += answers.count(False)
    tracer = Tracer()
    before = workload.counters()
    tracer.install()
    try:
        traced = run_pass(workload, first_round + rounds, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        workload, tracer, traced, untraced, before, workload.counters(), primary_only_round_s
    )
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{workload.name}.json"))
    print(f"{workload.name}: {traced.attempted} ops, {len(tracer.spans)} spans in the traced pass")
    return (
        metrics,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.messages + traced.messages,
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: str = OUT
) -> Dict[str, object]:
    """Set up, measure and verify one workload; returns the result object."""
    setup_seconds: List[float] = []
    workload = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()  # keep the previous set-up's garbage out of peak RSS
        workload = WORKLOADS[name](seed, scale)
        started = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - started)
    workload.prepare()
    gc.collect()
    if trace:
        metrics, attempted, failed, messages = measure_traced(workload, seconds, out_dir)
    else:
        metrics, attempted, failed, messages = measure_untraced(workload, setup_seconds, seconds)
    end_failures = workload.finish()
    for message in messages + end_failures:
        print(f"FAILED: {message}")
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:>16.6g} {UNITS[metric]}")
    failed += len(end_failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": UNITS[metric]} for metric, value in metrics.items()
        },
    }


def stop_helper_processes() -> None:
    """Stop multiprocessing's forkserver and resource tracker and wait.

    Both are started on demand by the process backend and would otherwise
    outlive this interpreter by a moment.  The ``_stop`` hooks are what
    ``multiprocessing`` itself calls at shutdown.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def environment_stamp(seed: int, seconds: float, scale: str) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
    }


def run_suite(seed: int, seconds: float, scale: str) -> Dict[str, object]:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    environment = {k: v for k, v in os.environ.items() if k not in ENGINE_ENVIRONMENT}
    stamp = environment_stamp(seed, seconds, scale)
    print("environment: " + ", ".join(f"{key}={value}" for key, value in stamp.items()))
    workloads: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        entry: Dict[str, object] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--scale", scale,
            ]
            done = subprocess.run(command, env=environment, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
            print("\n".join(lines[:-1]))
            entry["traced" if trace else "untraced"] = json.loads(lines[-1])
        attempted = sum(entry[key]["attempted"] for key in entry)
        failed = sum(entry[key]["failed"] for key in entry)
        entry["failed_share"] = failed / attempted
        print(f"  {'failed_share':<36} {entry['failed_share']:>16.6g} ratio ({failed} of {attempted} ops)")
        workloads[name] = entry
    return {"environment": stamp, "workloads": workloads, "claim": None}


def undeclared_or_missing(summary: Dict[str, object]) -> List[str]:
    """Metrics a run emitted without declaration, or declared and not emitted."""
    problems = []
    declared = {
        "untraced": {name for name, *_ in END_TO_END},
        "traced": {name for name, *_ in PER_LAYER},
    }
    for workload, entry in summary["workloads"].items():
        for kind, names in declared.items():
            emitted = set(entry[kind]["metrics"])
            if emitted != names:
                problems.append(
                    f"{workload} ({kind}): undeclared {sorted(emitted - names)}, "
                    f"missing {sorted(names - emitted)}"
                )
    return problems


def compare(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Disagreements between two runs of the suite on the same code."""
    problems = []
    for workload in WORKLOADS:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        for name, _unit, _better, bound in END_TO_END:
            x = a["untraced"]["metrics"][name]["value"]
            y = b["untraced"]["metrics"][name]["value"]
            spread = abs(x - y) / x
            print(f"  {workload:<16} {name:<22} {x:>12.5g} {y:>12.5g}  spread {spread:.2%} (bound {bound:.0%})")
            if spread > bound:
                problems.append(f"{name} on {workload}: {x} vs {y} differ by more than {bound:.0%}")
        for name, _unit, _better in PER_LAYER:
            if not is_count(name) or name in INTERLEAVING_COUNTS.get(workload, ()):
                continue
            x = a["traced"]["metrics"][name]["value"]
            y = b["traced"]["metrics"][name]["value"]
            if x != y:
                problems.append(f"count {name} on {workload}: {x} != {y}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--check-manifest", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)
    for variable in ENGINE_ENVIRONMENT:
        os.environ.pop(variable, None)

    if args.workload:
        try:
            result = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.scale
            )
        finally:
            stop_helper_processes()
        print(json.dumps(result))
        return 0

    whys = {name: cls.why for name, cls in WORKLOADS.items()}
    problems = check_manifest(ROOT, whys)
    for problem in problems:
        print(f"BENCHMARK.json: {problem}")
    if problems or args.check_manifest:
        print("BENCHMARK.json: " + ("refused" if problems else "ok"))
        return 1 if problems else 0

    summaries = [run_suite(args.seed, args.seconds, args.scale) for _ in range(args.repeat)]
    problems = undeclared_or_missing(summaries[-1])
    if args.compare:
        for earlier, later in zip(summaries, summaries[1:]):
            problems += compare(earlier, later)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result.json"), "w") as handle:
        json.dump(summaries[-1], handle, indent=1)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    failed = any(e["failed_share"] for s in summaries for e in s["workloads"].values())
    print(json.dumps({"workloads": len(WORKLOADS), "problems": len(problems), "claim": None}))
    return 1 if problems or failed else 0


if __name__ == "__main__":
    sys.exit(main())
