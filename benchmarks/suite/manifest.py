"""Metric declarations and the ``BENCHMARK.json`` self-check.

The declarations here are the single source of the metric names: the run
emits exactly these, and ``BENCHMARK.json`` must equal :func:`build_manifest`.
:func:`check_manifest` additionally verifies the file against the limits of
the driver's contract, so a malformed manifest is refused here first.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Tuple

#: Seconds one driver run measures (``--seconds``).
RUN_SECONDS = 15

#: The driver appends ``--workload --seed --seconds --trace``.
COMMAND = ["python3", "benchmarks/suite/run.py"]
PATHS = ["benchmarks/suite"]

#: (name, unit, better, bound).  ``failed_share`` is deliberately absent: it
#: is 0 at every healthy commit, a relative bound cannot guard a zero, and the
#: result line's ``failed``/``attempted``/``correct`` carry it instead.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("index_bytes_per_edge", "B/edge", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.20),
]

_LOWER, _HIGHER = "lower", "higher"


def _layer(prefix: str, *specs: Tuple[str, str]) -> List[Tuple[str, str, str]]:
    """``(name, better)`` pairs to ``(prefix.name, unit, better)`` triples."""
    rows = []
    for name, better in specs:
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith(("_ratio", "_share")):
            unit = "ratio"
        elif name.startswith("bytes_") or name.endswith("_bytes"):
            unit = "B"
        else:
            unit = "count"
        rows.append((f"{prefix}.{name}", unit, better))
    return rows


#: (name, unit, better), grouped by the layer (module) that does the work.
PER_LAYER: List[Tuple[str, str, str]] = (
    _layer(
        "storage",
        ("gather_s", _LOWER), ("gather_calls", _LOWER), ("gather_entries", _LOWER),
        ("intersect_s", _LOWER), ("intersect_calls", _LOWER), ("intersect_entries", _LOWER),
        ("intersect_merge_calls", _LOWER), ("intersect_gallop_calls", _LOWER),
        ("intersect_hash_calls", _LOWER),
        ("offset_resolve_s", _LOWER), ("offset_resolve_calls", _LOWER),
        ("offset_resolve_entries", _LOWER),
        ("merge_runs_s", _LOWER),
    )
    + _layer(
        "index",
        ("primary_list_many_s", _LOWER), ("primary_list_many_calls", _LOWER),
        ("secondary_list_many_s", _LOWER), ("secondary_list_many_calls", _LOWER),
        ("ddl_s", _LOWER),
        ("insert_edges_s", _LOWER), ("delete_edges_s", _LOWER), ("flush_s", _LOWER),
        ("flush_calls", _LOWER), ("flush_edges", _HIGHER), ("ep_probes", _LOWER),
        ("bytes_primary", _LOWER), ("bytes_secondary", _LOWER),
        ("tuned_vs_primary_bytes_ratio", _LOWER), ("tuned_vs_primary_time_ratio", _HIGHER),
    )
    + _layer("graph", ("build_s", _LOWER))
    + _layer(
        "query",
        ("plan_s", _LOWER), ("plan_calls", _LOWER), ("fingerprint_s", _LOWER),
        ("plan_cache_hits", _HIGHER), ("plan_cache_misses", _LOWER),
        ("pipeline_build_s", _LOWER),
        ("scan_s", _LOWER), ("extend_s", _LOWER), ("multi_extend_s", _LOWER),
        ("filter_s", _LOWER),
        ("lists_accessed", _LOWER), ("list_entries_fetched", _LOWER),
        ("intermediate_rows", _LOWER), ("output_rows", _HIGHER),
        ("predicate_evaluations", _LOWER), ("combos_avoided", _HIGHER),
        ("morsels_dispatched", _LOWER),
        ("backend_open_s", _LOWER), ("backend_submit_s", _LOWER),
        ("backend_result_wait_s", _LOWER), ("backend_close_s", _LOWER),
        ("decode_s", _LOWER), ("checksum_s", _LOWER), ("reply_bytes", _LOWER),
        ("retries", _LOWER),
    )
    + _layer(
        "server",
        ("submit_s", _LOWER), ("lease_s", _LOWER), ("execute_s", _LOWER), ("wait_s", _LOWER),
        ("rejected", _LOWER), ("shed", _LOWER), ("failed", _LOWER),
        ("pools_created", _LOWER), ("pools_reused", _HIGHER),
        ("payload_ships", _LOWER), ("payload_reuses", _HIGHER),
    )
    + _layer(
        "bench",
        ("trace_overhead_share", _LOWER), ("attributed_share", _HIGHER),
        ("unattributed_s", _LOWER),
    )
)

#: Per-layer counts that depend on thread interleaving, per workload; every
#: other count must repeat exactly between two runs with equal arguments.
INTERLEAVING_COUNTS: Dict[str, Tuple[str, ...]] = {
    "server_zipf": ("server.pools_created", "server.pools_reused"),
    # Which pool worker first sees a plan decides whether its payload is
    # re-shipped; the two workers race for morsels.
    "scan_process": ("server.payload_ships",),
}


def is_count(name: str) -> bool:
    """True for per-layer metrics that are exact counts (unit ``count``/``B``)."""
    return not name.endswith(("_s", "_ratio", "_share"))


def build_manifest(workloads: Dict[str, str]) -> Dict[str, object]:
    """The manifest the code declares; ``workloads`` maps name to why."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def contract_violations(manifest: object, size: int, root: str) -> List[str]:
    """Every way ``manifest`` breaks the driver's written contract."""
    if not isinstance(manifest, dict):
        return ["the manifest is not a JSON object"]
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(manifest) != keys:
        return [f"top-level keys {sorted(manifest)} != {sorted(keys)}"]
    if size > 64 * 1024:
        problems.append(f"file is {size} bytes, over 64 KiB")

    paths = manifest["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
        paths = []
    for path in paths:
        if not (isinstance(path, str) and _PATH.match(path)) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"bad path {path!r}")
        elif not os.path.isdir(os.path.join(root, path)):
            problems.append(f"path {path!r} is not a directory")

    command = manifest["command"]
    if not (
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(isinstance(part, str) and len(part) <= 200 for part in command)
    ):
        problems.append("command must be 1 to 32 strings of at most 200 characters")
        command = []
    for part in command[1:]:
        if part.startswith("/") or ".." in part.split("/"):
            problems.append(f"command part {part!r} leaves the checkout")
        elif os.path.exists(os.path.join(root, part)) and not any(
            part == path or part.startswith(path + "/") for path in paths
        ):
            problems.append(f"command names {part!r}, which is outside paths")

    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: List[str] = []

    def entries(key: str, low: int, high: int, fields: set) -> List[dict]:
        rows = manifest[key]
        if not (isinstance(rows, list) and low <= len(rows) <= high):
            problems.append(f"{key} must hold {low} to {high} entries")
            return []
        good = []
        for row in rows:
            if not (isinstance(row, dict) and set(row) == fields):
                problems.append(f"{key} entry {row!r} must have exactly the keys {sorted(fields)}")
                continue
            if not (isinstance(row["name"], str) and _NAME.match(row["name"])):
                problems.append(f"bad name {row['name']!r} in {key}")
            names.append(row["name"])
            good.append(row)
        return good

    for row in entries("workloads", 2, 8, {"name", "why"}):
        why = row["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            problems.append(f"why of {row['name']!r} must be one line of at most 200 characters")
    end_to_end = entries("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    per_layer = entries("per_layer", 1, 128, {"name", "unit", "better"})
    for row in end_to_end + per_layer:
        if not (isinstance(row["unit"], str) and _UNIT.match(row["unit"])):
            problems.append(f"bad unit {row['unit']!r} of {row['name']!r}")
        if row["better"] not in ("lower", "higher"):
            problems.append(f"better of {row['name']!r} must be 'lower' or 'higher'")
    for row in end_to_end:
        bound = row["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool) and 0 < bound <= 0.25):
            problems.append(f"bound of {row['name']!r} must be in (0, 0.25]")
    setup = [row for row in end_to_end if row["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s with unit 's' and better 'lower'")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")

    runs = 4 + 22 * len(manifest["workloads"]) if isinstance(manifest["workloads"], list) else 0
    if runs and isinstance(seconds, int) and runs * seconds >= 3420:
        problems.append(f"{runs} runs of {seconds} s cannot end within 3420 s")
    return problems


def check_manifest(root: str, workloads: Dict[str, str]) -> List[str]:
    """Problems with ``root/BENCHMARK.json``; empty when it is acceptable."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        manifest = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    problems = contract_violations(manifest, len(raw), root)
    if not problems and manifest != build_manifest(workloads):
        problems.append(
            "BENCHMARK.json differs from the metrics and workloads the suite declares "
            "(benchmarks/suite/manifest.py, workloads.py)"
        )
    return problems
