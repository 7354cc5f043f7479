"""Ablation of the segment-intersection kernel's membership strategies.

The kernel (:func:`repro.storage.intersect.intersect_segments`) picks one of
three membership tests per leg — linear ``merge``, per-candidate ``gallop``,
or a boolean-table ``hash`` probe — using two first-principles thresholds
(``GALLOP_RATIO`` and ``HASH_TABLE_DENSITY``).  This benchmark sweeps the two
dimensions those thresholds gate on, using the kernel's own ``strategy=``
override to force each strategy on identical inputs:

* **size skew** — the ratio of second-leg entries to first-leg candidates
  (``GALLOP_RATIO`` decides when per-candidate binary search beats touching
  every entry);
* **key density** — the average gap between consecutive keys inside a
  segment (``HASH_TABLE_DENSITY`` decides when the table span is dense
  enough for the O(span) boolean probe).

For every case the adaptive chooser's pick is compared with the fastest
forced strategy; the summary reports the agreement rate and per-dimension
winners so the thresholds can be tuned from data rather than argument.

The count-only kernel (:func:`~repro.storage.intersect.count_shared_intersections`)
reads the same ``HASH_TABLE_DENSITY`` through the same chooser, with different
routes behind it — a per-(list, key) run table against a membership bitmap,
one bit per cell while that fits 8 bytes per probe and one bit per bucket of
cells past it, whose set bits a binary search confirms.  Every case above is
therefore also timed through that kernel per route (``count_seconds``), and
a second sweep holds lists, entries and probes fixed and widens the key
domain so that ``lists * domain / (probes + entries)`` — the quantity the
constant bounds — runs from 1 to 1024 (``count_density_sweep``), recording
each route's traced peak bytes beside its time (``count_peak_bytes``).  The
``exact_bitmap`` route holds the bitmap at one bit per cell at every span;
it is what the bucketing saves.

Usage::

    PYTHONPATH=src python benchmarks/bench_intersect_ablation.py [--output PATH]

Writes ``BENCH_intersect_ablation.json`` to the repository root by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from common import print_header  # noqa: E402
from paired import environment_stamp  # noqa: E402

from repro.storage import intersect  # noqa: E402
from repro.storage.intersect import (  # noqa: E402
    count_shared_intersections,
    intersect_segments,
)

#: Batch rows per case (the kernel always works batch-at-a-time).
NUM_ROWS = 64
#: First-leg (candidate side) segment sizes.
CANDIDATE_SIZES = (8, 64)
#: Second-leg-entries to first-leg-candidates ratios (the gallop dimension).
SIZE_RATIOS = (1, 4, 16, 64, 256)
#: Average key gap inside a segment (the hash-density dimension; gap 1 means
#: consecutive keys, i.e. maximally dense).
KEY_GAPS = (1, 8, 64)
#: Timed repetitions per (case, strategy); best-of is reported.
REPETITIONS = 3

STRATEGIES = ("merge", "gallop", "hash")
#: Routes of the count-only kernel: the strategy name that forces each, and
#: whether its bitmap is held at one bit per cell whatever its budget.
COUNT_ROUTES = {
    "table": ("hash", False),
    "bitmap": ("merge", False),
    "exact_bitmap": ("merge", True),
    "adaptive": (None, False),
}
#: ``lists * domain / (probes + entries)`` of the count-table density sweep.
SPAN_RATIOS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
#: Shape of the density sweep: distinct lists per leg, entries per list and
#: the rows that read them (every list is read by several rows).
SWEEP_LISTS, SWEEP_LIST_SIZE, SWEEP_ROWS = 128, 64, 1024

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_intersect_ablation.json",
)


def _make_leg(rng, num_rows: int, seg_size: int, gap: int):
    """Sorted, unique per-row segments with a controlled key density."""
    gaps = rng.integers(1, 2 * gap + 1, size=(num_rows, seg_size))
    keys = np.cumsum(gaps, axis=1).ravel()
    counts = np.full(num_rows, seg_size, dtype=np.int64)
    return keys.astype(np.int64), counts


def _best_of(call) -> float:
    """Best-of-``REPETITIONS`` seconds of one call."""
    best = float("inf")
    for _ in range(max(REPETITIONS, 1)):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def _time_strategy(legs, counts, strategy) -> float:
    return _best_of(
        lambda: intersect_segments(
            legs,
            counts,
            NUM_ROWS,
            presorted=[True] * len(legs),
            need_positions=True,
            strategy=strategy,
        )
    )


@contextmanager
def _bitmap_held_exact(exact: bool) -> Iterator[None]:
    """Run with the kernel's bitmap at one bit per cell, when ``exact``."""
    sized = intersect._bitmap_shift
    if exact:
        intersect._bitmap_shift = lambda span, num_probes: 0
    try:
        yield
    finally:
        intersect._bitmap_shift = sized


def _count_call(list_keys, list_counts, row_lists, domain, strategy):
    return lambda: count_shared_intersections(
        list_keys,
        list_counts,
        row_lists,
        [True] * len(list_keys),
        domain,
        strategy=strategy,
    )


def _time_count(list_keys, list_counts, row_lists, domain) -> Dict[str, float]:
    """Best-of seconds of the count-only kernel per forced route."""
    seconds = {}
    for route, (strategy, exact) in COUNT_ROUTES.items():
        with _bitmap_held_exact(exact):
            seconds[route] = _best_of(
                _count_call(list_keys, list_counts, row_lists, domain, strategy)
            )
    return seconds


def _count_peaks(list_keys, list_counts, row_lists, domain) -> Dict[str, int]:
    """Traced peak bytes of one count-only kernel call per forced route."""
    peaks = {}
    for route, (strategy, exact) in COUNT_ROUTES.items():
        call = _count_call(list_keys, list_counts, row_lists, domain, strategy)
        with _bitmap_held_exact(exact):
            tracemalloc.start()
            try:
                call()
                peaks[route] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return peaks


def run_count_density_sweep(rng) -> List[Dict]:
    """Table against search as the lists' key domain widens."""
    cases = []
    entries = SWEEP_LISTS * SWEEP_LIST_SIZE
    # Both legs are equally long, so every row expands SWEEP_LIST_SIZE probes.
    data = SWEEP_ROWS * SWEEP_LIST_SIZE + 2 * entries
    for ratio in SPAN_RATIOS:
        domain = max(ratio * data // (2 * SWEEP_LISTS), SWEEP_LIST_SIZE)
        list_keys = [
            np.sort(rng.integers(0, domain, (SWEEP_LISTS, SWEEP_LIST_SIZE)), axis=1)
            .ravel()
            .astype(np.int64)
            for _ in range(2)
        ]
        list_counts = [np.full(SWEEP_LISTS, SWEEP_LIST_SIZE, dtype=np.int64)] * 2
        row_lists = [rng.integers(0, SWEEP_LISTS, SWEEP_ROWS) for _ in range(2)]
        cases.append(
            {
                "span_ratio": ratio,
                "domain": int(domain),
                "span": 2 * SWEEP_LISTS * int(domain),
                "lists": SWEEP_LISTS,
                "entries_per_leg": entries,
                "rows": SWEEP_ROWS,
                "count_seconds": _time_count(list_keys, list_counts, row_lists, domain),
                "count_peak_bytes": _count_peaks(
                    list_keys, list_counts, row_lists, domain
                ),
            }
        )
    return cases


def _chooser_inputs(leg0_keys, leg0_counts, leg1_keys, leg1_counts):
    """Replicate the composite-key numbers the adaptive chooser sees."""
    domain = int(max(leg0_keys.max(), leg1_keys.max())) + 1
    comp0 = (
        np.repeat(np.arange(NUM_ROWS, dtype=np.int64) * domain, leg0_counts)
        + leg0_keys
    )
    comp1 = (
        np.repeat(np.arange(NUM_ROWS, dtype=np.int64) * domain, leg1_counts)
        + leg1_keys
    )
    num_candidates = len(np.unique(comp0))
    span = int(comp1.max()) - int(comp1.min()) + 1
    return num_candidates, len(comp1), span


def run_ablation() -> Dict:
    rng = np.random.default_rng(5)
    cases: List[Dict] = []
    for cand_size in CANDIDATE_SIZES:
        for ratio in SIZE_RATIOS:
            for gap in KEY_GAPS:
                leg0_keys, leg0_counts = _make_leg(rng, NUM_ROWS, cand_size, gap)
                leg1_keys, leg1_counts = _make_leg(
                    rng, NUM_ROWS, cand_size * ratio, gap
                )
                legs = [leg0_keys, leg1_keys]
                counts = [leg0_counts, leg1_counts]
                timings = {
                    strategy: _time_strategy(legs, counts, strategy)
                    for strategy in STRATEGIES
                }
                timings["adaptive"] = _time_strategy(legs, counts, None)
                num_candidates, num_entries, span = _chooser_inputs(
                    leg0_keys, leg0_counts, leg1_keys, leg1_counts
                )
                chosen = intersect.choose_strategy(num_candidates, num_entries, span)
                # The same segments as distinct lists, one per row and leg.
                domain = int(max(leg0_keys.max(), leg1_keys.max())) + 1
                identity = np.arange(NUM_ROWS, dtype=np.int64)
                count_timings = _time_count(legs, counts, [identity, identity], domain)
                fastest = min(STRATEGIES, key=lambda s: timings[s])
                cases.append(
                    {
                        "candidate_segment": cand_size,
                        "entry_ratio": ratio,
                        "key_gap": gap,
                        "num_candidates": num_candidates,
                        "num_entries": num_entries,
                        "span": span,
                        "seconds": timings,
                        "count_seconds": count_timings,
                        # all lists of both legs x domain, over the probes
                        # (every row expands its first, shorter segment)
                        # plus the entries
                        "count_span_ratio": 2
                        * NUM_ROWS
                        * domain
                        / (2 * len(leg0_keys) + len(leg1_keys)),
                        "chosen": chosen,
                        "fastest": fastest,
                        "chooser_within_20pct": bool(
                            timings[chosen] <= 1.2 * timings[fastest]
                        ),
                    }
                )
    agreement = sum(c["chosen"] == c["fastest"] for c in cases) / len(cases)
    near_optimal = sum(c["chooser_within_20pct"] for c in cases) / len(cases)
    # Observed gallop crossover: smallest entries/candidates ratio at which
    # gallop is the fastest strategy in the sparse (merge-friendly) cases.
    gallop_wins = [
        c["num_entries"] / max(c["num_candidates"], 1)
        for c in cases
        if c["fastest"] == "gallop"
    ]
    sweep = run_count_density_sweep(rng)

    def wins_from(faster: str, slower: str, capped: bool = False) -> Optional[int]:
        """Smallest swept span ratio from which ``faster`` wins at every
        wider one (None: it does not win at the widest)."""
        since = None
        for case in reversed(sweep):
            if capped and case["span"] > intersect.HASH_SPAN_CAP:
                continue
            if case["count_seconds"][faster] >= case["count_seconds"][slower]:
                break
            since = case["span_ratio"]
        return since
    return {
        "config": {
            "num_rows": NUM_ROWS,
            "candidate_sizes": list(CANDIDATE_SIZES),
            "size_ratios": list(SIZE_RATIOS),
            "key_gaps": list(KEY_GAPS),
            "repetitions": REPETITIONS,
            "span_ratios": list(SPAN_RATIOS),
        },
        "thresholds": {
            "GALLOP_RATIO": intersect.GALLOP_RATIO,
            "HASH_TABLE_DENSITY": intersect.HASH_TABLE_DENSITY,
        },
        "summary": {
            "cases": len(cases),
            "chooser_picked_fastest": agreement,
            "chooser_within_20pct_of_fastest": near_optimal,
            "min_ratio_where_gallop_fastest": (
                min(gallop_wins) if gallop_wins else None
            ),
            # Past HASH_SPAN_CAP a forced table is the bitmap, so the
            # comparison runs over the spans a table can take.
            "count_bitmap_beats_table_from_span_ratio": wins_from(
                "bitmap", "table", capped=True
            ),
            # Below the budget both are one bit per cell: the same route.
            "coarse_bitmap_beats_exact_from_span_ratio": wins_from(
                "bitmap", "exact_bitmap"
            ),
        },
        "environment": environment_stamp("HEAD"),
        "cases": cases,
        "count_density_sweep": sweep,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="path of the JSON results file (default: repo root)",
    )
    args = parser.parse_args()

    print_header("Segment-intersection kernel ablation (merge / gallop / hash)")
    report = run_ablation()
    print(
        f"{'cand':>5} {'ratio':>6} {'gap':>4} {'merge ms':>9} {'gallop ms':>10} "
        f"{'hash ms':>8} {'chosen':>7} {'fastest':>8}"
    )
    for case in report["cases"]:
        seconds = case["seconds"]
        print(
            f"{case['candidate_segment']:>5} {case['entry_ratio']:>6} "
            f"{case['key_gap']:>4} {seconds['merge'] * 1e3:>9.3f} "
            f"{seconds['gallop'] * 1e3:>10.3f} {seconds['hash'] * 1e3:>8.3f} "
            f"{case['chosen']:>7} {case['fastest']:>8}"
        )
    print(
        f"\ncount-only kernel: {'span/data':>9} {'table ms':>9} {'bitmap ms':>10} "
        f"{'exact ms':>9} {'adaptive ms':>12} {'bitmap MB':>10} {'exact MB':>9}"
    )
    for case in report["count_density_sweep"]:
        seconds, peaks = case["count_seconds"], case["count_peak_bytes"]
        print(
            f"{'':>19}{case['span_ratio']:>9} {seconds['table'] * 1e3:>9.3f} "
            f"{seconds['bitmap'] * 1e3:>10.3f} {seconds['exact_bitmap'] * 1e3:>9.3f} "
            f"{seconds['adaptive'] * 1e3:>12.3f} {peaks['bitmap'] / 1e6:>10.2f} "
            f"{peaks['exact_bitmap'] / 1e6:>9.2f}"
        )
    summary = report["summary"]
    print(
        f"\nchooser picked the fastest strategy in "
        f"{summary['chooser_picked_fastest']:.0%} of {summary['cases']} cases "
        f"({summary['chooser_within_20pct_of_fastest']:.0%} within 20% of it)"
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"results written to {args.output}")


if __name__ == "__main__":
    main()
