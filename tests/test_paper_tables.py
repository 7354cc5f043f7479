"""The paper's orderings, on ``benchmarks/paper_tables.py``'s own rows.

``main`` runs in process at ``scale=0.1`` into a temporary evidence file.
Only deterministic quantities are asserted — counts, list entries fetched,
charged bytes — never a timing or a timing verdict: at this scale on a
shared box a millisecond is noise.  The known timing misses (MR1 and MR3
under VPt, Ds against D) are ``verdict: "miss"`` rows of the committed
``BENCH_paper_tables.json``.
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

import paper_tables  # noqa: E402
from repro.workloads.datasets import DATASETS  # noqa: E402

SQ = [f"SQ{i}" for i in range(1, 14)]
MF = ["MF1", "MF2", "MF3", "MF4", "MF5"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("paper_tables") / "BENCH_paper_tables.json")
    return out, paper_tables.main(scale=0.1, out=out)


def _by(table, key):
    """``{config: {query: row[key]}}`` of one query table."""
    cells = {}
    for row in table["rows"]:
        cells.setdefault(row["config"], {})[row["query"]] = row[key]
    return cells


def _memory_ratio(table, config):
    (row,) = [row for row in table["configs"] if row["config"] == config]
    return row["memory_ratio_over_d"]


def test_every_configuration_counts_what_d_counts(run):
    _, tables = run
    for name in ("II", "III", "IV", "V-lj", "V-brk"):
        counts = _by(tables[name], "count")
        for config, by_query in counts.items():
            assert by_query == counts["D"], (name, config)


def test_ds_and_dp_fetch_fewer_entries_than_d_on_every_sq(run):
    _, tables = run
    entries = _by(tables["II"], "list_entries_fetched")
    for query in SQ:
        assert entries["Ds"][query] < entries["D"][query], query
        assert entries["Dp"][query] < entries["D"][query], query


def test_vpt_fetches_fewer_entries_than_d_on_every_mr(run):
    _, tables = run
    entries = _by(tables["III"], "list_entries_fetched")
    for query in ("MR1", "MR2", "MR3"):
        assert entries["D+VPt"][query] < entries["D"][query], query


def test_each_fraud_index_fetches_no_more_than_the_configuration_before(run):
    _, tables = run
    entries = _by(tables["IV"], "list_entries_fetched")
    for query in MF:
        assert entries["D+VPc+EPc"][query] <= entries["D+VPc"][query] <= entries["D"][query]
    for query in ("MF1", "MF3", "MF4", "MF5"):
        assert entries["D+VPc+EPc"][query] < entries["D"][query], query


def test_charged_memory(run):
    _, tables = run
    assert _memory_ratio(tables["II"], "Ds") == 1.0
    assert _memory_ratio(tables["III"], "D+VPt") <= 1.1


def test_offset_lists_beat_id_lists(run):
    _, tables = run
    for row in tables["III-B3-offsets"]["rows"]:
        assert row["id_list_bytes_per_edge"] == 12
        assert row["offset_bytes_per_edge"] < 12


def test_bitmap_bytes_stay_flat_while_offset_bytes_fall(run):
    _, tables = run
    rows = tables["III-B3-bitmap"]["rows"]
    assert len({row["bitmap_bytes"] for row in rows}) == 1
    offsets = [row["offset_bytes"] for row in rows]
    assert offsets == sorted(offsets, reverse=True) and offsets[0] > offsets[-1]


def test_rows_carry_ratios_and_verdicts(run):
    _, tables = run
    for name in ("II", "III", "IV", "V-lj", "V-brk"):
        for row in tables[name]["rows"]:
            assert row["ms"] > 0 and row["ratio_over_d"] > 0
            assert row["verdict"] in ("baseline", "match", "miss", "n/a")
    maintained = [row["config"] for row in tables["V-F-brk"]["rows"]]
    assert maintained == [config.name for config in paper_tables.MAINTENANCE_CONFIGS]


def test_table1_has_one_row_per_dataset(run):
    _, tables = run
    rows = tables["I"]["rows"]
    assert [row["name"] for row in rows] == list(DATASETS)
    for row in rows:
        assert row["vertices"] > 0 and row["edges"] > 0


def test_paper_figures_name_measured_rows(run):
    _, tables = run
    for table in paper_tables.QUERY_TABLES:
        measured = {(row["config"], row["query"]) for row in tables[table.name]["rows"]}
        names = [config.name for config in table.configs]
        assert set(table.paper_memory) <= set(names), table.name
        for config, by_query in table.paper.items():
            assert {(config, query) for query in by_query} <= measured, table.name


def test_secondary_indexes_charge_their_edges(run):
    _, tables = run
    edges = {
        name: {row["config"]: row["indexed_edges"] for row in tables[name]["configs"]}
        for name in ("III", "IV")
    }
    # VPt is global and forward only; VPc is global in both directions.
    assert edges["III"]["D+VPt"] == 2 * edges["III"]["D"]
    assert edges["IV"]["D+VPc"] == 3 * edges["IV"]["D"]
    assert edges["IV"]["D+VPc+EPc"] > edges["IV"]["D+VPc"]


def test_every_maintenance_configuration_inserts_every_edge(run):
    _, tables = run
    for dataset in paper_tables.PAPER_RATES:
        rows = tables[f"V-F-{dataset}"]["rows"]
        inserted = {row["inserted_edges"] for row in rows}
        assert len(inserted) == 1 and 0 < inserted.pop() <= paper_tables.INSERT_BUDGET


def test_offset_lists_cost_less_overhead_than_id_lists(run):
    _, tables = run
    for row in tables["III-B3-offsets"]["rows"]:
        assert 1 < row["overhead_offsets"] < row["overhead_id_lists"], row["index"]


def test_a_bitmap_scan_tests_every_edge_while_an_offset_scan_shrinks(run):
    _, tables = run
    rows = tables["III-B3-bitmap"]["rows"]
    assert len({row["bitmap_bit_tests_per_scan"] for row in rows}) == 1
    entries = [row["offset_entries_per_scan"] for row in rows]
    assert entries == [row["indexed_edges"] for row in rows]
    assert entries == sorted(entries, reverse=True) and entries[0] > entries[-1]


def test_a_second_run_appends_and_replaces_nothing(run):
    out, _ = run
    with open(out) as handle:
        first = json.load(handle)
    paper_tables.main(scale=0.1, out=out)
    with open(out) as handle:
        second = json.load(handle)
    assert set(second["tables"]) == set(first["tables"])
    for name, entries in first["tables"].items():
        assert len(entries) == 1
        assert second["tables"][name][:1] == entries
        assert len(second["tables"][name]) == 2
        assert "environment" in second["tables"][name][1]
