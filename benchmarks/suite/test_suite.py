"""Self-tests of the benchmark suite (collected by the tier-1 pytest run).

Everything runs at ``--scale tiny``; the whole module takes a few seconds.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from manifest import END_TO_END, PER_LAYER, contract_violations  # noqa: E402
from measure import percentile  # noqa: E402
from tracer import OP_SPAN, Tracer, covered_seconds, self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Advances one second per reading, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_covered_children():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "t.leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "t.middle")
    with tracer.op(7):
        middle()
    spans = {span.name: span for span in tracer.spans}
    own = self_seconds(tracer.spans)
    # Clock readings: op 1, middle 2, leaf 3-4, leaf 5-6, middle 7, op 8.
    assert spans["t.middle"].seconds == 5.0
    assert own[spans["t.middle"].sid] == 3.0
    assert own[spans[OP_SPAN].sid] == 2.0
    assert sum(own.values()) == spans[OP_SPAN].seconds
    totals = tracer.totals()
    assert totals["t.leaf"].calls == 2 and totals["t.leaf"].self_s == 2.0
    assert tracer.uncovered_seconds() == 2.0
    assert {span.op for span in tracer.spans} == {7}


def test_overlapping_children_are_covered_once():
    assert covered_seconds([(1.0, 4.0), (2.0, 6.0), (9.0, 12.0)], 0.0, 10.0) == 6.0


def test_calls_outside_an_operation_pass_through_unrecorded():
    tracer = Tracer()
    assert tracer.wrap(lambda: 41, "t.fn")() == 41
    assert tracer.spans == []


def test_parent_ids_cross_threads_by_adoption():
    tracer = Tracer()
    handed_over = []
    worker = tracer.wrap(lambda: None, "t.worker", adopt=lambda args, kwargs: handed_over[0])
    with tracer.op(3) as root:
        handed_over.append(tracer.root())
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    spans = {span.name: span for span in tracer.spans}
    assert spans["t.worker"].parent == root == spans[OP_SPAN].sid
    assert spans["t.worker"].op == 3
    assert spans["t.worker"].thread != spans[OP_SPAN].thread


def _engine_callables() -> dict:
    """Every function-valued attribute of the engine's modules and classes."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                found[(module_name, name)] = value
            elif inspect.isclass(value) and value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    if inspect.isfunction(member):
                        found[(value.__qualname__, attr)] = member
    return found


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(200)]
    assert percentile(samples, 95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples[:199], 95)
    assert percentile(samples[:20], 50) == 9.5
    with pytest.raises(ValueError):
        percentile(samples[:19], 50)


def test_rounds_repeat_for_equal_seeds_and_differ_otherwise():
    def labels(seed: int) -> list:
        workload = WORKLOADS["server_zipf"](seed, "tiny")
        workload.setup()
        try:
            return [
                [op.label for op in workload.round(index, client)]
                for index in range(1, 4)
                for client in range(workload.clients)
            ]
        finally:
            workload.close()

    first, again, other = labels(5), labels(5), labels(6)
    assert first == again
    assert first != other
    # Every round holds the same Zipf mix, whatever the order.
    assert {tuple(sorted(round_)) for round_ in first + other} == {
        tuple(sorted(["one_hop"] * 15 + ["two_hop"] * 6 + ["triangle"] * 4))
    }


def test_untraced_run_reports_end_to_end_metrics_and_installs_nothing(monkeypatch, tmp_path):
    def no_tracer():
        raise AssertionError("the untraced pass constructed a tracer")

    monkeypatch.setattr(run, "Tracer", no_tracer)
    before = _engine_callables()
    result = run.run_workload("sq_primary", 3, 0.05, False, "tiny", str(tmp_path))
    assert _engine_callables() == before
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    assert list(result["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_pass(name, tmp_path):
    before = _engine_callables()
    result = run.run_workload(name, 3, 0.4, True, "tiny", str(tmp_path))
    assert _engine_callables() == before, "wrappers left behind after the traced pass"
    assert result["correct"] and result["failed"] == 0
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert list(metrics) == [metric for metric, *_ in PER_LAYER]

    direct = name in ("sq_primary", "tuned_secondary", "update_mix")
    dispatch_times = [
        key for key in metrics
        if key.endswith("_s") and key.startswith(("query.backend_", "query.decode", "query.checksum", "server."))
    ]
    if direct:
        assert all(metrics[key] == 0 for key in dispatch_times)
        assert metrics["bench.attributed_share"] > 0.8
    else:
        assert metrics["server.submit_s"] > 0 and metrics["query.backend_result_wait_s"] > 0
    assert (metrics["storage.offset_resolve_calls"] > 0) == (
        name in ("tuned_secondary", "update_mix")
    )
    cycles = WORKLOADS[name](3, "tiny").trace_rounds(0.4)
    assert metrics["index.flush_calls"] == (cycles if name == "update_mix" else 0)
    assert (metrics["query.reply_bytes"] > 0) == (name == "scan_process")

    with open(tmp_path / f"trace-{name}.json") as handle:
        trace = json.load(handle)
    names = trace["names"]
    roots = {row[0]: row for row in trace["spans"] if names[row[3]] == OP_SPAN}
    assert len(roots) * 2 == result["attempted"] or name == "tuned_secondary"
    if name == "server_zipf":
        # Slot-thread and pool-thread spans hang off the client's operation.
        for kind in ("server.slot", "query.morsel"):
            handed = [row for row in trace["spans"] if names[row[3]] == kind]
            assert handed
            for row in handed:
                root = roots[row[1]]
                assert row[2] == root[2] and row[4] != root[4]


def test_committed_manifest_passes_and_malformed_ones_are_refused():
    assert run.check_manifest(run.ROOT, {n: c.why for n, c in WORKLOADS.items()}) == []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    for damage in (
        lambda m: m.update(extra=1),
        lambda m: m["end_to_end"][1].update(bound=0.5),
        lambda m: m["end_to_end"].pop(0),
        lambda m: m["per_layer"][0].update(name="bad name"),
        lambda m: m["per_layer"].append(dict(m["per_layer"][0])),
        lambda m: m.update(paths=["benchmarks/nowhere"]),
        lambda m: m.update(command=["python3", "benchmarks/common.py"]),
        lambda m: m.update(run_seconds=40),
    ):
        broken = json.loads(json.dumps(manifest))
        damage(broken)
        assert contract_violations(broken, 1000, run.ROOT), damage
