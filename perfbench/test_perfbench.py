"""Tests of the benchmark itself, at small graph sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The traced op must compute exactly what the public call computes (same
digest, same exact counts), so the per-layer ledger describes the
program being measured; and the checks must catch a wrong output.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs import MemorySink, Obs  # noqa: E402

SMALL = {
    "price-isp": workloads.PriceIsp(40),
    "price-ba": workloads.PriceBa(60),
    "bgp-converge": workloads.BgpConverge(24),
    "bgp-churn": workloads.BgpChurn(30),
}


def _traced(workload, inputs):
    sink = MemorySink()
    rec = ledger.Recorder(Obs(sinks=[sink]), op=0)
    with rec.root():
        result = workload.traced_op(inputs, rec)
    return result, rec, sink.of_kind("span")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_op_matches_public_call(name):
    workload = SMALL[name]
    inputs = workload.setup(3)
    workload.prepare_checks(inputs)
    public = workload.outcome(inputs, workload.op(inputs))
    result, rec, spans = _traced(workload, inputs)
    traced = workload.outcome(inputs, result)
    assert public.ok and traced.ok, (public.why, traced.why)
    assert traced.digest == public.digest
    assert traced.counts == public.counts
    assert set(rec.counts) <= set(ledger.units("per_layer"))
    for exact in ("stages", "rows_sent", "convergence_vtime"):
        if exact in public.counts:
            values = ledger.layer_metrics(spans, [{**rec.counts, **traced.counts}], {})
            assert values[exact] == public.counts[exact]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs(name):
    workload = SMALL[name]
    a, b = workload.setup(5), workload.setup(5)
    assert [one.graph for one in a] == [one.graph for one in b]
    assert repr([one.events for one in a]) == repr([one.events for one in b])


def test_churn_events_keep_graph_biconnected():
    from repro.core.dynamics import apply_event_to_graph
    from repro.graphs.biconnectivity import is_biconnected

    inputs = workloads.WORKLOADS["bgp-churn"].setup_graph(7)
    assert len(inputs.events) == len(workloads.CHURN_PATTERN)
    current = inputs.graph
    for _when, event in inputs.events:
        current = apply_event_to_graph(current, event)
        assert is_biconnected(current)


def test_wrong_price_fails_the_check():
    workload = SMALL["price-isp"]
    inputs = workload.setup(3)
    workload.prepare_checks(inputs)
    tables = workload.op(inputs)
    (source, destination), row = next(iter(inputs[0].sample.items()))
    k = next(iter(row))
    tables[0].rows[(source, destination)][k] += 1e-6
    assert not workload.outcome(inputs, tables).ok


def test_checker_flags_output_that_changes_between_ops():
    workload = SMALL["bgp-converge"]
    inputs = workload.setup(3)
    checker = run.Checker(workload, inputs)
    pairs = workload.op(inputs)
    assert checker.check(pairs, None) is not None
    pairs[0][0].report.total_rows_sent += 1
    assert checker.check(pairs, None) is None
    assert checker.check(None, RuntimeError("boom")) is None
    assert (checker.attempted, checker.failed) == (3, 2)


def test_self_time_subtracts_nested_spans():
    spans = [
        {"name": "a", "t": 0.1, "dur": 0.3, "depth": 2, "labels": {"op": 0}},
        {"name": "b", "t": 0.5, "dur": 0.4, "depth": 2, "labels": {"op": 0}},
        {"name": "op", "t": 0.0, "dur": 1.0, "depth": 1, "labels": {"op": 0}},
    ]
    root_dur, names = ledger.self_times(spans)[0]
    assert root_dur == pytest.approx(1.0)
    assert names["op"] == [pytest.approx(0.3)]
    assert names["a"] == [0.3] and names["b"] == [0.4]
    values = ledger.layer_metrics(spans, [], {})
    assert values["trace.coverage"] == pytest.approx(0.7)
    assert not values["bgp.engine.step_s"]


def test_benchmark_json_lists_every_ledger_metric_and_workload():
    listed = set(ledger.units("per_layer"))
    assert set(ledger.TIME_METRICS.values()) <= listed
    assert set(ledger.PEAK_METRICS.values()) <= listed
    assert {w["name"] for w in ledger.SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_counts_sum_over_graphs_and_ratios_use_the_sums():
    rec = ledger.Recorder(Obs(), op=0)
    for entries, rows, workers in ((30, 10, 2), (10, 10, 2)):
        rec.count("flatsweep.entries", entries)
        rec.count("flatsweep.rows", rows)
        rec.peak("flatsweep.workers", workers)
    values = ledger.layer_metrics([], [rec.counts], {})
    assert values["flatsweep.entries"] == 40 and values["flatsweep.rows"] == 20
    assert values["flatsweep.entries_per_row"] == 2.0
    assert values["flatsweep.workers"] == 2


def test_stop_children_leaves_no_process_behind():
    from multiprocessing import resource_tracker, shared_memory

    # Creating a segment starts the resource tracker, as the sweep does.
    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    host.stop_children(grace_s=1.0)
    assert resource_tracker._resource_tracker._pid is None
    assert sleeper.pid not in host._child_pids()
    assert host._child_pids() == []
