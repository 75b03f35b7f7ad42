"""The per-layer ledger: benchmark-side spans around public calls.

A traced op opens one root span (``op``) and, inside it, one span per
public layer call, all on an explicit ``repro.obs.Obs`` whose
``MemorySink`` keeps them in memory; global observability stays off, so
the program itself emits nothing.  Self time comes from span nesting;
``*_peak_mb`` comes from one extra op run under ``tracemalloc``.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Tuple

MB = 1024.0 * 1024.0

#: BENCHMARK.json at the repository root names every metric, with its
#: unit and direction, for both the end-to-end run and the ledger.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def units(section: str) -> Dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


#: Span name -> per-layer time metric (median over traced ops of the
#: span's self time, summed within an op).
TIME_METRICS: Mapping[str, str] = {
    "allpairs": "allpairs.s",
    "flatgraph.build": "flatgraph.build_s",
    "flatsweep.demand": "flatsweep.demand_s",
    "flatsweep.sweep": "flatsweep.sweep_s",
    "vcg.assemble": "vcg.assemble_s",
    "vcg.reference": "vcg.reference_s",
    "protocol.verify": "protocol.verify_s",
    "bgp.engine.init": "bgp.engine.init_s",
    "bgp.engine.step": "bgp.engine.step_s",
    "bgp.timed.init": "bgp.timed.init_s",
    "bgp.timed.run": "bgp.timed.run_s",
}

#: Span name -> tracemalloc peak metric (from the memory op).
PEAK_METRICS: Mapping[str, str] = {
    "allpairs": "allpairs.peak_mb",
    "flatsweep.demand": "flatsweep.demand_peak_mb",
    "vcg.assemble": "vcg.assemble_peak_mb",
}

#: Ratio metric, numerator, denominator: derived from the op's sums.
RATIOS: Tuple[Tuple[str, str, str], ...] = (
    ("flatsweep.entries_per_row", "flatsweep.entries", "flatsweep.rows"),
    ("bgp.timed.s_per_delivery", "bgp.timed.run_s", "bgp.timed.deliveries"),
    (
        "bgp.timed.coalesce_ratio",
        "bgp.timed.rows_coalesced",
        "bgp.timed.rows_offered",
    ),
)

ROOT_SPAN = "op"


class Recorder:
    """Spans and counts of one traced op."""

    def __init__(self, obs, op: int, memory: bool = False) -> None:
        self.obs = obs
        self.op = op
        self.memory = memory
        self.counts: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}

    @contextmanager
    def root(self) -> Iterator[None]:
        with self.obs.span(ROOT_SPAN, op=self.op):
            yield

    @contextmanager
    def phase(self, layer: str) -> Iterator[None]:
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        with self.obs.span(layer, op=self.op):
            yield
        if self.memory:
            peak = (tracemalloc.get_traced_memory()[1] - base) / MB
            self.peaks[layer] = max(self.peaks.get(layer, 0.0), peak)

    def count(self, name: str, value: float) -> None:
        """Add *value* to a work count of this op (summed over its graphs)."""
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest *value*: a layout or a high-water mark."""
        self.counts[name] = max(self.counts.get(name, value), value)


def self_times(spans: List[Mapping]) -> Dict[int, Tuple[float, Dict[str, List[float]]]]:
    """Per op: root duration and each span name's self times.

    A span's self time is its duration minus the durations of the spans
    one level deeper that lie inside it.
    """
    by_op: Dict[int, List[Mapping]] = {}
    for span in spans:
        by_op.setdefault(span["labels"]["op"], []).append(span)
    result: Dict[int, Tuple[float, Dict[str, List[float]]]] = {}
    for op, group in by_op.items():
        root_dur = 0.0
        names: Dict[str, List[float]] = {}
        for span in group:
            start, end = span["t"], span["t"] + span["dur"]
            inner = sum(
                child["dur"]
                for child in group
                if child["depth"] == span["depth"] + 1
                and start <= child["t"]
                and child["t"] + child["dur"] <= end
            )
            names.setdefault(span["name"], []).append(span["dur"] - inner)
            if span["name"] == ROOT_SPAN:
                root_dur = span["dur"]
        result[op] = (root_dur, names)
    return result


def layer_metrics(
    spans: List[Mapping],
    counts: List[Dict[str, float]],
    peaks: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer values: medians over traced ops; 0 for bypassed layers."""
    values = {name: 0.0 for name in units("per_layer")}
    per_op = self_times(spans)
    coverage = []
    sums: Dict[str, List[float]] = {}
    step_max: List[float] = []
    for root_dur, names in per_op.values():
        coverage.append(1.0 - sum(names.get(ROOT_SPAN, [0.0])) / root_dur)
        for span, metric in TIME_METRICS.items():
            if span in names:
                sums.setdefault(metric, []).append(sum(names[span]))
        if "bgp.engine.step" in names:
            step_max.append(max(names["bgp.engine.step"]))
    for metric, series in sums.items():
        values[metric] = statistics.median(series)
    if step_max:
        values["bgp.engine.step_max_s"] = statistics.median(step_max)
    if coverage:
        values["trace.coverage"] = statistics.median(coverage)
    for name in {key for op_counts in counts for key in op_counts} & set(values):
        values[name] = statistics.median(c[name] for c in counts if name in c)
    for ratio, top, bottom in RATIOS:
        if values[bottom]:
            values[ratio] = values[top] / values[bottom]
    offered = values["rows_sent"] + values["bgp.rows_suppressed"]
    if values["bgp.rows_suppressed"]:
        values["bgp.delta_saving"] = values["bgp.rows_suppressed"] / offered
    for span, metric in PEAK_METRICS.items():
        values[metric] = peaks.get(span, 0.0)
    return values
