"""Tests for repro.obs: spans, counters, sinks, zero overhead, and the
Fig. 1 trace-replay acceptance criterion (a recorded run reproduces the
ConvergenceReport / StateReport numbers bit-for-bit from the trace)."""

from __future__ import annotations

import io
import json

import pytest

import repro.obs as obs
from repro.bgp.engine import SynchronousEngine
from repro.core.protocol import distributed_mechanism
from repro.exceptions import TraceError
from repro.obs import names
from repro.obs.trace import (
    read_events,
    summarize_trace,
    summary_tables,
    validate_trace,
)


@pytest.fixture(autouse=True)
def _pristine_obs_state():
    """Each test starts and ends globally disabled with a fresh default."""
    obs.disable()
    obs.reset_default()
    yield
    obs.disable()
    obs.reset_default()


class TestSpans:
    def test_span_depth_nests(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        with observer.span("outer"):
            with observer.span("inner"):
                pass
        # spans are emitted at close: children before parents
        assert [e["name"] for e in sink.of_kind("span")] == ["inner", "outer"]
        assert sink.named("inner")[0]["depth"] == 2
        assert sink.named("outer")[0]["depth"] == 1

    def test_depth_recovers_after_exit(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        with observer.span("first"):
            pass
        with observer.span("second"):
            pass
        assert [e["depth"] for e in sink.of_kind("span")] == [1, 1]

    def test_span_duration_nonnegative_and_monotonic_t(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        with observer.span("timed"):
            pass
        event = sink.named("timed")[0]
        assert event["dur"] >= 0.0
        assert event["t"] >= 0.0

    def test_span_labels_recorded(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        with observer.span("stage", stage=3, engine="reference"):
            pass
        assert sink.named("stage")[0]["labels"] == {"stage": 3, "engine": "reference"}

    def test_span_stats_accumulate(self):
        observer = obs.Obs()
        for _ in range(3):
            with observer.span("repeated"):
                pass
        count, total = observer.span_stats("repeated")
        assert count == 3
        assert total >= 0.0

    def test_module_level_span_is_null_while_disabled(self):
        assert obs.span("anything") is obs.NULL_SPAN


class TestCountersAndGauges:
    def test_counter_value_and_running_total(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        observer.count("m", 1)
        observer.count("m", 2)
        events = sink.named("m")
        assert [(e["value"], e["total"]) for e in events] == [(1, 1), (2, 3)]
        assert observer.counter_total("m") == 3

    def test_labeled_series_are_independent(self):
        observer = obs.Obs()
        observer.count("msgs", 5, type="table")
        observer.count("msgs", 2, type="async")
        assert observer.counter_total("msgs", type="table") == 5
        assert observer.counter_total("msgs", type="async") == 2
        assert observer.counter_total("msgs") == 7

    def test_unknown_counter_is_zero(self):
        assert obs.Obs().counter_total("never") == 0.0

    def test_gauge_last_write_wins(self):
        observer = obs.Obs()
        observer.gauge("g", 1.0, node=0)
        observer.gauge("g", 4.0, node=0)
        observer.gauge("g", 2.0, node=1)
        assert observer.gauge_value("g", node=0) == 4.0
        assert observer.gauge_series("g") == {
            (("node", 0),): 4.0,
            (("node", 1),): 2.0,
        }

    def test_unset_gauge_is_none(self):
        assert obs.Obs().gauge_value("never") is None

    def test_reset_forgets_aggregates_keeps_sinks(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        observer.count("m")
        observer.reset()
        assert observer.counter_total("m") == 0.0
        assert observer.events_emitted() == 0
        assert observer.sinks == (sink,)


class TestZeroOverhead:
    """The contract: while disabled, hot paths emit *nothing*."""

    def test_disabled_protocol_run_emits_no_events(self, fig1):
        sink = obs.default().add_sink(obs.MemorySink())
        engine = SynchronousEngine(fig1)
        engine.run()
        assert len(sink) == 0
        assert obs.default().events_emitted() == 0

    def test_disabled_full_mechanism_emits_no_events(self, fig1):
        sink = obs.default().add_sink(obs.MemorySink())
        distributed_mechanism(fig1)
        assert len(sink) == 0

    def test_module_level_helpers_are_noops_while_disabled(self):
        obs.count("m", 3)
        obs.gauge("g", 1.0)
        with obs.span("s"):
            pass
        assert obs.default().events_emitted() == 0

    def test_active_resolution(self):
        explicit = obs.Obs()
        assert obs.active() is None
        assert obs.active(explicit) is explicit
        obs.enable()
        assert obs.active() is obs.default()
        assert obs.active(explicit) is explicit

    def test_explicit_obs_wins_even_while_disabled(self, fig1):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        SynchronousEngine(fig1, obs=observer).run()
        assert len(sink) > 0

    def test_observed_context_restores_previous_state(self):
        assert not obs.enabled()
        with obs.observed() as observer:
            assert obs.enabled()
            assert observer is obs.default()
        assert not obs.enabled()


class TestSinks:
    def test_jsonl_meta_first_then_events(self):
        buffer = io.StringIO()
        sink = obs.JSONLSink(buffer)
        observer = obs.Obs(sinks=[sink])
        observer.count("m", 1)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines[0] == {
            "event": "meta",
            "version": obs.TRACE_VERSION,
            "clock": "monotonic",
        }
        assert lines[1]["event"] == "counter"
        assert lines[1]["name"] == "m"

    def test_jsonl_does_not_close_borrowed_files(self):
        buffer = io.StringIO()
        with obs.JSONLSink(buffer):
            pass
        assert not buffer.closed

    def test_memory_sink_helpers(self):
        sink = obs.MemorySink()
        observer = obs.Obs(sinks=[sink])
        observer.count("a")
        observer.gauge("b", 2.0)
        assert len(sink) == 2
        assert [e["name"] for e in sink.of_kind("gauge")] == ["b"]
        assert len(sink.named("a")) == 1
        sink.clear()
        assert len(sink) == 0

    def test_summary_sink_aggregates_and_renders(self):
        sink = obs.SummarySink()
        observer = obs.Obs(sinks=[sink])
        observer.count("msgs", 2, type="table")
        observer.count("msgs", 3, type="table")
        observer.gauge("size", 7.0, node=1)
        with observer.span("work"):
            pass
        assert sink.counter_total("msgs", type="table") == 5
        rendered = sink.render("run")
        assert "msgs{type=table} = 5" in rendered
        assert "size{node=1} = 7" in rendered
        assert "work: n=1" in rendered

    def test_summary_sink_empty_render(self):
        assert "(no events)" in obs.SummarySink().render()


class TestFig1TraceReplay:
    """Acceptance criterion: a recorded Fig. 1 run's trace reproduces
    the engine's own ConvergenceReport / StateReport bit-for-bit."""

    def test_sync_engine_trace_matches_reports(self, fig1, tmp_path):
        path = tmp_path / "fig1.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        engine = SynchronousEngine(fig1, obs=observer)
        report = engine.run()
        state = engine.state_report()
        sink.close()

        summary = summarize_trace(str(path))
        assert summary.stages == report.stages
        assert summary.total_messages == report.total_messages
        assert summary.entries_sent == report.total_entries_sent
        assert summary.loc_rib_entries == state.loc_rib_entries
        assert summary.adj_rib_in_entries == state.adj_rib_in_entries
        assert summary.price_entries == state.price_entries
        assert summary.max_loc_rib == state.max_loc_rib

    def test_fig1_counts_are_the_hand_countable_values(self, fig1, tmp_path):
        """Pin the actual Figure 1 numbers: plain path-vector BGP on the
        six-AS graph converges in 3 material stages and 50 messages
        (n*(n-1) routes -> 30 Loc-RIB entries is an upper bound per
        node pair; the selected engine reports 28 for its densest
        node)."""
        path = tmp_path / "fig1.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        SynchronousEngine(fig1, obs=observer).run()
        sink.close()
        summary = summarize_trace(str(path))
        assert summary.stages == 3
        assert summary.total_messages == 50
        assert summary.messages_by_type == {"table": 50}

    def test_full_mechanism_trace_matches_result(self, fig1, tmp_path):
        path = tmp_path / "mechanism.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        result = distributed_mechanism(fig1, obs=observer)
        sink.close()
        summary = summarize_trace(str(path))
        assert summary.stages == result.report.stages
        assert summary.total_messages == result.report.total_messages

    def test_summary_tables_render_the_measures(self, fig1, tmp_path):
        path = tmp_path / "fig1.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        SynchronousEngine(fig1, obs=observer).run()
        sink.close()
        tables = summary_tables(summarize_trace(str(path)))
        rendered = tables[0].render()
        assert "stages to convergence" in rendered
        assert "total messages" in rendered


class TestTraceValidation:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _meta(self):
        return json.dumps(
            {"event": "meta", "version": obs.TRACE_VERSION, "clock": "monotonic"}
        )

    def test_valid_trace_roundtrip(self, tmp_path):
        counter = json.dumps(
            {"event": "counter", "name": "m", "value": 1, "total": 1, "t": 0.0}
        )
        path = self._write(tmp_path, [self._meta(), counter])
        assert validate_trace(path) == 1
        events = read_events(path)
        assert events[1]["name"] == "m"

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="empty trace"):
            read_events(self._write(tmp_path, [""]))

    def test_missing_meta_rejected(self, tmp_path):
        counter = json.dumps(
            {"event": "counter", "name": "m", "value": 1, "total": 1, "t": 0.0}
        )
        with pytest.raises(TraceError, match="meta"):
            read_events(self._write(tmp_path, [counter]))

    def test_duplicate_meta_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="duplicate meta"):
            read_events(self._write(tmp_path, [self._meta(), self._meta()]))

    def test_wrong_version_rejected(self, tmp_path):
        meta = json.dumps({"event": "meta", "version": 999, "clock": "monotonic"})
        with pytest.raises(TraceError, match="version"):
            read_events(self._write(tmp_path, [meta]))

    def test_unknown_kind_rejected(self, tmp_path):
        bad = json.dumps({"event": "mystery", "name": "m"})
        with pytest.raises(TraceError, match="unknown event kind"):
            read_events(self._write(tmp_path, [self._meta(), bad]))

    def test_missing_required_field_rejected(self, tmp_path):
        bad = json.dumps({"event": "counter", "name": "m", "value": 1})
        with pytest.raises(TraceError, match="missing required field"):
            read_events(self._write(tmp_path, [self._meta(), bad]))

    def test_invalid_json_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="invalid JSON"):
            read_events(self._write(tmp_path, [self._meta(), "{not json"]))


class TestEngineMetrics:
    def test_experiment_runner_span(self):
        from repro.experiments.runner import run_experiment

        with obs.observed() as observer:
            run_experiment("E1")
        count, _total = observer.span_stats(names.SPAN_EXPERIMENT)
        assert count == 1
        assert observer.counter_total(names.STAGES) > 0
