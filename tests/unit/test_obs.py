"""Unit tests for repro.obs: tracer, spans, exporters, logs, and the
Prometheus/text metrics surface that rides along with the observability PR."""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro import obs
from repro.cli.trace import main as trace_main, render_aggregate, render_trace_tree
from repro.obs import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    JsonLogFormatter,
    MetricsSpanExporter,
    NOOP_SPAN,
    SpanContext,
    SpanStatus,
    Tracer,
    load_jsonl,
    sanitize_trace_id,
)
from repro.serve.jobs import JobStore
from repro.serve.metrics import MetricsRegistry, render_registries_text
from repro.serve.protocol import resolve_request_id, wants_text_metrics


@pytest.fixture
def tracer():
    """An enabled, isolated tracer with an in-memory exporter."""
    tracer = Tracer(enabled=True)
    memory = InMemorySpanExporter()
    tracer.add_exporter(memory)
    return tracer, memory


@pytest.fixture(autouse=True)
def _reset_global_tracer():
    yield
    obs.configure(enabled=False, reset=True)


class TestSpan:
    def test_nesting_parents_spans_automatically(self, tracer):
        tracer, memory = tracer
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        [trace] = memory.recent_traces()
        assert trace["root"] == "outer"
        assert trace["num_spans"] == 2

    def test_clocks_and_status(self, tracer):
        tracer, _ = tracer
        with tracer.span("work", {"k": 1}) as span:
            assert span.is_recording
        assert not span.is_recording
        assert span.status == SpanStatus.OK
        assert span.duration_seconds >= 0.0
        assert span.cpu_seconds >= 0.0
        assert span.attributes["k"] == 1

    def test_exception_marks_error_and_still_exports(self, tracer):
        tracer, memory = tracer
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        [trace] = memory.recent_traces()
        [record] = trace["spans"]
        assert record["status"] == "error"
        assert "ValueError: nope" in record["error"]

    def test_finish_is_idempotent(self, tracer):
        tracer, memory = tracer
        span = tracer.span("once")
        span.finish()
        first = span.duration_seconds
        span.finish()
        assert span.duration_seconds == first
        assert len(memory.recent_traces()) == 1

    def test_explicit_parent_wins_over_context(self, tracer):
        tracer, _ = tracer
        foreign = SpanContext("a" * 32, "b" * 16)
        with tracer.span("ambient"):
            with tracer.span("child", parent=foreign) as child:
                assert child.trace_id == foreign.trace_id
                assert child.parent_id == foreign.span_id

    def test_request_id_stamped_from_context(self, tracer):
        tracer, _ = tracer
        token = obs.bind_request_id("req-1")
        try:
            with tracer.span("stamped") as span:
                pass
        finally:
            obs.unbind_request_id(token)
        assert span.attributes["request_id"] == "req-1"

    def test_context_propagates_across_threads_via_copy_context(self, tracer):
        import contextvars

        tracer, _ = tracer
        seen = {}

        def worker():
            with tracer.span("threaded") as span:
                seen["trace_id"] = span.trace_id
                seen["parent_id"] = span.parent_id

        with tracer.span("root") as root:
            context = contextvars.copy_context()
            thread = threading.Thread(target=context.run, args=(worker,))
            thread.start()
            thread.join()
        assert seen["trace_id"] == root.trace_id
        assert seen["parent_id"] == root.span_id


class TestDisabledTracer:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", {"a": 1})
        assert span is NOOP_SPAN
        with span as inner:
            assert inner.set_attribute("x", 1) is inner
        assert span.context() is None
        assert tracer.current_context() is None

    def test_noop_does_not_become_current_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer"):
            assert obs.current_span() is None

    def test_global_tracer_disabled_by_default(self):
        assert obs.get_tracer().enabled is False
        assert obs.span("x") is NOOP_SPAN


class TestSpanContext:
    def test_header_round_trip(self):
        context = SpanContext("ab12" * 8, "cd34" * 4)
        assert SpanContext.from_header_value(context.header_value()) == context

    @pytest.mark.parametrize(
        "value",
        [None, "", "nodash", "UPPER-case", "g" * 33 + "-abc", "abc-", "abc-" + "f" * 33],
    )
    def test_malformed_headers_rejected(self, value):
        assert SpanContext.from_header_value(value) is None

    def test_sanitize_trace_id(self):
        assert sanitize_trace_id("ABCDEF") == "abcdef"
        assert sanitize_trace_id("x" * 33) is None
        assert sanitize_trace_id('abc"def') is None
        assert sanitize_trace_id("") is None


class TestInMemoryExporter:
    def test_children_buffer_until_root_completes(self, tracer):
        tracer, memory = tracer
        root = tracer.span("root")
        with root:
            with tracer.span("child"):
                pass
            assert memory.recent_traces() == []
            assert memory.pending_count() == 1
        assert memory.pending_count() == 0
        [trace] = memory.recent_traces()
        assert [s["name"] for s in trace["spans"]] == ["child", "root"]

    def test_request_kind_completes_stitched_traces(self, tracer):
        # A server-side root parented under a remote client span has a
        # parent_id that never resolves locally; kind="request" must still
        # complete the trace.
        tracer, memory = tracer
        client_side = SpanContext("f" * 32, "e" * 16)
        with tracer.span("http.request", parent=client_side, kind="request"):
            pass
        [trace] = memory.recent_traces()
        assert trace["root"] == "http.request"

    def test_slow_sample_survives_fast_burst(self):
        exporter = InMemorySpanExporter(max_traces=4, max_slow=2)
        for i, duration in enumerate([5.0, 0.001, 0.002, 0.003, 0.004, 0.005]):
            exporter.export({
                "trace_id": f"t{i}", "parent_id": None, "name": "r",
                "duration_seconds": duration, "status": "ok",
                "start_time": 0.0, "attributes": {},
            })
        recents = {t["trace_id"] for t in exporter.recent_traces()}
        assert "t0" not in recents  # evicted from the ring by the burst
        slow = exporter.slow_traces()
        assert slow[0]["trace_id"] == "t0"  # but retained as the slowest

    def test_orphaned_pending_traces_are_bounded(self):
        exporter = InMemorySpanExporter(max_pending_traces=3)
        for i in range(10):
            exporter.export({
                "trace_id": f"t{i}", "parent_id": "gone", "name": "leaf",
                "duration_seconds": 0.0, "attributes": {},
            })
        assert exporter.pending_count() <= 4


class TestJsonlExporter:
    def test_round_trip_through_file(self, tmp_path, tracer):
        tracer, _ = tracer
        path = str(tmp_path / "spans.jsonl")
        tracer.add_exporter(JsonlSpanExporter(path))
        with tracer.span("written", {"n": 2}):
            pass
        tracer.flush()
        [record] = load_jsonl(path)
        tracer.clear_exporters()  # closes the file
        assert record["name"] == "written"
        assert record["attributes"]["n"] == 2
        assert record["duration_seconds"] >= 0.0

    def test_load_jsonl_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n[1,2]\n\n{"name": "ok2"}\n')
        assert [r["name"] for r in load_jsonl(str(path))] == ["ok", "ok2"]

    def test_dedupe_key_prevents_double_registration(self, tmp_path):
        tracer = Tracer(enabled=True)
        path = str(tmp_path / "spans.jsonl")
        first, second = JsonlSpanExporter(path), JsonlSpanExporter(path)
        assert tracer.add_exporter(first) is True
        assert tracer.add_exporter(second) is False
        assert len(tracer.exporters()) == 1
        second.close()
        tracer.clear_exporters()


class TestMetricsBridge:
    def test_spans_feed_per_stage_histograms(self, tracer):
        tracer, _ = tracer
        registry = MetricsRegistry()
        tracer.add_exporter(MetricsSpanExporter(registry))
        for _ in range(3):
            with tracer.span("gateway.dispatch"):
                pass
        snapshot = registry.as_dict()
        assert snapshot["trace.gateway.dispatch.seconds"]["count"] == 3

    def test_exporter_failure_never_breaks_the_span(self, tracer):
        tracer, memory = tracer

        class Exploding:
            def export(self, record):
                raise RuntimeError("exporter bug")

        tracer.add_exporter(Exploding())
        with tracer.span("resilient"):
            pass
        assert memory.recent_traces()[0]["root"] == "resilient"


class TestConfigure:
    def test_configure_mutates_global_in_place(self):
        before = obs.get_tracer()
        configured = obs.configure(enabled=True, reset=True)
        assert configured is before
        assert before.enabled
        obs.configure(enabled=False, reset=True)
        assert not before.enabled

    def test_configure_twice_does_not_stack_memory_exporters(self):
        obs.configure(enabled=True, reset=True)
        obs.configure(enabled=True)
        memories = [
            e for e in obs.get_tracer().exporters() if isinstance(e, InMemorySpanExporter)
        ]
        assert len(memories) == 1

    def test_debug_payload_shape(self):
        tracer = obs.configure(enabled=True, reset=True)
        with tracer.span("observed"):
            pass
        payload = tracer.debug_payload()
        assert payload["enabled"] is True
        assert payload["recent"][0]["root"] == "observed"
        assert isinstance(payload["slow"], list)


class TestStructuredLogs:
    def _logger_with_buffer(self):
        buffer = io.StringIO()
        handler = logging.StreamHandler(buffer)
        handler.setFormatter(JsonLogFormatter())
        logger = logging.getLogger("repro.test.obs")
        logger.handlers = [handler]
        logger.propagate = False
        logger.setLevel(logging.INFO)
        return logger, buffer

    def test_lines_are_json_with_trace_identity(self, tracer):
        tracer, _ = tracer
        logger, buffer = self._logger_with_buffer()
        token = obs.bind_request_id("req-42")
        try:
            with tracer.span("logging") as span:
                obs.log_event(logger, "hello", status=200)
        finally:
            obs.unbind_request_id(token)
        record = json.loads(buffer.getvalue())
        assert record["message"] == "hello"
        assert record["status"] == 200
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id
        assert record["request_id"] == "req-42"

    def test_lines_outside_any_span_omit_trace_identity(self):
        logger, buffer = self._logger_with_buffer()
        obs.log_event(logger, "plain")
        record = json.loads(buffer.getvalue())
        assert "trace_id" not in record
        assert "request_id" not in record

    def test_configure_logging_is_idempotent(self):
        root = obs.configure_logging(stream=io.StringIO())
        obs.configure_logging(stream=io.StringIO())
        ours = [h for h in root.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(ours) == 1
        for handler in ours:
            root.removeHandler(handler)


class TestPrometheusText:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("requests.total", "requests").inc(3)
        registry.gauge("queue.depth").set(2)
        registry.histogram("latency.seconds", "latency", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        assert "# HELP requests_total requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "queue_depth 2" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_labels_disambiguate_duplicate_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("req.total").inc(1)
        b.counter("req.total").inc(2)
        text = render_registries_text([
            (a.as_dict(), {"replica": "0"}),
            (b.as_dict(), {"replica": "1"}),
        ])
        assert text.count("# TYPE req_total counter") == 1
        assert 'req_total{replica="0"} 1' in text
        assert 'req_total{replica="1"} 2' in text

    def test_histogram_labels_merge_with_le(self):
        registry = MetricsRegistry()
        registry.histogram("h.seconds", buckets=(1.0,)).observe(0.5)
        text = registry.render_text({"component": "gateway"})
        assert 'h_seconds_bucket{component="gateway",le="1.0"} 1' in text
        assert 'h_seconds_sum{component="gateway"}' in text

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("2weird-name.total").inc()
        assert "_2weird_name_total 1" in registry.render_text()


class TestRequestIdResolution:
    def test_well_formed_client_ids_kept(self):
        assert resolve_request_id("abc-DEF_1.2", lambda: "gen") == "abc-DEF_1.2"

    @pytest.mark.parametrize(
        "supplied", [None, "", "x" * 65, "has space", "new\nline", 'quo"te', "semi;colon"]
    )
    def test_hostile_or_missing_ids_regenerated(self, supplied):
        assert resolve_request_id(supplied, lambda: "generated") == "generated"

    def test_wants_text_metrics(self):
        assert wants_text_metrics("format=text", None)
        assert wants_text_metrics("a=1&format=prometheus", None)
        assert wants_text_metrics("", "text/plain; version=0.0.4")
        assert not wants_text_metrics("", "application/json")
        assert not wants_text_metrics("format=json", None)
        assert not wants_text_metrics("", None)


class TestJobMonotonicTiming:
    def test_durations_use_monotonic_clocks(self):
        store = JobStore()
        job = store.create("diagnosis")
        assert job.queue_seconds is None
        assert job.run_seconds is None
        store.mark_running(job.job_id)
        store.mark_succeeded(job.job_id, {"ok": True})
        assert job.queue_seconds >= 0.0
        assert job.run_seconds >= 0.0
        payload = job.as_dict()
        assert payload["queue_seconds"] == job.queue_seconds
        assert payload["run_seconds"] == job.run_seconds
        # Wall-clock fields remain for display.
        assert payload["submitted_at"] <= payload["finished_at"]

    def test_wall_clock_jump_cannot_produce_negative_durations(self):
        store = JobStore()
        job = store.create("diagnosis")
        store.mark_running(job.job_id)
        # Simulate a backwards wall-clock step after start: monotonic math
        # is unaffected, and the properties clamp defensively anyway.
        job.started_monotonic = job.submitted_monotonic + 0.5
        job.finished_monotonic = job.started_monotonic - 1.0
        assert job.run_seconds == 0.0


class TestTraceCli:
    def _write_trace(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = obs.configure(enabled=True, jsonl_path=path, reset=True)
        with tracer.span("gateway.request", kind="request"):
            with tracer.span("gateway.dispatch", {"body_bytes": 10}):
                with tracer.span("service.diagnose", {"model": "demo"}):
                    pass
        tracer.flush()
        obs.configure(enabled=False, reset=True)
        return path

    def test_aggregate_and_tree_rendering(self, tmp_path):
        path = self._write_trace(tmp_path)
        records = load_jsonl(path)
        aggregate = render_aggregate(records)
        assert "gateway.request" in aggregate
        assert "service.diagnose" in aggregate
        tree = render_trace_tree(records[0]["trace_id"], records)
        # Children indent under their parents, attributes shown.
        assert tree.index("gateway.request") < tree.index("gateway.dispatch")
        assert "model=demo" in tree

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert trace_main([path, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "3 span(s) across 1 trace(s)" in out
        assert "gateway.dispatch" in out

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trace_main([str(empty)]) == 1
        assert trace_main([path, "--trace-id", "doesnotexist"]) == 1

    def test_tree_renders_orphan_spans(self, tmp_path):
        path = tmp_path / "orphans.jsonl"
        spans = [
            {"trace_id": "t1", "span_id": "a", "parent_id": None, "name": "root",
             "duration_seconds": 0.2, "attributes": {}, "start_monotonic": 0.0},
            {"trace_id": "t1", "span_id": "b", "parent_id": "missing", "name": "lost",
             "duration_seconds": 0.1, "attributes": {}, "start_monotonic": 0.1},
        ]
        path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        tree = render_trace_tree("t1", load_jsonl(str(path)))
        assert "(orphan) lost" in tree
