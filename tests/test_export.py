"""Tests for the Telemetry v2 exporters (``repro.obs.export``).

Covers the Prometheus text renderer, the versioned JSON snapshot, and
the JSONL trace exporter with trace-context propagation.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TELEMETRY_SCHEMA_V2,
    TRACE_SCHEMA,
    JsonlSpanExporter,
    MetricsRegistry,
    get_span_exporter,
    new_trace_id,
    prometheus_from_snapshot,
    read_trace,
    set_span_exporter,
    span,
    telemetry_document,
    to_prometheus_text,
    use_span_exporter,
    write_prometheus_text,
    write_telemetry_json,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestPrometheusExposition:
    def test_counter_gets_total_suffix(self, registry):
        registry.counter("stream.batches").inc(3)
        text = to_prometheus_text(registry)
        assert "# TYPE repro_stream_batches_total counter" in text
        assert "repro_stream_batches_total 3" in text

    def test_gauge_and_labels(self, registry):
        registry.gauge("baseline.clusters", model="hmm").set(4)
        text = to_prometheus_text(registry)
        assert 'repro_baseline_clusters{model="hmm"} 4' in text

    def test_timer_becomes_summary(self, registry):
        registry.timer("span.cluseq").record(0.5)
        text = to_prometheus_text(registry)
        assert "# TYPE repro_span_cluseq_seconds summary" in text
        assert "repro_span_cluseq_seconds_sum 0.5" in text
        assert "repro_span_cluseq_seconds_count 1" in text

    def test_histogram_buckets_are_cumulative(self, registry):
        hist = registry.histogram("stream.demo_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow bucket
        text = to_prometheus_text(registry)
        assert 'repro_stream_demo_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_stream_demo_seconds_bucket{le="1"} 2' in text
        assert 'repro_stream_demo_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_stream_demo_seconds_count 3" in text

    def test_series_exposes_last_value_and_point_count(self, registry):
        series = registry.series("stream.batch.size")
        series.append(5)
        series.append(8)
        text = to_prometheus_text(registry)
        assert "repro_stream_batch_size 8" in text
        assert "repro_stream_batch_size_points 2" in text

    def test_name_sanitization(self):
        text = prometheus_from_snapshot(
            {"weird-name.x": {"type": "counter", "value": 1}}
        )
        assert "repro_weird_name_x_total 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_from_snapshot({}) == ""

    def test_write_prometheus_text(self, registry, tmp_path):
        registry.counter("a.b").inc()
        target = write_prometheus_text(tmp_path / "out" / "m.prom", registry)
        assert target.read_text().startswith("# TYPE repro_a_b_total counter")


class TestTelemetryDocument:
    def test_v2_shape(self, registry):
        registry.counter("stream.batches").inc()
        doc = telemetry_document(registry, context={"argv": ["x"]})
        assert doc["schema"] == TELEMETRY_SCHEMA_V2
        assert isinstance(doc["created_unix"], float)
        assert doc["context"] == {"argv": ["x"]}
        assert "stream.batches" in doc["metrics"]
        assert set(doc) == {"schema", "created_unix", "context", "metrics"}

    def test_write_and_reload(self, registry, tmp_path):
        registry.gauge("stream.clusters").set(2)
        target = write_telemetry_json(
            tmp_path / "t" / "telemetry.json", registry, context={"run": 1}
        )
        doc = json.loads(target.read_text())
        assert doc["schema"] == TELEMETRY_SCHEMA_V2
        assert doc["metrics"]["stream.clusters"]["value"] == 2.0


class TestJsonlSpanExporter:
    def test_header_then_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSpanExporter(path) as exporter, use_span_exporter(exporter):
            with span("phase"):
                with span("inner"):
                    pass
        header, spans = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert [s["name"] for s in spans] == ["inner", "phase"]  # finish order
        inner, phase = spans
        assert phase["parent"] is None
        assert inner["parent"] == phase["span"]
        assert inner["trace"] == phase["trace"]
        assert inner["wall_seconds"] >= 0.0
        assert exporter.exported == 2

    def test_no_ids_without_exporter(self, tmp_path):
        assert get_span_exporter() is None
        with span("quiet") as live:
            assert live.span_id is None
            assert live.trace_id is None

    def test_explicit_trace_id_adopted_by_root_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSpanExporter(path) as exporter, use_span_exporter(exporter):
            trace_id = new_trace_id()
            with span("batch", trace_id=trace_id):
                pass
            with span("batch", trace_id=trace_id):
                pass
        _, spans = read_trace(path)
        assert [s["trace"] for s in spans] == [trace_id, trace_id]
        assert spans[0]["span"] != spans[1]["span"]

    def test_set_span_exporter_returns_previous(self, tmp_path):
        with JsonlSpanExporter(tmp_path / "t.jsonl") as exporter:
            assert set_span_exporter(exporter) is None
            assert set_span_exporter(None) is exporter
        assert get_span_exporter() is None

    def test_read_trace_rejects_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "header", "schema": "other/v9"}\n')
        with pytest.raises(ValueError, match="bad header"):
            read_trace(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(empty)

    def test_export_after_close_is_silent(self, tmp_path):
        exporter = JsonlSpanExporter(tmp_path / "t.jsonl")
        exporter.close()
        with use_span_exporter(exporter):
            with span("late"):
                pass  # export hits the closed file and is dropped

