"""Tests for the Telemetry v2 exporters (``repro.obs.export``).

Covers the Prometheus text renderer and the versioned JSON snapshot.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TELEMETRY_SCHEMA_V2,
    MetricsRegistry,
    prometheus_from_snapshot,
    telemetry_document,
    to_prometheus_text,
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

    def test_name_sanitization(self):
        text = prometheus_from_snapshot(
            {"weird-name.x": {"type": "counter", "value": 1}}
        )
        assert "repro_weird_name_x_total 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_from_snapshot({}) == ""


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
