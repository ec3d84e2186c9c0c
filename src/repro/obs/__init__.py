"""Observability: metrics, structured logging, tracing and export.

The instrumentation layer for the CLUSEQ pipeline, dependency-free by
design and **zero-overhead by default** — until an application opts
in, the active metrics registry is a no-op and every log call is
level-gated away under a ``NullHandler``.

Four pieces:

* :mod:`repro.obs.metrics` — counters, gauges, histograms and timers
  in a :class:`MetricsRegistry`; activate one with
  :func:`use_registry`/:func:`set_registry`. The active registry is the
  one telemetry switch: hot-path kernel timers, I/O latency histograms
  and peak-RSS readings record through it like every other metric.
* :mod:`repro.obs.logging` — the ``repro.*`` logger hierarchy,
  :func:`configure_logging` and a JSON-lines formatter. The root
  logger is never touched.
* :mod:`repro.obs.tracing` — nested :func:`span` context managers
  measuring wall/CPU time per pipeline phase into ``span.<path>``
  timers, plus one DEBUG log record per finished span.
* :mod:`repro.obs.export` — Prometheus text exposition and
  ``repro.telemetry/v2`` JSON snapshots.

Telemetry leaves a process three ways: aggregates as a
``repro.telemetry/v2`` snapshot (:func:`write_telemetry_json`, the
CLI's ``--metrics-out``), per-event records as JSON log lines
(:func:`configure_logging` at DEBUG, the CLI's ``--log-json``), and a
live server's ``/metrics`` (:func:`to_prometheus_text`).

See ``docs/OBSERVABILITY.md`` for the metric catalogue and usage.
"""

from .export import (
    TELEMETRY_SCHEMA_V2,
    prometheus_from_snapshot,
    telemetry_document,
    to_prometheus_text,
    write_telemetry_json,
)
from .logging import (
    LOGGER_NAME,
    JsonLinesFormatter,
    configure_logging,
    get_logger,
    reset_logging,
)
from .metrics import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    get_registry,
    peak_rss_bytes,
    set_registry,
    use_registry,
)
from .tracing import Span, span

__all__ = [
    "LOGGER_NAME",
    "JsonLinesFormatter",
    "configure_logging",
    "get_logger",
    "reset_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "LATENCY_BUCKETS",
    "peak_rss_bytes",
    "Span",
    "span",
    "TELEMETRY_SCHEMA_V2",
    "telemetry_document",
    "write_telemetry_json",
    "to_prometheus_text",
    "prometheus_from_snapshot",
]
