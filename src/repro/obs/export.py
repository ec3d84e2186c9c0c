"""Metrics exporters (Telemetry v2).

Two output formats, both derived from the same
:class:`~repro.obs.metrics.MetricsRegistry` snapshot:

* **Prometheus text exposition** — :func:`to_prometheus_text` renders
  every instrument into the ``text/plain; version=0.0.4`` format so a
  scrape endpoint (or a pushed ``.prom`` file) needs no extra code.
* **Versioned JSON snapshots** — :func:`telemetry_document` builds a
  ``repro.telemetry/v2`` document: the raw metric snapshot plus the
  creation timestamp and run context.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import math
import re
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Union

from .metrics import MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA_V2",
    "telemetry_document",
    "write_telemetry_json",
    "to_prometheus_text",
    "prometheus_from_snapshot",
]

#: Version tag stamped on every exported telemetry snapshot. v2 adds
#: the creation timestamp and run context on top of v1's bare
#: ``{"schema", "metrics"}`` shape.
TELEMETRY_SCHEMA_V2 = "repro.telemetry/v2"

#: One instrument's serialized state, as produced by ``snapshot()``.
SnapshotEntry = Mapping[str, object]
Snapshot = Mapping[str, SnapshotEntry]

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


# -- telemetry/v2 JSON snapshots ------------------------------------------------


def _sanitize(value: object) -> object:
    """Make *value* strict-JSON safe: non-finite floats become ``None``
    (``json.dumps`` would otherwise emit the invalid ``Infinity``/``NaN``
    literals, which non-Python consumers reject)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def telemetry_document(
    registry: MetricsRegistry,
    context: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """A ``repro.telemetry/v2`` document for *registry*'s current state."""
    snapshot = registry.snapshot()
    return {
        "schema": TELEMETRY_SCHEMA_V2,
        "created_unix": time.time(),
        "context": dict(context) if context else {},
        "metrics": _sanitize(snapshot),
    }


def write_telemetry_json(
    path: Union[str, Path],
    registry: MetricsRegistry,
    context: Mapping[str, object] | None = None,
) -> Path:
    """Write a ``repro.telemetry/v2`` snapshot; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = telemetry_document(registry, context=context)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return target


# -- Prometheus text exposition -------------------------------------------------


def _base_name(rendered: str) -> str:
    """Instrument family name with any inlined labels stripped."""
    return rendered.split("{", 1)[0]


def _prom_name(name: str, namespace: str) -> str:
    flat = _PROM_NAME_RE.sub("_", name)
    return f"{namespace}_{flat}" if namespace else flat


def _prom_labels(labels: Mapping[str, object] | None) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted((str(k), str(v)) for k, v in labels.items()):
        escaped = value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{_PROM_NAME_RE.sub("_", key)}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_number(value: object) -> str:
    if not isinstance(value, (int, float)):
        return "NaN"
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number) if isinstance(value, float) else str(value)


def prometheus_from_snapshot(snapshot: Snapshot, namespace: str = "repro") -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix, timers become
    summary-style ``_seconds_sum``/``_seconds_count`` pairs, histograms
    get cumulative ``_bucket{le=...}`` lines.
    """
    families: dict[str, list[str]] = {}
    types: dict[str, str] = {}

    def emit(family: str, prom_type: str, line: str) -> None:
        types.setdefault(family, prom_type)
        families.setdefault(family, []).append(line)

    for rendered, entry in snapshot.items():
        base = _base_name(rendered)
        raw_labels = entry.get("labels")
        label_dict: dict[str, object] = (
            dict(raw_labels) if isinstance(raw_labels, dict) else {}
        )
        labels = _prom_labels(label_dict)
        kind = entry.get("type")
        if kind == "counter":
            family = _prom_name(base, namespace) + "_total"
            emit(family, "counter", f"{family}{labels} {_prom_number(entry.get('value'))}")
        elif kind == "gauge":
            family = _prom_name(base, namespace)
            emit(family, "gauge", f"{family}{labels} {_prom_number(entry.get('value'))}")
        elif kind == "histogram":
            family = _prom_name(base, namespace)
            buckets = entry.get("buckets")
            cumulative = 0
            if isinstance(buckets, dict):
                bounded = sorted(
                    (float(key[len("le_"):]), count)
                    for key, count in buckets.items()
                    if key.startswith("le_") and isinstance(count, int)
                )
                for bound, count in bounded:
                    cumulative += count
                    le = _prom_labels({**label_dict, "le": f"{bound:g}"})
                    emit(family, "histogram", f"{family}_bucket{le} {cumulative}")
                overflow = buckets.get("inf")
                if isinstance(overflow, int):
                    cumulative += overflow
                inf_labels = _prom_labels({**label_dict, "le": "+Inf"})
                emit(family, "histogram", f"{family}_bucket{inf_labels} {cumulative}")
            emit(family, "histogram", f"{family}_sum{labels} {_prom_number(entry.get('sum'))}")
            emit(family, "histogram", f"{family}_count{labels} {_prom_number(entry.get('count'))}")
        elif kind == "timer":
            family = _prom_name(base, namespace) + "_seconds"
            emit(
                family,
                "summary",
                f"{family}_sum{labels} {_prom_number(entry.get('total_seconds'))}",
            )
            emit(
                family,
                "summary",
                f"{family}_count{labels} {_prom_number(entry.get('count'))}",
            )
    lines: list[str] = []
    for family in sorted(families):
        lines.append(f"# TYPE {family} {types[family]}")
        lines.extend(families[family])
    return "\n".join(lines) + ("\n" if lines else "")


def to_prometheus_text(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """Prometheus text exposition of *registry*'s current state."""
    return prometheus_from_snapshot(registry.snapshot(), namespace=namespace)
